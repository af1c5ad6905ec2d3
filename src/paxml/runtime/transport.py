"""Transports: where a concurrent call's answer actually comes from.

The engine is agnostic about *who* evaluates a service.  It builds a
:class:`CallRequest` — the same data a remote invocation ships in the
peers simulator: service name, ``θ(input)`` over the call's parameters,
and the context subtree — and awaits ``transport.call(request)`` for the
answer forest.  Two implementations:

* :class:`LocalTransport` — the centralized model: services evaluate
  against one :class:`~paxml.system.system.AXMLSystem`'s documents, as in
  :func:`paxml.system.invocation.evaluate_call`.  The snapshot the
  service sees is whatever the documents hold *when the coroutine reaches
  the evaluation step*; by monotonicity that is always a legal (possibly
  newer) environment for the call, so interleaving never threatens
  soundness (DESIGN.md §7).
* :class:`PeerTransport` — the distributed model: each service is owned
  by exactly one :class:`~paxml.peers.peer.Peer` and evaluates against
  the *owner's* documents; the context ships as a copy, exactly like a
  :class:`~paxml.peers.network.CallRequest` on the simulated wire.

Both accept a ``latency`` spec (a float, or a per-service mapping) that
is awaited before evaluation — the stand-in for network round-trip plus
service compute time that the benchmarks and timeout tests turn up.

Service evaluation itself is synchronous Python: a transport never yields
between reading the environment and finishing the evaluation, so a
concurrently applied graft can never observe or produce a half-read tree.
"""

from __future__ import annotations

import abc
import asyncio
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Union

from ..peers.peer import Peer, PeerError
from ..system.invocation import _validate_answers
from ..system.system import AXMLSystem
from ..tree.document import CONTEXT, INPUT, Forest
from ..tree.node import Node

LatencySpec = Union[None, float, Mapping[str, float]]

LOCAL_PEER = "local"  # the pseudo-peer name of the centralized transport


class TransportError(RuntimeError):
    """A call failed in a way that is NOT retryable (bad request)."""


class TransientServiceError(RuntimeError):
    """A call failed in a way that IS retryable (injected or simulated)."""


@dataclass
class CallRequest:
    """One in-flight invocation, as shipped to a transport."""

    service: str
    site: int                     # uid of the invoking call node
    input_tree: Node              # θ(input) — copies of the parameters
    context_tree: Optional[Node]  # θ(context) — the call's parent subtree
    caller_document: str


class Transport(abc.ABC):
    """An async answer source for service calls."""

    @abc.abstractmethod
    def peer_of(self, service: str) -> str:
        """The peer that owns ``service`` (circuit-breaker key half)."""

    @abc.abstractmethod
    async def call(self, request: CallRequest) -> Forest:
        """Evaluate the call and return its answer forest."""

    # -- shared latency handling ----------------------------------------

    def __init__(self, latency: LatencySpec = None):
        self._latency = latency

    def latency_for(self, service: str) -> float:
        if self._latency is None:
            return 0.0
        if isinstance(self._latency, Mapping):
            return float(self._latency.get(service, 0.0))
        return float(self._latency)

    async def _simulate_latency(self, service: str) -> None:
        seconds = self.latency_for(service)
        if seconds > 0:
            await asyncio.sleep(seconds)


class LocalTransport(Transport):
    """Evaluate services in-process against one system's documents.

    Uses full snapshot evaluation (not the per-site delta path): under
    retries and injected drops a delta that was computed but never
    *applied* would be lost for good, because the incremental evaluator
    marks it delivered.  Snapshot answers are always safe to recompute —
    grafting drops what the document already subsumes.

    A served call therefore costs one full plan join over the current
    documents, plus, per *distinct* answer, one instantiation and one
    indexed antichain insert (the query's answer builder skips a
    duplicate by its head key before building it, and makes no copy).
    The join and the per-answer work still grow with the whole result,
    not with what changed since the site's last call.
    """

    def __init__(self, system: AXMLSystem, latency: LatencySpec = None):
        super().__init__(latency)
        self.system = system

    def peer_of(self, service: str) -> str:
        return LOCAL_PEER

    async def call(self, request: CallRequest) -> Forest:
        await self._simulate_latency(request.service)
        service = self.system.services.get(request.service)
        if service is None:
            raise TransportError(
                f"call names undeclared service {request.service!r}")
        environment: Dict[str, Node] = dict(self.system.environment())
        environment[INPUT] = request.input_tree
        if request.context_tree is not None:
            environment[CONTEXT] = request.context_tree
        answers = service.evaluate(environment)
        _validate_answers(service.name, answers)
        return answers


class PeerTransport(Transport):
    """Route each call to the single peer that offers its service."""

    def __init__(self, peers: Iterable[Peer], latency: LatencySpec = None):
        super().__init__(latency)
        self.peers: Dict[str, Peer] = {}
        self._owner: Dict[str, str] = {}
        for peer in peers:
            if peer.name in self.peers:
                raise PeerError(f"duplicate peer name {peer.name!r}")
            self.peers[peer.name] = peer
            for service_name in peer.services:
                if service_name in self._owner:
                    raise PeerError(
                        f"service {service_name!r} offered by two peers "
                        f"({self._owner[service_name]!r} and {peer.name!r})")
                self._owner[service_name] = peer.name

    def peer_of(self, service: str) -> str:
        owner = self._owner.get(service)
        if owner is None:
            raise TransportError(f"no peer offers service {service!r}")
        return owner

    async def call(self, request: CallRequest) -> Forest:
        owner = self.peers[self.peer_of(request.service)]
        await self._simulate_latency(request.service)
        # Remote calls ship copies (the wire serializes); the live parent
        # must not leak to another peer's evaluation.
        context = (request.context_tree.copy()
                   if request.context_tree is not None else None)
        answers = owner.execute(request.service, request.input_tree, context)
        _validate_answers(request.service, answers)
        return answers
