"""Web services: the ``I(f)`` side of a monotone AXML system (Section 2.2).

Three kinds of services are supported:

* :class:`QueryService` — the positive services of Section 3: one positive
  query, evaluated under snapshot semantics at every invocation;
* :class:`UnionQueryService` — a finite union of positive queries.  The
  paper defines ``I(f)`` as a single rule; unions are expressible in the
  model through auxiliary documents holding one call per rule, so allowing
  them directly is a conservative convenience (unions of monotone queries
  are monotone).  The ψ translation of Proposition 5.1 uses this to keep
  one state-propagation service per regex instead of one per NFA move;
* :class:`BlackBoxService` — an arbitrary Python callable wrapped as a
  monotone service, for the "black-box" view of Section 2.2 (we cannot
  check monotonicity in general; a debug mode spot-checks it on the
  observed sequence of invocations, which *is* a chain under ⊆).

A service is evaluated against an *environment*: a mapping from document
names — the system's names plus the reserved ``input`` and ``context`` — to
tree roots.  It returns a :class:`~paxml.tree.document.Forest`; callers copy
the forest's trees before grafting them into documents.
"""

from __future__ import annotations

import abc
from typing import (Callable, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .. import perf
from ..query.incremental import IncrementalQueryEvaluator
from ..query.matching import evaluate_snapshot, evaluate_union_snapshot
from ..query.parser import parse_queries, parse_query
from ..query.rule import PositiveQuery
from ..tree.document import CONTEXT, INPUT, Forest
from ..tree.node import Node
from ..tree.subsumption import forest_subsumed

Environment = Mapping[str, Node]


class Service(abc.ABC):
    """A named, *monotone* function from document assignments to forests."""

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"service name must be a non-empty string, got {name!r}")
        self.name = name

    @abc.abstractmethod
    def evaluate(self, environment: Environment) -> Forest:
        """Apply the service; must not mutate the environment's trees."""

    def evaluate_delta(self, environment: Environment,
                       site: Optional[Hashable]) -> Forest:
        """Answers not yet delivered to ``site`` (the engine's fast path).

        ``site`` is a stable identity for the invoking call node.  The
        contract is *delta semantics*: the union of all forests returned
        for one site equals (up to reduction) the full snapshot answer on
        the latest environment.  The default implementation is the trivial
        delta — the full answer every time — which is always correct
        because grafting drops already-delivered answers by subsumption.
        Positive services override this with cached semi-naive evaluation.
        """
        return self.evaluate(environment)

    @abc.abstractmethod
    def reads_documents(self) -> Set[str]:
        """Document names the service depends on (``input``/``context`` included)."""

    @abc.abstractmethod
    def emits_functions(self) -> Set[str]:
        """Function names that may occur in answers (for the dependency graph)."""

    @property
    def uses_context(self) -> bool:
        return CONTEXT in self.reads_documents()

    @property
    def uses_input(self) -> bool:
        return INPUT in self.reads_documents()

    @property
    def is_positive(self) -> bool:
        """True when the definition is a known positive query (Section 3)."""
        return False

    @property
    def is_simple(self) -> bool:
        """True when defined by simple queries only (no tree variables)."""
        return False

    # -- checkpointing --------------------------------------------------

    def export_site_cutoffs(self) -> List[Tuple[int, Hashable, int]]:
        """Incremental ``(rule_index, site, cutoff)`` triples to persist.

        Empty by default (only positive services carry incremental site
        state, and sites of ``input``-reading rules are withheld: their
        cached environment includes the per-call input tree, whose node
        identity does not survive a process boundary).
        """
        return []

    def restore_site_cutoff(self, rule_index: int, site: Hashable,
                            cutoff: int, doc_uids: Dict[str, int]) -> None:
        """Re-seed one site's incremental state from a checkpoint."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class QueryService(Service):
    """A positive service: ``I(f)`` is one positive query (Section 3.2)."""

    def __init__(self, name: str, query: PositiveQuery):
        super().__init__(name)
        self.query = query
        self._incremental = IncrementalQueryEvaluator(query)

    @classmethod
    def parse(cls, name: str, text: str) -> "QueryService":
        return cls(name, parse_query(text, name=name))

    def evaluate(self, environment: Environment) -> Forest:
        return evaluate_snapshot(self.query, environment)

    def evaluate_delta(self, environment: Environment,
                       site: Optional[Hashable]) -> Forest:
        return self._incremental.evaluate_delta(environment, site)

    def reads_documents(self) -> Set[str]:
        return self.query.document_names()

    def emits_functions(self) -> Set[str]:
        return self.query.head_function_names()

    @property
    def is_positive(self) -> bool:
        return True

    @property
    def is_simple(self) -> bool:
        return self.query.is_simple

    @property
    def queries(self) -> List[PositiveQuery]:
        return [self.query]

    def export_site_cutoffs(self) -> List[Tuple[int, Hashable, int]]:
        if INPUT in self.query.document_names():
            return []
        return [(0, site, cutoff)
                for site, cutoff in self._incremental.export_cutoffs().items()]

    def restore_site_cutoff(self, rule_index: int, site: Hashable,
                            cutoff: int, doc_uids: Dict[str, int]) -> None:
        self._incremental.restore_cutoff(site, cutoff, doc_uids)

    def __repr__(self) -> str:
        return f"QueryService({self.name!r}: {self.query})"


class UnionQueryService(Service):
    """A service defined by a finite union of positive queries."""

    def __init__(self, name: str, queries: Sequence[PositiveQuery]):
        super().__init__(name)
        if not queries:
            raise ValueError("a union service needs at least one rule")
        self.queries: List[PositiveQuery] = list(queries)
        # rule_index feeds provenance: a graft traced back to this service
        # names which rule of the union produced it.
        self._incremental = [IncrementalQueryEvaluator(q, rule_index=i)
                             for i, q in enumerate(self.queries)]

    @classmethod
    def parse(cls, name: str, text: str) -> "UnionQueryService":
        return cls(name, parse_queries(text, name=name))

    def evaluate(self, environment: Environment) -> Forest:
        return evaluate_union_snapshot(self.queries, environment)

    def evaluate_delta(self, environment: Environment,
                       site: Optional[Hashable]) -> Forest:
        # Per-rule deltas; cross-rule redundancy is left to the graft's
        # antichain insertion (unions of correct deltas are correct deltas).
        trees: List[Node] = []
        for evaluator in self._incremental:
            trees.extend(evaluator.evaluate_delta(environment, site).trees)
        return Forest(trees)

    def reads_documents(self) -> Set[str]:
        names: Set[str] = set()
        for query in self.queries:
            names |= query.document_names()
        return names

    def emits_functions(self) -> Set[str]:
        names: Set[str] = set()
        for query in self.queries:
            names |= query.head_function_names()
        return names

    @property
    def is_positive(self) -> bool:
        return True

    @property
    def is_simple(self) -> bool:
        return all(query.is_simple for query in self.queries)

    def export_site_cutoffs(self) -> List[Tuple[int, Hashable, int]]:
        triples: List[Tuple[int, Hashable, int]] = []
        for index, evaluator in enumerate(self._incremental):
            if INPUT in self.queries[index].document_names():
                continue
            triples.extend((index, site, cutoff) for site, cutoff
                           in evaluator.export_cutoffs().items())
        return triples

    def restore_site_cutoff(self, rule_index: int, site: Hashable,
                            cutoff: int, doc_uids: Dict[str, int]) -> None:
        if 0 <= rule_index < len(self._incremental):
            self._incremental[rule_index].restore_cutoff(site, cutoff,
                                                         doc_uids)

    def __repr__(self) -> str:
        return f"UnionQueryService({self.name!r}: {len(self.queries)} rules)"


class BlackBoxService(Service):
    """An opaque monotone service — the Section 2.2 black-box view.

    ``fn`` receives the environment and returns a :class:`Forest` (or an
    iterable of :class:`Node`).  ``reads`` and ``emits`` declare the
    dependency edges of Definition 3.2; they default to "reads input and
    context, emits nothing".

    With ``check_monotone=True`` every result is checked to subsume the
    previous result *of the same call site environment chain*: successive
    invocations observe growing documents, so results must grow too.
    Violations raise :class:`MonotonicityError` — the paper's model simply
    excludes such services.
    """

    def __init__(self, name: str,
                 fn: Callable[[Environment], "Forest | Iterable[Node]"],
                 reads: Iterable[str] = (INPUT, CONTEXT),
                 emits: Iterable[str] = (),
                 check_monotone: bool = False,
                 assume_reduced: bool = False):
        super().__init__(name)
        self.fn = fn
        self._reads = set(reads)
        self._emits = set(emits)
        self.check_monotone = check_monotone
        self.assume_reduced = assume_reduced
        self._last_result: Optional[Forest] = None

    def evaluate(self, environment: Environment) -> Forest:
        raw = self.fn(environment)
        result = raw if isinstance(raw, Forest) else Forest(raw)
        if not self.assume_reduced:
            result = result.reduced()
        if self.check_monotone and self._last_result is not None:
            if not forest_subsumed(self._last_result.trees, result.trees):
                raise MonotonicityError(
                    f"service {self.name!r} shrank its answer between two "
                    "invocations; monotone AXML requires growing answers"
                )
        if self.check_monotone:
            self._last_result = result
        return result

    def reads_documents(self) -> Set[str]:
        return set(self._reads)

    def emits_functions(self) -> Set[str]:
        return set(self._emits)


class MonotonicityError(RuntimeError):
    """A black-box service violated the monotonicity contract."""


def constant_service(name: str, forest: Forest) -> BlackBoxService:
    """A service returning a fixed forest regardless of its arguments.

    The forest is reduced once at construction and every call shares the
    frozen result — no per-call copy, no per-call re-reduction.  Sharing
    is safe because grafting copies each answer tree before inserting it
    (services must return forests the caller may not mutate, which the
    engines already guarantee through :func:`graft_answers`).
    """
    frozen = forest.reduced()

    def deliver(_env: Environment) -> Forest:
        perf.stats.constant_calls_shared += 1
        return frozen

    return BlackBoxService(name, deliver, reads=(), assume_reduced=True)
