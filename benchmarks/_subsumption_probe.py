"""Microbenchmark: linear vs indexed antichain maintenance.

Isolates the one kernel PR 6 rewrote — maintaining an antichain of
pairwise-incomparable trees under a stream of candidate inserts — from
everything else the engines do.  The linear path is
``antichain_insert`` (one pass over every kept tree, a packed-bitset
subset test before each ``is_subsumed``); the indexed path is
:class:`paxml.tree.antichain.BitsetAntichain` (posting lists over packed
subtree marking bitsets, so a candidate only visits kept trees that
share its rarest marking).  Both paths insert structurally identical
tree streams and must keep identical antichains.

Prints one JSON line::

    PYTHONPATH=src python benchmarks/_subsumption_probe.py [trees] [repeats]
"""

from __future__ import annotations

import json
import sys
import time

from paxml import perf
from paxml.tree import store as tree_store
from paxml.tree.antichain import BitsetAntichain
from paxml.tree.reduction import antichain_insert, canonical_key
from paxml.tree.node import label, val


def _stream(n_trees: int):
    """A graft-shaped candidate stream: keyed relation rows (the engines'
    dominant answer shape), with every key seen ~twice so duplicates drop,
    and periodic wider rows so eviction fires too."""
    keys = max(n_trees // 2, 1)
    trees = []
    for i in range(n_trees):
        row = label("row", label("k", val(i % keys)),
                    label("v", val((i * 7) % 50)))
        if i % 7 == 3:
            # a dominator: the same row plus an extra child evicts the
            # plain row once both have been seen
            row.add_child(label("w", val(i % 5)))
        trees.append(row)
    return trees


def run_linear(trees) -> tuple:
    kept = []
    start = time.perf_counter()
    for tree in trees:
        antichain_insert(kept, tree)
    return time.perf_counter() - start, kept


def run_bitset(trees) -> tuple:
    index = BitsetAntichain()
    start = time.perf_counter()
    for tree in trees:
        index.insert(tree)
    return time.perf_counter() - start, list(index)


def main() -> int:
    n_trees = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    perf.flags.set_all(True)
    best_lin = best_bit = None
    kept_lin = kept_bit = None
    for _ in range(repeats):
        perf.clear_caches()
        perf.stats.reset()
        # fresh structurally-identical streams per side: inserts mutate
        # nothing, but cached canonical keys must not leak across sides
        t_lin, kept_lin = run_linear(_stream(n_trees))
        t_bit, kept_bit = run_bitset(_stream(n_trees))
        best_lin = t_lin if best_lin is None else min(best_lin, t_lin)
        best_bit = t_bit if best_bit is None else min(best_bit, t_bit)

    keys = lambda ts: sorted(str(canonical_key(t)) for t in ts)
    report = {
        "trees": n_trees,
        "repeats": repeats,
        "linear_seconds": round(best_lin, 4),
        "bitset_seconds": round(best_bit, 4),
        "speedup": round(best_lin / best_bit, 2),
        "kept": len(kept_bit),
        "antichains_equal": keys(kept_lin) == keys(kept_bit),
        "bitset_rejects": perf.stats.bitset_rejects,
        "interned_markings": tree_store.store_sizes()["interned_markings"],
    }
    print(json.dumps(report))
    return 0 if report["antichains_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
