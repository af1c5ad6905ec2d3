"""PR 1 benchmark: the incremental materialization engine vs the seed path.

Produces ``BENCH_pr1.json`` (repo root by default) with wall-times,
invocation counts and cache hit rates for four scenarios:

* ``e4_datalog_tc``   — materialize transitive closure of a chain (Ex. 3.2);
  incremental engine vs seed behaviour (perf flags off).  Target: ≥2×.

The "seed" side is every ``perf.flags`` bit off.  Query evaluation has no
bit any more, so that side also runs the compiled query plan: it measures
the seed's full recomputation and object-tree paths, not the seed's naive
matcher.
* ``e3_snapshot_growing`` — repeated snapshot evaluation of a join query
  over a growing relation document; per-site delta evaluation vs
  from-scratch re-evaluation.  Target: ≥2×.
* ``e2_confluence``   — Theorem 2.1 sanity: all schedulers and both engine
  modes terminate in the same system (canonical signatures collapse).
* ``e8_lazy``         — Section 4 sanity: lazy/eager answers unchanged by
  the incremental engine, with invocation counts recorded.

Run::

    PYTHONPATH=src python benchmarks/bench_pr1.py            # full
    PYTHONPATH=src python benchmarks/bench_pr1.py --smoke    # CI subset
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(__file__))

from paxml import perf
from paxml.analysis import eager_evaluate, lazy_evaluate
from paxml.query import evaluate_snapshot, parse_query
from paxml.query.incremental import IncrementalQueryEvaluator
from paxml.system import RewritingEngine, materialize
from paxml.tree.node import label, val
from paxml.tree.reduction import antichain_insert, canonical_key
from paxml.tree.subsumption import forest_equivalent
from paxml.workloads import chain_edges, portal_system, random_edges, relation_tree, tc_system

from harness import timed, write_bench_json

JOIN2 = "p{c0{$x}, c1{$y}} :- d/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}"


def _engine_mode(incremental: bool) -> None:
    """Select incremental (flags on) or seed (flags off) behaviour; both
    modes evaluate queries through the compiled plan."""
    perf.flags.set_all(incremental)
    perf.clear_caches()
    perf.stats.reset()


def bench_e4(chain_n: int) -> dict:
    def run(incremental):
        _engine_mode(incremental)
        system = tc_system(chain_edges(chain_n))
        seconds, outcome = timed(lambda: materialize(system, max_steps=1_000_000))
        keys = {name: canonical_key(doc.root)
                for name, doc in system.documents.items()}
        return seconds, outcome, keys, perf.stats.snapshot()

    t_inc, out_inc, keys_inc, stats = run(True)
    t_seed, out_seed, keys_seed, _ = run(False)
    return {
        "workload": f"TC(chain-{chain_n})",
        "incremental_seconds": round(t_inc, 4),
        "seed_seconds": round(t_seed, 4),
        "speedup": round(t_seed / t_inc, 2),
        "incremental_invocations": out_inc.steps,
        "seed_invocations": out_seed.steps,
        "cache_stats": stats,
        "cache_hit_rates": _hit_rates(stats),
        "documents_equivalent": keys_inc == keys_seed,
    }


def bench_e3(base_rows: int, batches: int, batch_rows: int) -> dict:
    total = base_rows + batches * batch_rows
    edges = random_edges(max(total // 2, 2), total, seed=3)
    query = parse_query(JOIN2)

    def grow(document, batch):
        start = base_rows + batch * batch_rows
        for a, b in edges[start:start + batch_rows]:
            document.add_child(
                label("t", label("c0", val(a)), label("c1", val(b))))

    # Seed path: full snapshot re-evaluation at every growth step.
    _engine_mode(False)
    document = relation_tree(edges[:base_rows])
    t_seed = 0.0
    for batch in range(batches + 1):
        if batch:
            grow(document, batch - 1)
        seconds, answers = timed(
            lambda: evaluate_snapshot(query, {"d": document}))
        t_seed += seconds
    final_full = list(answers)

    # Incremental path: per-site delta evaluation over the same growth.
    _engine_mode(True)
    document = relation_tree(edges[:base_rows])
    evaluator = IncrementalQueryEvaluator(query)
    accumulated = []
    t_inc = 0.0
    for batch in range(batches + 1):
        if batch:
            grow(document, batch - 1)
        seconds, delta = timed(
            lambda: evaluator.evaluate_delta({"d": document}, site="bench"))
        t_inc += seconds
        for tree in delta:
            antichain_insert(accumulated, tree)
    stats = perf.stats.snapshot()
    equivalent = forest_equivalent(accumulated, final_full)
    return {
        "workload": f"join2 over growing relation ({base_rows}→{total} rows, "
                    f"{batches + 1} evaluations)",
        "incremental_seconds": round(t_inc, 4),
        "seed_seconds": round(t_seed, 4),
        "speedup": round(t_seed / t_inc, 2),
        "evaluations": batches + 1,
        "answers": len(final_full),
        "cache_stats": stats,
        "cache_hit_rates": _hit_rates(stats),
        "answers_equivalent": equivalent,
    }


def bench_e2(chain_n: int) -> dict:
    schedules = [("round_robin", None, True), ("lifo", None, True),
                 ("random", 0, True), ("random", 1, True),
                 ("round_robin", None, False)]
    signatures = set()
    steps = {}
    for scheduler, seed, incremental in schedules:
        _engine_mode(incremental)
        system = tc_system(chain_edges(chain_n))
        result = RewritingEngine(system, scheduler=scheduler, seed=seed).run()
        signatures.add(frozenset(system.signature().items()))
        mode = "inc" if incremental else "seed"
        tag = f"{scheduler}{'' if seed is None else seed}-{mode}"
        steps[tag] = result.steps
    return {
        "workload": f"TC(chain-{chain_n}) under 4 schedules × 2 engine modes",
        "invocations": steps,
        "distinct_limits": len(signatures),
        "confluent": len(signatures) == 1,
    }


def bench_e8(cds: int, irrelevant: int) -> dict:
    ratings = parse_query(
        "res{title{$t}, rating{$r}} :- "
        "portal/directory{cd{title{$t}, rating{$r}}}")
    outcomes = {}
    answers = {}
    for mode, incremental in [("inc", True), ("seed", False)]:
        _engine_mode(incremental)
        base = portal_system(cds, n_irrelevant=irrelevant, seed=5)
        t_lazy, lazy = timed(lambda: lazy_evaluate(base.copy(), ratings))
        t_eager, eager = timed(lambda: eager_evaluate(base.copy(), ratings))
        eager_answer, eager_calls, _ = eager
        outcomes[mode] = {
            "lazy_seconds": round(t_lazy, 4),
            "eager_seconds": round(t_eager, 4),
            "lazy_invocations": lazy.invocations,
            "eager_invocations": eager_calls,
        }
        answers[mode] = (lazy.answer, eager_answer)
    equivalent = (answers["inc"][0].equivalent_to(answers["seed"][0])
                  and answers["inc"][1].equivalent_to(answers["seed"][1])
                  and answers["inc"][0].equivalent_to(answers["inc"][1]))
    return {
        "workload": f"portal({cds} cds + {irrelevant} promos) lazy vs eager",
        "modes": outcomes,
        "answers_equivalent": equivalent,
    }


def _hit_rates(stats: dict) -> dict:
    rates = {}
    for kind in ("subsumption", "canonical_key", "input_tree"):
        hits = stats.get(f"{kind}_hits", 0)
        misses = stats.get(f"{kind}_misses", 0)
        rates[kind] = round(hits / (hits + misses), 3) if hits + misses else None
    return rates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI subset; skips the ≥2× assertions")
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    out = args.out or os.path.join(root, "BENCH_pr1.json")

    if args.smoke:
        scenarios = {
            "e4_datalog_tc": bench_e4(chain_n=12),
            "e3_snapshot_growing": bench_e3(base_rows=30, batches=4,
                                            batch_rows=10),
            "e2_confluence": bench_e2(chain_n=6),
            "e8_lazy": bench_e8(cds=10, irrelevant=5),
        }
    else:
        scenarios = {
            "e4_datalog_tc": bench_e4(chain_n=32),
            "e3_snapshot_growing": bench_e3(base_rows=100, batches=10,
                                            batch_rows=20),
            "e2_confluence": bench_e2(chain_n=10),
            "e8_lazy": bench_e8(cds=20, irrelevant=10),
        }
    perf.flags.set_all(True)

    failures = []
    for name, scenario in scenarios.items():
        for check in ("documents_equivalent", "answers_equivalent", "confluent"):
            if scenario.get(check) is False:
                failures.append(f"{name}: {check} failed")
    if not args.smoke:
        for name in ("e4_datalog_tc", "e3_snapshot_growing"):
            if scenarios[name]["speedup"] < 2.0:
                failures.append(
                    f"{name}: speedup {scenarios[name]['speedup']}x < 2x")

    write_bench_json(out, scenarios)
    for name, scenario in scenarios.items():
        speed = (f" — {scenario['speedup']}x" if "speedup" in scenario else "")
        print(f"  {name}: ok{speed}")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
