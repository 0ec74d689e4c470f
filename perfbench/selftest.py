#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of eigenforge).

    python3 perfbench/selftest.py

Runs a few requests per workload and checks that
1. every metric named in BENCHMARK.json is printed with its unit, for the
   end-to-end run and for the traced run;
2. the eigen oracle rejects a deliberately perturbed eigenvalue;
3. the traced counts (calls, degrees visited, sweeps, states, bytes) repeat
   exactly across two traced runs of one seed.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json

import run

LIMIT = 4
COUNT_SUFFIXES = (".calls", ".fail", ".degrees_visited", ".sweeps", ".states", ".bytes")
BENCHMARK = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())


def require(condition, message):
    if not condition:
        raise AssertionError(message)


def printed_result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(argv)
    return json.loads(out.getvalue().splitlines()[-1])


def tiny_seed():
    """Smallest seed whose first LIMIT field requests of blocks 0 and 1 are linear,
    so the self-test never waits for the 200-sweep reference stall."""
    import workloads

    for seed in range(1000):
        kinds = [r.kind for b in (0, 1) for r in workloads.field_block(seed, b)[:LIMIT]]
        if all(k.startswith("linear/") for k in kinds):
            return seed
    raise AssertionError("no seed with linear-only leading field requests")


def check_metric_names(seed):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for workload in run.WORKLOADS:
            result = printed_result(["--workload", workload, "--seed", str(seed),
                                     "--seconds", "0", "--trace", str(trace),
                                     "--limit", str(LIMIT)])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == expected, f"{workload} trace={trace}: printed {got}, "
                                     f"BENCHMARK.json names {expected}")
            require(result["correct"] is True and result["attempted"] >= 1,
                    f"{workload} trace={trace}: {result}")
            for name, m in result["metrics"].items():
                require(isinstance(m["value"], (int, float)), f"{name} is not a number")


def check_perturbed_eigenvalue():
    import workloads
    from oracles import WrongResult

    rejected = 0
    for req in workloads.eigen_block(0, 0):
        if not req.kind.endswith("/2/const") and not req.kind.endswith("/2/var"):
            continue
        pairs, trace, text = req.call()
        req.check((pairs, trace, text))  # the honest result passes
        bad = [dataclasses.replace(pairs[0], lambda_=pairs[0].lambda_ * (1 + 1e-6) + 1e-6)]
        try:
            req.check((bad + pairs[1:], trace, text))
        except WrongResult:
            rejected += 1
        else:
            raise AssertionError(f"{req.kind}: perturbed eigenvalue accepted")
        if rejected == 4:
            return
    raise AssertionError("too few two-mode eigen requests to test")


def check_counts_repeat(seed):
    for workload in run.WORKLOADS:
        runs = [run.traced(workload, seed, LIMIT)[3] for _ in range(2)]
        counts = [{k: v for k, v in r.items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
        require(counts[0] == counts[1], f"{workload}: counts differ {counts}")
        require(any(counts[0].values()), f"{workload}: no counts recorded")


def main() -> int:
    run._import_library()
    seed = tiny_seed()
    checks = [("metric names and units", lambda: check_metric_names(seed)),
              ("perturbed eigenvalue rejected", check_perturbed_eigenvalue),
              ("traced counts repeat", lambda: check_counts_repeat(seed))]
    failures = 0
    for label, check in checks:
        try:
            check()
            print(f"ok    {label}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {label}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
