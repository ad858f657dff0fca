#!/usr/bin/env python3
"""Self-check of the dynkge benchmark, in a short mode.

    python3 kgebench/check.py [--seed N] [--seconds S] [--workload W ...]

For every workload, runs ``kgebench/run.py`` twice untraced and twice
traced with one seed and asserts that

  * each run exits 0 and ends with one JSON object holding exactly
    ``correct``, ``attempted``, ``failed`` and ``metrics``;
  * the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
    (traced) metrics of BENCHMARK.json, each a number with its unit;
  * every per-layer metric that kgebench/ledger.json applies to the
    workload is nonzero, unless the ledger marks it ``zero_ok`` (a count
    of failures, say), so a renamed span or counter cannot read as 0;
  * mrr, tca, the final-embedding fingerprint and every per-layer metric
    that kgebench/ledger.json marks exact repeat across the two runs.

The program's own correctness verdict is printed, not asserted: a run that
finds wrong outputs is the benchmark working. Exits 1 on any failure.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train-dense", "train-sparse", "train-federated", "serve-churn")


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(line.split()[1] for line in lines if line.startswith("fingerprint:"))
    return result, fingerprint


def check_shape(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    metrics = result["metrics"]
    assert set(metrics) == set(expected), sorted(set(metrics) ^ set(expected))
    for name, unit in expected.items():
        assert set(metrics[name]) == {"value", "unit"}, (name, metrics[name])
        assert metrics[name]["unit"] == unit, (name, metrics[name]["unit"], unit)
        assert isinstance(metrics[name]["value"], (int, float)), name


def check_nonzero(result, workload, ledger):
    zero = [m["name"] for m in ledger
            if workload in m["workloads"] and not m.get("zero_ok")
            and result["metrics"][m["name"]]["value"] == 0]
    assert not zero, f"applicable metrics read 0: {', '.join(zero)}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "ledger.json")) as f:
        ledger = json.load(f)["per_layer"]
    exact = [m["name"] for m in ledger if m["exact"]]
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    repeat = {0: ["mrr", "tca"], 1: exact}

    failures = 0
    for workload in args.workload or WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            try:
                first, print1 = run(workload, args.seed, args.seconds, trace)
                second, print2 = run(workload, args.seed, args.seconds, trace)
                for result in (first, second):
                    check_shape(result, expected[trace])
                    if trace:
                        check_nonzero(result, workload, ledger)
                assert print1 == print2, f"fingerprint {print1} != {print2}"
                for name in repeat[trace]:
                    a = first["metrics"][name]["value"]
                    b = second["metrics"][name]["value"]
                    assert a == b, f"{name} does not repeat: {a} != {b}"
            except (AssertionError, StopIteration, ValueError, KeyError) as e:
                failures += 1
                print(f"FAIL {label}: {e}")
                continue
            verdict = "correct" if first["correct"] and second["correct"] else (
                f"outputs wrong (failed ops {first['failed']}, {second['failed']})")
            nonzero = sum(1 for m in ledger
                          if workload in m["workloads"] and not m.get("zero_ok"))
            print(f"ok   {label}: {len(expected[trace])} metrics with units, "
                  + (f"{nonzero} applicable nonzero, " if trace else "") +
                  f"{len(repeat[trace])} exact values and fingerprint {print1} "
                  f"repeat; program verdict: {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
