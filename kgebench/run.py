#!/usr/bin/env python3
"""The dynkge benchmark: one command per workload run.

    python3 kgebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the libraries from ``src/`` and the
benchmark (``kgebench/``) into ``$CARGO_TARGET_DIR`` (default
``.bench_build``), generates the workload's inputs from the seed into
``.bench_work/``, runs the workload and prints, as the last line of
stdout, one JSON object: the correctness verdict, ops attempted and
failed, and the metrics of ``BENCHMARK.json`` (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``). The line before it
carries the FNV-1a fingerprints of the final embeddings, one per training
seed (serve-churn: of the served model).

A metric the run does not produce is an error, unless
``kgebench/ledger.json`` lists no workload of this run for it; such a
metric is reported as 0.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-dense", "train-sparse", "train-federated", "serve-churn")
DEADLINE_S = 170  # a run must finish within 180 s


def log(msg):
    print(f"kgebench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("dynkge sources (src/) not found next to kgebench/")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "kgebench_gen", "kgebench_run"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return build_dir


EXCHANGE_SPANS = ("quantize.encode", "exchange.param_server", "quantize.decode")


def span_tables(trace_path):
    """Per span name: total duration and self time (duration minus the part
    covered by its direct children on the same track), in seconds; each
    span's durations; call counts and total time on rank 0's track (tid 0)."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    total, self_s, durations, calls0, rank0 = {}, {}, {}, {}, {}
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack, covered = [], {}
        for i, e in enumerate(evs):
            while stack and evs[stack[-1]]["ts"] + evs[stack[-1]]["dur"] <= e["ts"] + 1e-3:
                stack.pop()
            if stack:
                covered[stack[-1]] = covered.get(stack[-1], 0.0) + e["dur"]
            stack.append(i)
        for i, e in enumerate(evs):
            name, dur = e["name"], e["dur"] * 1e-6
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - covered.get(i, 0.0) * 1e-6
            durations.setdefault(name, []).append(dur)
            if tid == 0:
                calls0[name] = calls0.get(name, 0) + 1
                rank0[name] = rank0.get(name, 0.0) + dur
    return total, self_s, durations, calls0, rank0


def layer_values(workload, raw, trace_path):
    """Per-layer metrics: the runner's exact counters plus span-derived times
    normalized per traced unit (job, or churn phase). A metric whose span
    is absent from the trace is left out, not reported as 0."""
    values = dict(raw)
    total, self_s, durations, calls0, rank0 = span_tables(trace_path)
    units = raw.get("jobs.traced") or raw.get("units.traced") or 1.0
    from_spans = {
        "core.hard_negatives.self_s": (self_s, "hard_negatives"),
        "core.grad_select.self_s": (self_s, "grad_select"),
        "core.codec.encode_s": (total, "quantize.encode"),
        "core.codec.decode_s": (total, "quantize.decode"),
        "core.epoch.unattributed_s": (self_s, "epoch"),
        "kge.forward_backward.self_s": (self_s, "forward_backward"),
        "kge.adam.self_s": (self_s, "adam_update"),
        "kge.validation.self_s": (self_s, "validation"),
        "kge.checkpoint.self_s": (self_s, "checkpoint.write"),
        "comm.allreduce.self_s": (self_s, "exchange.allreduce"),
        "comm.allgather.self_s": (self_s, "exchange.allgather"),
        "comm.ps.self_s": (self_s, "exchange.param_server"),
        "serve.batch.busy_s": (total, "serve.batch"),
        "stream.refresh.busy_s": (total, "stream.refresh"),
        "stream.swap.busy_s": (total, "stream.swap"),
    }
    for metric, (table, span) in from_spans.items():
        if span in table:
            values[metric] = table[span] / units
    if "bench.load" in durations:
        values["kge.load_s"] = statistics.median(durations["bench.load"])
    # Collective calls as seen on rank 0's track.
    for kind, span in (("allreduce", "exchange.allreduce"),
                       ("allgather", "exchange.allgather"),
                       ("ps", "exchange.param_server")):
        if span in calls0:
            values[f"comm.{kind}.calls"] = calls0[span] / units
    if workload == "train-federated" and all(n in rank0 for n in EXCHANGE_SPANS):
        # train() wall minus rank 0's exchange spans (clients exchange in
        # lockstep, so one track's exchange time is the job's).
        exchange = sum(rank0[n] for n in EXCHANGE_SPANS)
        train_wall = sum(durations.get("bench.train", []))
        values["federated.local_sgd_s"] = (train_wall - exchange) / units
    return values


def reported(workload, trace, wanted, values):
    """The metrics to print. Every metric that applies to the workload must
    have been produced; one that does not apply is reported as 0."""
    with open(os.path.join(BENCH_DIR, "ledger.json")) as f:
        applies = {m["name"]: workload in m["workloads"] for m in json.load(f)["per_layer"]}
    missing = [m["name"] for m in wanted
               if m["name"] not in values and (not trace or applies[m["name"]])]
    if missing:
        raise RuntimeError(f"{workload} did not produce: {', '.join(missing)}")
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    root = os.path.dirname(BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build_dir = build(root)
    scratch = os.path.join(root, ".bench_work")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = os.path.join(work, "inputs")
        subprocess.run([os.path.join(build_dir, "kgebench_gen"), "--seed", str(args.seed),
                        "--out", inputs], check=True, stdout=subprocess.DEVNULL)
        done = subprocess.run(
            [os.path.join(build_dir, "kgebench_run"), "--workload", args.workload,
             "--inputs", inputs, "--work", work, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
            timeout=max(DEADLINE_S - (time.monotonic() - started), 1.0))
        if done.returncode != 0:
            raise RuntimeError(f"kgebench_run exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if args.trace:
            result["values"] = layer_values(args.workload, result["values"],
                                            os.path.join(work, "trace.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(scratch) and not os.listdir(scratch):
            os.rmdir(scratch)

    metrics = reported(args.workload, args.trace, wanted, result["values"])
    for error in result["errors"]:
        log(f"check failed: {error}")
    print(f"fingerprint: {result['fingerprint']} workload: {args.workload} "
          f"seed: {args.seed}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
