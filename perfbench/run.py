"""Pipeline benchmark: time to a validated verdict, per workload.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  The run drives the public pipeline
(find_plan, the plan document round trip, validate_plan, and the model-dump
path) as a closed loop in one thread.  Every measured run is a fresh worker
process (perfbench/worker.py), so import time and memory are its own.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
prints the per-layer metrics of a traced worker, after checking it against
an untraced one and against a second traced one.  The last line of standard
output is one JSON object.  The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import EXACT_COUNTS
from workloads import WORKLOADS, units

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
HARD_LIMIT_S = 170.0  # whole run, under the 180 s a run may take
SETUP_PROBES = 10  # extra set-up-only processes; set-up is their median


class BenchError(Exception):
    pass


def run_worker(root, deadline, *args):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *map(str, args)],
            cwd=root, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(worker_results):
    """(attempted, failed, decided, error lines) over every unit verdict."""
    attempted = failed = decided = 0
    errors = []
    for res in worker_results:
        for rows in res["passes"]:
            for row in rows:
                attempted += 1
                decided += row["decided"]
                if row["errors"]:
                    failed += 1
                    errors += [f"{row['uid']}: {e}" for e in row["errors"]]
    return attempted, failed, decided, errors


def plain_run(root, deadline, workload, seed, seconds):
    # The first set-up process also fills the bytecode cache; it is not counted.
    setups = [run_worker(root, deadline, "setup", workload, seed, 0)["setup_s"]
              for _ in range(SETUP_PROBES + 1)][1:]
    main = run_worker(root, deadline, "plain", workload, seed, seconds)
    setups.append(main["setup_s"])
    attempted, failed, decided, errors = tally([main])
    per_unit = list(zip(*main["passes"]))
    metrics = {
        "verdict_s": sum(statistics.median(r["verdict_s"] for r in rows) for rows in per_unit),
        "dump_s": sum(statistics.median(t for r in rows for t in r["dump_s"])
                      for rows in per_unit),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "decided_frac": decided / attempted,
    }
    total_nodes = sum(row["signature"][2] for row in main["passes"][0])
    notes = [f"passes={len(main['passes'])} setup_samples={len(setups)} nodes={total_nodes}"]
    for rows in per_unit:
        status, n, nodes, opt = rows[0]["signature"][:4]
        times = sorted(r["verdict_s"] for r in rows)
        notes.append(f"{rows[0]['uid']:<22} {status:<9} n={n} opt={opt} nodes={nodes} "
                     f"verdict_s={statistics.median(times):.3f} [{times[0]:.3f}..{times[-1]:.3f}]")
    return metrics, attempted, failed, errors, notes


def traced_run(root, deadline, workload, seed):
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = [os.path.join(out_dir, f"spans-{workload}-s{seed}-{tag}.jsonl") for tag in "ab"]
    plain = run_worker(root, deadline, "plain", workload, seed, 0)
    traced = [run_worker(root, deadline, "traced", workload, seed, 0, path) for path in spans]
    attempted, failed, _, errors = tally([plain, *traced])

    # The second traced run, in another process with another hash seed,
    # must repeat every exact count and every unit's signature.
    sigs = [[row["signature"] for row in res["passes"][0]] for res in traced]
    if traced[0]["counts"] != traced[1]["counts"] or sigs[0] != sigs[1]:
        errors.append(f"traced runs differ: {traced[0]['counts']} != {traced[1]['counts']} "
                      f"or {sigs[0]} != {sigs[1]}")
    # Tracing must not change the answer: status, n*, nodes and optimum.
    plain_sigs = [row["signature"][:4] for row in plain["passes"][0]]
    for res in traced:
        for row, sig in zip(res["passes"][0], plain_sigs):
            if row["signature"][:4] != sig:
                errors.append(f"{row['uid']}: traced {row['signature'][:4]} != untraced {sig}")

    layers = traced[0]["layers"]
    plain_verdict = sum(row["verdict_s"] for row in plain["passes"][0])
    metrics = dict(layers)
    metrics["trace.overhead_s"] = layers["trace.verdict_s"] - plain_verdict
    notes = [f"untraced verdict_s={plain_verdict:.3f} traced={layers['trace.verdict_s']:.3f}",
             "counts " + " ".join(f"{k}={traced[0]['counts'][k]}" for k in EXACT_COUNTS),
             f"spans: {os.path.relpath(spans[0], root)}"]
    return metrics, attempted, failed, errors, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tqaplan", "__init__.py")):
        print("perfbench: run from the root of a tqaplan checkout (src/tqaplan not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload} seed {args.seed}: {why[args.workload]}")
    print(f"units: {' '.join(u.uid for u in units(args.workload))}")
    try:
        if args.trace:
            metrics, attempted, failed, errors, notes = traced_run(
                root, deadline, args.workload, args.seed)
        else:
            metrics, attempted, failed, errors, notes = plain_run(
                root, deadline, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in notes + errors:
        print(line)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
