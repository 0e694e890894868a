"""zimrev benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload division_sym --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh child
interpreter (``child.py``) that imports ``zimrev`` from the checkout's
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of one traced
round, and the tracing overhead against the same round untraced.  Lines
before it describe the run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import per_layer  # noqa: E402
from workloads import WHY, WORKLOADS, CORPUS  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
SCRATCH = os.path.join(".bench_build", "perfbench")


class BenchError(RuntimeError):
    pass


def spawn(root, config):
    config = dict(config, root=root, scratch=os.path.join(root, SCRATCH), t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(config)],
        cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child ({config['mode']}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def tally(records):
    failed = [r for r in records if r["error"] or r.get("refuted")]
    errors, strata = {}, {}
    for r in records:
        strata[r["stratum"]] = strata.get(r["stratum"], 0) + 1
        if r["error"]:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    refuted = [{"item": r["key"], "why": r["refuted"]} for r in records if r.get("refuted")]
    return failed, errors, strata, refuted


def tail(times):
    """Per-item time at the highest percentile with at least ten items
    beyond it (the slowest item when there are fewer than eleven)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds):
    def setup():
        return spawn(os.getcwd(), {"mode": "setup", "workload": workload, "seed": seed,
                                   "trace": False, "rounds": None, "seconds": seconds})["setup_s"]

    # half the set-ups before the measuring child and half after, so that
    # their median spans the run rather than one phase of the host's load
    setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
    child = spawn(os.getcwd(), {"mode": "run", "workload": workload, "seed": seed, "trace": False,
                                "sample": True, "rounds": None, "seconds": seconds})
    setups += [setup() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    records = child["records"]
    setups.append(child["setup_s"])
    attempted = len(records)
    failed, errors, strata, refuted = tally(records)
    # corpus_cli lines the pool workers did not time are reported as a problem
    timed = [r for r in records if r["ms"] is not None]
    if not timed:
        raise BenchError("no item was timed")
    refs = [r["ref"] for r in timed]
    times = [r["ms"] for r in timed]
    tail_ref, tail_pct = tail(refs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_kref": (1000.0 * attempted / child["elapsed_ref"], "1/kref"),
        "item_p50_ref": (statistics.median(refs), "ref"),
        "item_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (child["rss_mb"], "MB"),
        "decided_ratio": (sum(1 for r in records if r["decided"]) / attempted, "ratio"),
        "ok_ratio": ((attempted - len(failed)) / attempted, "ratio"),
    }
    record = {
        "rounds": child["rounds"],
        "timed_s": child["elapsed_s"],
        "items": attempted,
        "items_per_stratum": strata,
        "wall": {"items_per_s": attempted / child["elapsed_s"], "item_p50_ms": statistics.median(times),
                 "item_tail_ms": tail(times)[0]},
        "kernel_ms": child["kernel_ms"],
        "kernel_samples": child["kernel_samples"],
        "item_tail_percentile": round(tail_pct, 2),
        "item_tail_beyond": min(10, attempted - 1),
        "failed_ratio": len(failed) / attempted,
        "errors": errors,
        "refuted": refuted[:20],
        "problems": child["problems"],
        "digest": child["digest"],
        "digest_items": child["digest_items"],
        "setup_samples_s": setups,
        "items_file": child["items_file"],
        "zimrev": os.path.relpath(child["zimrev"], os.getcwd()),
    }
    correct = not refuted and not child["problems"]
    return metrics, record, correct, attempted, len(failed)


def traced(workload, seed):
    """One round untraced, then the same round traced; for corpus_cli also
    one untraced round at --jobs 2 for the pool speed-up."""
    base = {"mode": "run", "workload": workload, "seed": seed, "rounds": 1, "seconds": None}
    extra = {}
    options = {}
    if workload == "corpus_cli":
        pooled = spawn(os.getcwd(), dict(base, trace=False))
        options = {"options": {"jobs": 1}}
    plain = spawn(os.getcwd(), dict(base, trace=False, **options))
    child = spawn(os.getcwd(), dict(base, trace=True, **options))
    if workload == "corpus_cli":
        extra["pool_speedup"] = plain["elapsed_s"] / pooled["elapsed_s"]
    metrics = per_layer(child["layers"], child["elapsed_s"], extra)
    metrics["trace.wall_s"] = (child["elapsed_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["elapsed_s"], "s")
    metrics["trace.overhead"] = (100.0 * (child["elapsed_s"] / plain["elapsed_s"] - 1.0), "%")
    records = child["records"]
    attempted = len(records)
    failed, errors, strata, refuted = tally(records)
    record = {
        "items": attempted,
        "items_per_stratum": strata,
        "errors": errors,
        "refuted": refuted[:20],
        "problems": child["problems"],
        "digest": child["digest"],
        "untraced_digest": plain["digest"],
        "spans_file": child["spans_file"],
        "span_count": child["span_count"],
    }
    correct = not refuted and not child["problems"] and child["digest"] == plain["digest"]
    return metrics, record, correct, attempted, len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in (os.path.join("src", "zimrev", "__init__.py"), CORPUS):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the root of a zimrev checkout", file=sys.stderr)
            return 2
    os.makedirs(os.path.join(root, SCRATCH), exist_ok=True)

    try:
        if args.trace:
            metrics, record, correct, attempted, failed = traced(args.workload, args.seed)
        else:
            metrics, record, correct, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    header = {"workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}
    print(json.dumps({"run": dict(header, **record)}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
