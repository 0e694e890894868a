"""One benchmark process: import zimrev from the checkout, build the
workload's inputs, run rounds of items, check the outputs, report as JSON.

Run by ``run.py`` in a fresh interpreter so that the program's process-wide
caches start cold, as they do for every CLI invocation.  The last line of
stdout is the report.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import speed


def _import_zimrev(root):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import zimrev

    location = os.path.realpath(zimrev.__file__)
    if not location.startswith(src + os.sep):
        raise SystemExit(f"zimrev imported from {location}, not from the checkout's src/")
    # importing the package pulls in every module the tracer hooks into
    return location


def _digest(workload, records, extra):
    if workload == "corpus_cli":
        text = extra[0]["stdout"]
    else:
        text = json.dumps([[r["key"], r["out"], r["error"]] for r in records], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(config):
    root = config["root"]
    location = _import_zimrev(root)
    from workloads import WORKLOADS

    name = config["workload"]
    workload = WORKLOADS[name](root, config["seed"], config["scratch"], **config.get("options", {}))
    setup_s = time.monotonic() - config["t0"]
    report = {"setup_s": setup_s, "zimrev": location}
    if config["mode"] == "setup":
        return report

    import zimrev.cli
    from zimrev.decide import decide
    from zimrev.oracle import search_avoiding_word

    sampling = config.get("sample", False)
    workload.sample = sampling
    if sampling and not workload.pooled:
        speed.start()

    tracer = None
    entry = {"corpus_cli": zimrev.cli.main, "oracle_xval": search_avoiding_word}.get(name, decide)
    if config["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        layer = {"corpus_cli": "cli.main", "oracle_xval": "oracle.search_avoiding_word"}
        entry = tracer.wrap(layer.get(name, "decide"), entry,
                            "report" if name == "oracle_xval" else None)

    records, extra, rounds = [], [], 0
    paused = speed.paused_s()
    started = time.perf_counter()
    while True:
        recs, info = workload.run_round(rounds, entry)
        if not records:
            first_round = recs
        records += recs
        extra.append(info)
        rounds += 1
        if config["rounds"] is not None:
            if rounds >= config["rounds"]:
                break
        elif time.perf_counter() - started >= config["seconds"]:
            break
    ended = time.perf_counter()
    elapsed = ended - started - (speed.paused_s() - paused)
    samples = []
    if speed.mine() is not None:
        speed.active.stop()
        samples = speed.active.samples()
    if tracer is not None:
        tracer.uninstall()
    if sampling:
        samples += [tuple(s) for info in extra for s in info.get("samples", ())]
        host = speed.Speed(samples)
        for rec in records:
            if rec["ms"] is not None:
                rec["ref"] = host.refs(rec["ms"] / 1000.0, rec["start"], rec["end"])
        report.update(
            elapsed_ref=host.refs(elapsed, started, ended),
            kernel_ms=1000.0 * host.kernel_s(started, ended),
            kernel_samples=len(samples),
        )

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    digest = _digest(name, first_round, extra)
    problems = workload.check(records, extra)
    items_file = os.path.join(config["scratch"], f"items_{name}_{config['seed']}_{os.getpid()}.json")
    with open(items_file, "w", encoding="utf-8") as handle:
        json.dump({"records": records, "kernel_samples": sorted(samples)}, handle)
    report.update(
        records=records,
        rounds=rounds,
        elapsed_s=elapsed,
        rss_mb=rss_kb / 1024.0,
        problems=problems,
        digest=digest,
        digest_items=len(first_round),
        items_file=os.path.relpath(items_file, root),
    )
    if tracer is not None:
        from tracing import layer_metrics

        path = os.path.join(config["scratch"], f"spans_{name}_{config['seed']}_{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "outcome", "nodes"],
                       "spans": tracer.spans}, handle)
        report["spans_file"] = os.path.relpath(path, root)
        report["span_count"] = len(tracer.spans)
        report["layers"] = layer_metrics(tracer.spans)
    return report


if __name__ == "__main__":
    cfg = json.loads(sys.argv[1])
    print(json.dumps(main(cfg)))
