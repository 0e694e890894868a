"""Benchmark self-test: caches start cold in every measured process.

    python3 perfbench/selftest.py

Runs the same traced corpus_cli round (seed 0, --jobs 1) twice, each in a
fresh child interpreter, and checks that both import zimrev from the
checkout's src/ and report the same ``morphisms.occurs`` call count and
output digest.  A process-wide cache
that survived into the second run would cut its call count.
"""

from __future__ import annotations

import os
import sys

from run import SCRATCH, spawn


def main():
    config = {"mode": "run", "workload": "corpus_cli", "seed": 0, "trace": True,
              "rounds": 1, "seconds": None, "options": {"jobs": 1}}
    os.makedirs(os.path.join(os.getcwd(), SCRATCH), exist_ok=True)
    runs = [spawn(os.getcwd(), config) for _ in range(2)]
    calls = [run["layers"].get("morphisms.occurs", {}).get("calls", 0) for run in runs]
    digests = [run["digest"] for run in runs]
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    print(f"morphisms.occurs.calls {calls}, digests {digests}, zimrev {runs[0]['zimrev']}")
    ok = (
        calls[0] == calls[1]
        and calls[0] > 0
        and digests[0] == digests[1]
        and all(run["zimrev"].startswith(src + os.sep) for run in runs)
    )
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
