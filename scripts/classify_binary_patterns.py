#!/usr/bin/env python3
"""Classify all binary patterns with reversal up to a given length.

Prints one line per pattern with the verdict, the certificate kind, and the
(m, n) variable counts; ends with a summary.  The unavoidable ones are
exactly the patterns equivalent to a factor of x y x or x y x~.

    python scripts/classify_binary_patterns.py [max_len]
"""

import itertools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zimrev.decide import decide
from zimrev.formulas import FormulaR, PatternR, Sym


def main() -> int:
    max_len = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    syms = [Sym("x", False), Sym("x", True), Sym("y", False), Sym("y", True)]
    summary = Counter()
    for length in range(1, max_len + 1):
        for combo in itertools.product(syms, repeat=length):
            phi = FormulaR([PatternR(combo)])
            verdict = decide(phi)
            cert = verdict.certificate.to_json() if verdict.certificate else {}
            kind = cert.get("kind", "-")
            if kind == "lemma":
                kind = f"lemma:{cert['name']}"
            summary[verdict.status] += 1
            print(f"{str(phi):16s} m={verdict.m} n={verdict.n} {verdict.status:12s} {kind}")
    print()
    for status, count in sorted(summary.items()):
        print(f"{status}: {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
