#!/usr/bin/env python3
"""Regenerate the binary-pattern regression corpus.

Enumerates all 340 patterns with reversal over {x, y} of length <= 4,
decides each, tags the expected classification (unavoidable iff equivalent
to a factor of x y x or x y x~), and writes JSONL entries for the corpus
runner.  Run from the repository root:

    python scripts/make_binary_corpus.py [out.jsonl]
"""

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zimrev.decide import decide
from zimrev.formulas import FormulaR, PatternR, Sym
from zimrev.morphisms import SearchBudget, equivalent

FACTOR_TARGETS = ["x", "y", "x y", "y x", "x y x", "x~", "y x~", "x y x~"]


def binary_patterns():
    syms = [Sym("x", False), Sym("x", True), Sym("y", False), Sym("y", True)]
    for length in range(1, 5):
        for combo in itertools.product(syms, repeat=length):
            yield FormulaR([PatternR(combo)])


def main() -> int:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("tests/binary_patterns.jsonl")
    from zimrev.formulas import parse

    targets = [parse(t) for t in FACTOR_TARGETS]
    budget = SearchBudget(16, 10**7)
    lines = []
    counts = {}
    for phi in binary_patterns():
        verdict = decide(phi, budget.max_steps)
        counts[verdict.status] = counts.get(verdict.status, 0) + 1
        is_factor_equivalent = any(equivalent(phi, t, budget) for t in targets)
        if (verdict.status == "unavoidable") != is_factor_equivalent:
            print(f"classification mismatch at {phi}", file=sys.stderr)
            return 1
        tags = ["binary", f"len{len(phi[0])}"]
        if is_factor_equivalent:
            tags.append("zimin-factor")
        lines.append(
            json.dumps(
                {"formula": str(phi), "expected_status": verdict.status, "tags": tags},
                sort_keys=True,
            )
        )
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} entries to {out_path}; status counts: {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
