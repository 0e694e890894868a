#!/usr/bin/env python3
"""Probe the two-way-deletion conjecture on small sharp-block formulas.

Builds formulas from a slot text where 'x#' marks a block realized in both
orientations (so 'x# y1 x#' expands to four fragments), decides each, and
reports whether deleting all two-way variables leaves an unavoidable
residual.  A residual that is avoidable while the formula is unavoidable
would refute the conjecture.

    python scripts/probe_conjectures.py
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zimrev.decide import conjecture2_probe, decide
from zimrev.formulas import FormulaR, PatternR, Sym

PROBES = [
    "x# y1 x#",
    "x# y1 x# y2 x#",
    "x# y1 x# y2 x# y1 x#",
    "x# y1 x# y2 x# y3 x# y1 x# y2 x#",
    "x# y1 y2 x#",
    "x# y1 x# y1 x#",
    "x# x# y1 x#",
]


def sharp_formula(slot_text: str) -> FormulaR:
    slots = slot_text.split()
    sharp_positions = [i for i, s in enumerate(slots) if s.endswith("#")]
    base = [Sym(s.rstrip("#")) for s in slots]
    fragments = []
    for bits in itertools.product((False, True), repeat=len(sharp_positions)):
        syms = list(base)
        for i, mirrored in zip(sharp_positions, bits):
            if mirrored:
                syms[i] = syms[i].toggled()
        fragments.append(PatternR(tuple(syms)))
    return FormulaR(fragments)


def main() -> int:
    refuted = False
    for text in PROBES:
        phi = sharp_formula(text)
        verdict = decide(phi)
        probe = conjecture2_probe(phi, verdict.status)
        consistent = not (
            verdict.status == "unavoidable" and probe.residual_status == "avoidable"
        )
        refuted = refuted or not consistent
        print(
            f"{text:40s} formula={verdict.status:12s} "
            f"residual [{probe.residual}] = {probe.residual_status:12s} "
            f"{'ok' if consistent else 'REFUTES CONJECTURE'}"
        )
    print()
    print("no counterexample found" if not refuted else "counterexample found!")
    return 1 if refuted else 0


if __name__ == "__main__":
    raise SystemExit(main())
