#!/usr/bin/env python3
"""The pinned random sample of 400 formulas with reversal.

Draws from ``random.Random(1)``, in this order: k = randint(3, 7) variables
v0..v(k-1), randint(1, 3) fragments of randint(2, 8) symbols each, and per
symbol v{randrange(k)}, mirrored when random() < 0.4.  For each formula it
prints the two-way and one-way counts (m, n), the outcome of the division
of the normalized formula into Z(m, n) at 10^5 steps (found, absent or
budget), and whether the normalized formula's flattening is reducible; it
ends with a summary.  A found division with an irreducible flattening would
contradict the flat lemma, so that count must be 0.

    python scripts/random_sample.py
"""

import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zimrev import SearchBudgetExceeded, divides_zimin, flatten, is_reducible, normalize, parse
from zimrev.formulas import ONE_WAY, TWO_WAY, classify_vars

SAMPLE_SIZE = 400
DIVISION_STEPS = 100_000


def sample(rng: random.Random):
    for _ in range(SAMPLE_SIZE):
        k = rng.randint(3, 7)
        fragments = []
        for _ in range(rng.randint(1, 3)):
            symbols = []
            for _ in range(rng.randint(2, 8)):
                name = f"v{rng.randrange(k)}"
                symbols.append(name + "~" if rng.random() < 0.4 else name)
            fragments.append(" ".join(symbols))
        yield parse(" . ".join(fragments))


def main() -> int:
    summary = Counter()
    for phi in sample(random.Random(1)):
        phi_n = normalize(phi)
        tags = list(classify_vars(phi_n).values())
        m, n = tags.count(TWO_WAY), tags.count(ONE_WAY)
        try:
            division = "absent" if divides_zimin(phi_n, m, n, DIVISION_STEPS) is None else "found"
        except SearchBudgetExceeded:
            division = "budget"
        flat = "reducible" if is_reducible(flatten(phi_n)) is not None else "irreducible"
        summary[division] += 1
        if flat == "irreducible":
            summary["irreducible flattening"] += 1
            summary[f"{division} with irreducible flattening"] += 1
        print(f"{str(phi):60s} m={m} n={n} {division:6s} {flat}")
    print()
    for key in ("found", "absent", "budget", "irreducible flattening", "found with irreducible flattening"):
        print(f"{key}: {summary[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
