"""Zimin formulas with reversal Z(m, n).

Z(m, 0) is the block x1# ... xm# (# = both orientations of the variable) and
Z(m, n) = Z(m, n-1) y_n Z(m, n-1).  The classic Zimin word Z_n is Z(0, n),
the single fragment y1 y2 y1 y3 ... over y1..yn.  The fragment set explodes
as (2^m)^(2^n), so the primary representation is an implicit slot template: a
sequence of slots where an X slot matches either orientation of its variable
and a y slot matches exactly its one-way variable.  Explicit enumeration
exists for cross-validation and tiny cases only.

Division into Z(m, n) runs the shared division search (morphisms module) on
the template interned once per (m, n) as text, with the two orientations of
every X variable merged into one character; candidates that differ only in
X marks then form one orientation class, explored and charged once.  The
division always runs at the sound bound, the fragment length, and
TEMPLATE_GUARD covers its one caller, decide.  The classic decision
(``reduce`` and ``lemma_flat``) decides by reduction, not division, but
refuses the same n, which bounds its free-set enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

from .formulas import EMPTY_FORMULA, FormulaR, PatternR, Sym
from .morphisms import DEFAULT_MAX_STEPS, SymbolicMorphism, _SymbolTarget, _run_symbolic

ENUMERATION_GUARD = 65536

# Nothing builds Z(m, n) past this fragment length.  The division search
# lists every factor of the template for its first variable, so its memory
# grows about with the cube of the length: measured on decide, Z(0, 10)
# (length 1023) took 539 MB, Z(8, 7) (1151) 1058 MB and Z(4, 8) (1279)
# 1537 MB.
TEMPLATE_GUARD = 1151

# Slots are ("x", i) for a two-way block position or ("y", j) for a one-way
# variable position; variables render as x1..xm / y1..yn.
Slot = Tuple[str, int]


def x_name(i: int) -> str:
    return f"x{i}"


def y_name(j: int) -> str:
    return f"y{j}"


@dataclass(frozen=True)
class ZiminStats:
    fragment_count: int
    fragment_length: int


def _fragment_length(m: int, n: int) -> int:
    """(m+1)*2^n - 1, refused over TEMPLATE_GUARD before anything is built."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if n > TEMPLATE_GUARD.bit_length():  # 2^n - 1 alone is over; 2^n may be huge
        raise ValueError(
            f"Z({m},{n}) has fragment length at least 2^{n} - 1, over the template guard {TEMPLATE_GUARD}"
        )
    length = (m + 1) * 2**n - 1
    if length > TEMPLATE_GUARD:
        raise ValueError(
            f"Z({m},{n}) has fragment length {length}, over the template guard {TEMPLATE_GUARD}"
        )
    return length


def stats(m: int, n: int) -> ZiminStats:
    """Closed forms: (2^m)^(2^n) fragments, each of length (m+1)*2^n - 1.
    Raises ValueError past TEMPLATE_GUARD without computing the count."""
    length = _fragment_length(m, n)
    return ZiminStats((2**m) ** (2**n), length)


def _build_slots(m: int, n: int) -> Tuple[Slot, ...]:
    block = tuple(("x", i) for i in range(1, m + 1))
    slots = block
    for j in range(1, n + 1):
        slots = slots + (("y", j),) + slots
    return slots


@dataclass(frozen=True)
class ZiminTemplate:
    """Implicit representation of Z(m, n) as a slot sequence."""

    m: int
    n: int
    slots: Tuple[Slot, ...]

    @property
    def length(self) -> int:
        return len(self.slots)

    def render(self) -> str:
        """Human form with X slots uppercase, e.g. "X1 y1 X1"."""
        return " ".join(f"X{i}" if kind == "x" else f"y{i}" for kind, i in self.slots)

    @cached_property
    def slot_names(self) -> Tuple[Tuple[str, bool], ...]:
        """Per slot, the variable it holds and whether it is one-way (a
        mirrored symbol does not match it)."""
        return tuple(
            (x_name(i), False) if kind == "x" else (y_name(i), True) for kind, i in self.slots
        )

    def window_matches(self, start: int, syms: Tuple[Sym, ...]) -> bool:
        names = self.slot_names
        for k, s in enumerate(syms, start):
            name, one_way = names[k]
            if s.var != name or (one_way and s.mirrored):
                return False
        return True


@lru_cache(maxsize=None)
def template(m: int, n: int) -> ZiminTemplate:
    _fragment_length(m, n)
    return ZiminTemplate(m, n, _build_slots(m, n))


def is_zimin_factor(u: PatternR, m: int, n: int) -> bool:
    """True iff u is a factor of some fragment of Z(m, n).

    Checked against the slot template: some window matches u position-wise.
    Foreign variables or mirrored y symbols simply fail to match (False, not
    an error).
    """
    tpl = template(m, n)
    ln = len(u)
    if ln > tpl.length:
        return False
    return any(tpl.window_matches(t, u) for t in range(tpl.length - ln + 1))


def enumerate_fragments(m: int, n: int) -> FormulaR:
    """The explicit fragment set; guarded against blow-up."""
    st = stats(m, n)
    if st.fragment_count > ENUMERATION_GUARD:
        raise ValueError(
            f"Z({m},{n}) has {st.fragment_count} fragments, over the guard {ENUMERATION_GUARD}"
        )
    tpl = template(m, n)
    if not tpl.slots:
        return EMPTY_FORMULA
    x_positions = [k for k, (kind, _) in enumerate(tpl.slots) if kind == "x"]
    base = [
        Sym(x_name(i), False) if kind == "x" else Sym(y_name(i), False)
        for kind, i in tpl.slots
    ]
    fragments: List[PatternR] = []
    for bits in itertools.product((False, True), repeat=len(x_positions)):
        syms = list(base)
        for k, mirrored in zip(x_positions, bits):
            if mirrored:
                syms[k] = syms[k].toggled()
        fragments.append(PatternR(syms))
    return FormulaR(fragments)


class TemplateTarget(_SymbolTarget):
    """Division target backed by the implicit slot template.

    The template is interned as one fragment with every X slot unmarked, and
    both orientations of each x_i are merged: an X slot matches either, so
    the search tests the blind text and explores each orientation class of
    candidates once.  A y slot matches only its unmarked variable, so a
    mirrored y never matches.
    """

    def __init__(self, tpl: ZiminTemplate):
        syms = tuple(Sym(x_name(i) if kind == "x" else y_name(i)) for kind, i in tpl.slots)
        super().__init__([syms], merged=[x_name(i) for i in range(1, tpl.m + 1)])


@lru_cache(maxsize=None)
def _template_target(m: int, n: int) -> TemplateTarget:
    return TemplateTarget(template(m, n))


def divides_zimin(
    phi: FormulaR, m: int, n: int, max_steps: int = DEFAULT_MAX_STEPS
) -> Optional[SymbolicMorphism]:
    """Search a division of phi into Z(m, n) against the implicit template.

    phi should be normalized (one-way variables unmirrored).  Image lengths
    are capped at the fragment length, the sound bound, so None is a proof
    of non-division; ``max_steps`` bounds the search.  Z_n is Z(0, n).
    Raises ValueError past TEMPLATE_GUARD before building anything.
    """
    target = _template_target(m, n)
    return _run_symbolic(phi, target, lambda u: is_zimin_factor(u, m, n), None, max_steps)


def sufficient_length(m: int, n: int, k: int) -> int:
    """Length from the pigeonhole argument: every word of this length over k
    letters admits an occurrence of Z(m, n) with a common fragment image.

    N(m, 0) = m and N(m, j) = k^L * (L + 1) + L with L = N(m, j-1).  Exact
    integers throughout; the bound is astronomically loose for n >= 2.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    length = m
    for _ in range(n):
        length = k**length * (length + 1) + length
    return length
