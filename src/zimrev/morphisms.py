"""Bounded backtracking search for occurrences and divisions.

Two kinds of search live here: reversal-respecting morphisms from a formula
into a concrete word (``occurs``), and d-reversal-respecting morphisms from a
formula into another formula (``divides``).  Both use the same strategy:
variables are ordered by first occurrence in the longest fragment, candidate
images are enumerated by increasing length (ties broken by canonical key),
and after each assignment every fully-instantiated fragment prefix must still
be a factor of the target.  Candidates are drawn from the viable occurrence
positions of that prefix, which skips exactly the candidates the prefix test
would reject, so the first witness found is the first in the documented
enumeration order.

The occurrence search also looks ahead of the frontier: the symbols right
after the new variable's stamping occurrence that are already bound (or are
that variable again) have known images, so a candidate is viable only if the
text continues with them at one of its positions.  A candidate that is not
viable is exactly one the fragment's own prefix test would reject; it skips
the refresh and the recursion but still costs one step, so the budget runs
out at the same step as without the lookahead.

Image lengths are capped at the sound bound (|w| for occurrences, the longest
fragment of the target for divisions): a completed search at that bound is a
proof of absence.  Exceeding the step budget raises, which keeps "ran out of
budget" distinct from "definitely absent".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .formulas import FormulaR, PatternR, Sym, d_reverse_syms
from .words import Letter, Word, is_factor, letter_key, reverse

DEFAULT_MAX_IMAGE_LEN = 16
DEFAULT_MAX_STEPS = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """The step budget ran out before the search space was exhausted."""

    def __init__(self, steps: int):
        super().__init__(f"search budget exceeded after {steps} steps")
        self.steps = steps


@dataclass(frozen=True)
class SearchBudget:
    max_image_len: int = DEFAULT_MAX_IMAGE_LEN
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.max_image_len < 1 or self.max_steps < 1:
            raise ValueError("budget fields must be >= 1")


@dataclass
class ConcreteMorphism:
    """Variable -> nonempty word; mirrored symbols receive the reversed image."""

    assignment: Dict[str, Word]

    def __post_init__(self):
        for var, img in self.assignment.items():
            if len(img) == 0:
                raise ValueError(f"morphism must be non-erasing, {var} has empty image")

    def to_json(self) -> dict:
        from .words import word_to_json

        return {var: word_to_json(img) for var, img in sorted(self.assignment.items())}


@dataclass
class SymbolicMorphism:
    """Variable -> nonempty pattern; mirrored symbols receive the d-reversal."""

    assignment: Dict[str, PatternR]

    def to_json(self) -> dict:
        return {var: str(img) for var, img in sorted(self.assignment.items())}


def apply_concrete(h, p: PatternR) -> Word:
    """Image of a pattern under a reversal-respecting extension of h."""
    assignment = h.assignment if isinstance(h, ConcreteMorphism) else h
    parts: List[Letter] = []
    for s in p:
        img = assignment.get(s.var)
        if img is None:
            raise ValueError(f"variable {s.var} is not assigned")
        parts.extend(img.letters[::-1] if s.mirrored else img.letters)
    return Word(tuple(parts))


def apply_symbolic(h, p: PatternR) -> PatternR:
    """Image of a pattern under a d-reversal-respecting extension of h."""
    assignment = h.assignment if isinstance(h, SymbolicMorphism) else h
    parts: List[Sym] = []
    for s in p:
        img = assignment.get(s.var)
        if img is None:
            raise ValueError(f"variable {s.var} is not assigned")
        parts.extend(d_reverse_syms(img.syms) if s.mirrored else img.syms)
    return PatternR(tuple(parts))


def compose(f: ConcreteMorphism, h: SymbolicMorphism) -> ConcreteMorphism:
    """f after h: maps x to the f-image of h(x); respects reversal."""
    return ConcreteMorphism({var: apply_concrete(f, img) for var, img in h.assignment.items()})


def pattern_is_factor_of_formula(p: PatternR, psi: FormulaR) -> bool:
    """True iff p is a contiguous subsequence of some fragment of psi."""
    target = p.syms
    ln = len(target)
    for frag in psi:
        syms = frag.syms
        for i in range(len(syms) - ln + 1):
            if syms[i : i + ln] == target:
                return True
    return False


# ---------------------------------------------------------------------------
# Shared search scaffolding.


def _variable_order(frags: Sequence[Tuple[Sym, ...]]):
    """Stamp variables by first occurrence, longest fragment first.

    Returns (order, frontier) where frontier[v] = (fragment index, offset) of
    the stamping occurrence; when v comes up for assignment every symbol
    before that offset is already assigned.
    """
    order: List[str] = []
    frontier: Dict[str, Tuple[int, int]] = {}
    for gi, frag in enumerate(frags):
        for off, sym in enumerate(frag):
            if sym.var not in frontier:
                frontier[sym.var] = (gi, off)
                order.append(sym.var)
    return order, frontier


def _sorted_frags(phi: FormulaR) -> List[Tuple[Sym, ...]]:
    return [f.syms for f in sorted(phi.fragments, key=lambda f: (-len(f), f.key()))]


# ---------------------------------------------------------------------------
# Concrete occurrence search.  The word is interned into a string whose
# character order follows the letter order, so substring slices compare and
# sort at C speed while preserving the documented candidate order.


def _intern(w: Word):
    distinct = sorted(set(w.letters), key=letter_key)
    table = {a: chr(0x100 + i) for i, a in enumerate(distinct)}
    text = "".join(table[a] for a in w.letters)
    back = [a for a in distinct]
    return text, back


def _extern(text: str, back: List[Letter]) -> Word:
    return Word(tuple(back[ord(c) - 0x100] for c in text))


class _ConcreteSearch:
    def __init__(
        self,
        frags: List[Tuple[Sym, ...]],
        text: str,
        cap: int,
        max_steps: int,
        fixed: Optional[Dict[str, str]] = None,
        common_image: bool = False,
    ):
        self.frags = frags
        self.text = text
        self.n = len(text)
        self.cap = min(cap, self.n) if self.n else 0
        self.max_steps = max_steps
        self.common_image = common_image
        self.fixed = fixed or {}
        self.order, self.frontier = _variable_order(frags)
        self.steps = 0

    def run(self) -> Optional[Dict[str, str]]:
        if not self.frags:
            return {}
        state = []
        for frag in self.frags:
            if len(frag) > self.n:
                return None
            state.append((0, "", tuple(range(self.n - len(frag) + 1))))
        assignment: Dict[str, str] = {}
        if self.fixed:
            assignment.update(self.fixed)
            state = self._refresh(assignment, state)
            if state is None:
                return None
        return self._extend(assignment, state, 0)

    def _refresh(self, assignment, state):
        new_state = []
        text = self.text
        for (count, img, positions), frag in zip(state, self.frags):
            new_count = count
            parts = []
            while new_count < len(frag) and frag[new_count].var in assignment:
                piece = assignment[frag[new_count].var]
                parts.append(piece[::-1] if frag[new_count].mirrored else piece)
                new_count += 1
            if new_count == count:
                new_state.append((count, img, positions))
                continue
            seg = "".join(parts)
            new_img = img + seg
            old_len, new_len = len(img), len(new_img)
            tail_min = len(frag) - new_count
            kept = tuple(
                p
                for p in positions
                if p + new_len + tail_min <= self.n and text[p + old_len : p + new_len] == seg
            )
            if not kept:
                return None
            new_state.append((new_count, new_img, kept))
        if self.common_image:
            complete = {img for (count, img, _), frag in zip(new_state, self.frags) if count == len(frag)}
            if len(complete) > 1:
                return None
        return new_state

    def _extend(self, assignment, state, idx):
        if idx == len(self.order):
            return dict(assignment)
        var = self.order[idx]
        if var in assignment:
            return self._extend(assignment, state, idx + 1)
        gi, off = self.frontier[var]
        frag = self.frags[gi]
        _, img, positions = state[gi]
        start_off = len(img)
        mirrored = frag[off].mirrored
        tail_min = len(frag) - off - 1
        text = self.text
        n = self.n
        # lookahead: images of the symbols right after the frontier that are
        # bound or are var itself; None stands for var's image, reversed
        # when the flag is set
        ahead = []
        k = off + 1
        while k < len(frag) and (frag[k].var == var or frag[k].var in assignment):
            s = frag[k]
            if s.var == var:
                ahead.append((None, s.mirrored))
            else:
                piece = assignment[s.var]
                ahead.append((piece[::-1] if s.mirrored else piece, False))
            k += 1
        rest_min = len(frag) - k
        # candidate -> viable: some position continues with the lookahead images
        cands: Dict[str, bool] = {}
        for p in positions:
            start = p + start_off
            limit = min(self.cap, n - start - tail_min)
            for ln in range(1, limit + 1):
                end = start + ln
                seg = text[start:end]
                cand = seg[::-1] if mirrored else seg
                if cands.get(cand):
                    continue
                for piece, rev in ahead:
                    if piece is None:
                        piece = cand[::-1] if rev else cand
                    if not text.startswith(piece, end):
                        cands[cand] = False
                        break
                    end += len(piece)
                else:
                    cands[cand] = end + rest_min <= n
        for cand in sorted(cands, key=lambda s: (len(s), s)):
            self.steps += 1
            if self.steps > self.max_steps:
                raise SearchBudgetExceeded(self.steps)
            if not cands[cand]:
                continue
            assignment[var] = cand
            new_state = self._refresh(assignment, state)
            if new_state is not None:
                result = self._extend(assignment, new_state, idx + 1)
                if result is not None:
                    return result
            del assignment[var]
        return None


def _run_concrete(
    phi: FormulaR,
    w: Word,
    budget: Optional[SearchBudget],
    common_image: bool,
    fixed: Optional[Dict[str, Word]] = None,
) -> Optional[ConcreteMorphism]:
    budget = budget or SearchBudget()
    if not phi:
        return ConcreteMorphism({})
    text, back = _intern(w)
    table = {a: chr(0x100 + i) for i, a in enumerate(back)}
    fixed_strs = None
    if fixed:
        fixed_strs = {}
        for var, img in fixed.items():
            if any(a not in table for a in img.letters):
                return None
            fixed_strs[var] = "".join(table[a] for a in img.letters)
    search = _ConcreteSearch(
        _sorted_frags(phi),
        text,
        cap=budget.max_image_len,
        max_steps=budget.max_steps,
        fixed=fixed_strs,
        common_image=common_image,
    )
    raw = search.run()
    if raw is None:
        return None
    morphism = ConcreteMorphism({var: _extern(s, back) for var, s in raw.items()})
    _verify_concrete(morphism, phi, w, common_image)
    return morphism


def _verify_concrete(h: ConcreteMorphism, phi: FormulaR, w: Word, common_image: bool):
    images = [apply_concrete(h, frag) for frag in phi]
    for frag, img in zip(phi, images):
        if not is_factor(img, w):
            raise AssertionError(f"search returned a non-witness: {frag} -> {img}")
    if common_image and len({img.letters for img in images}) > 1:
        raise AssertionError("search returned unequal fragment images")


def occurs(
    phi: FormulaR, w: Word, budget: Optional[SearchBudget] = None
) -> Optional[ConcreteMorphism]:
    """Find a reversal-respecting morphism sending every fragment into w.

    Returns None when no morphism with images up to the effective cap exists;
    with ``max_image_len >= len(w)`` that is a proof of non-occurrence.
    """
    return _run_concrete(phi, w, budget, common_image=False)


def occurs_common_image(
    phi: FormulaR, w: Word, budget: Optional[SearchBudget] = None
) -> Optional[ConcreteMorphism]:
    """Like occurs, but every fragment must map to the same factor of w."""
    return _run_concrete(phi, w, budget, common_image=True)


# ---------------------------------------------------------------------------
# Symbolic division search, generic over the target: an explicit formula or
# an implicit Zimin-with-reversal slot template (see zimin module).


class FormulaTarget:
    """Division target backed by an explicit fragment list."""

    def __init__(self, psi: FormulaR):
        self.frags = [f.syms for f in psi.fragments]
        self.max_fragment_len = max((len(f) for f in self.frags), default=0)

    def initial_positions(self, min_len: int):
        return [
            (j, s)
            for j, frag in enumerate(self.frags)
            for s in range(len(frag) - min_len + 1)
        ]

    def match(self, pos, offset: int, segment: Tuple[Sym, ...]) -> bool:
        j, s = pos
        frag = self.frags[j]
        start = s + offset
        end = start + len(segment)
        return end <= len(frag) and frag[start:end] == segment

    def available(self, pos, offset: int) -> int:
        j, s = pos
        return len(self.frags[j]) - s - offset

    def continuations(self, pos, offset: int, max_len: int) -> Iterable[Tuple[Sym, ...]]:
        j, s = pos
        frag = self.frags[j]
        start = s + offset
        limit = min(max_len, len(frag) - start)
        for ln in range(1, limit + 1):
            yield frag[start : start + ln]

    def contains(self, syms: Tuple[Sym, ...]) -> bool:
        ln = len(syms)
        for frag in self.frags:
            for i in range(len(frag) - ln + 1):
                if frag[i : i + ln] == syms:
                    return True
        return False


class _SymbolicSearch:
    def __init__(self, frags, target, cap, max_steps, fixed=None):
        self.frags = frags
        self.target = target
        self.cap = min(cap, target.max_fragment_len)
        self.max_steps = max_steps
        self.fixed = fixed or {}
        self.order, self.frontier = _variable_order(frags)
        self.steps = 0

    def run(self) -> Optional[Dict[str, Tuple[Sym, ...]]]:
        if not self.frags:
            return {}
        state = []
        for frag in self.frags:
            positions = tuple(self.target.initial_positions(len(frag)))
            if not positions:
                return None
            state.append((0, (), positions))
        assignment: Dict[str, Tuple[Sym, ...]] = {}
        if self.fixed:
            assignment.update(self.fixed)
            state = self._refresh(assignment, state)
            if state is None:
                return None
        return self._extend(assignment, state, 0)

    def _refresh(self, assignment, state):
        new_state = []
        target = self.target
        for (count, img, positions), frag in zip(state, self.frags):
            new_count = count
            parts: List[Sym] = []
            while new_count < len(frag) and frag[new_count].var in assignment:
                piece = assignment[frag[new_count].var]
                parts.extend(d_reverse_syms(piece) if frag[new_count].mirrored else piece)
                new_count += 1
            if new_count == count:
                new_state.append((count, img, positions))
                continue
            seg = tuple(parts)
            new_img = img + seg
            old_len = len(img)
            tail_min = len(frag) - new_count
            kept = tuple(
                p
                for p in positions
                if target.available(p, 0) >= len(new_img) + tail_min
                and target.match(p, old_len, seg)
            )
            if not kept:
                return None
            new_state.append((new_count, new_img, kept))
        return new_state

    def _extend(self, assignment, state, idx):
        if idx == len(self.order):
            return dict(assignment)
        var = self.order[idx]
        if var in assignment:
            return self._extend(assignment, state, idx + 1)
        gi, off = self.frontier[var]
        frag = self.frags[gi]
        _, img, positions = state[gi]
        start_off = len(img)
        mirrored = frag[off].mirrored
        tail_min = len(frag) - off - 1
        cands = set()
        for p in positions:
            limit = min(self.cap, self.target.available(p, start_off) - tail_min)
            if limit < 1:
                continue
            for seg in self.target.continuations(p, start_off, limit):
                cands.add(d_reverse_syms(seg) if mirrored else seg)
        key = lambda syms: (len(syms), tuple(s.key() for s in syms))
        for cand in sorted(cands, key=key):
            self.steps += 1
            if self.steps > self.max_steps:
                raise SearchBudgetExceeded(self.steps)
            assignment[var] = cand
            new_state = self._refresh(assignment, state)
            if new_state is not None:
                result = self._extend(assignment, new_state, idx + 1)
                if result is not None:
                    return result
            del assignment[var]
        return None


def _run_symbolic(
    phi: FormulaR,
    target,
    budget: Optional[SearchBudget],
    fixed: Optional[Dict[str, PatternR]] = None,
) -> Optional[SymbolicMorphism]:
    budget = budget or SearchBudget()
    if not phi:
        return SymbolicMorphism({})
    fixed_syms = {var: img.syms for var, img in fixed.items()} if fixed else None
    search = _SymbolicSearch(
        _sorted_frags(phi),
        target,
        cap=budget.max_image_len,
        max_steps=budget.max_steps,
        fixed=fixed_syms,
    )
    raw = search.run()
    if raw is None:
        return None
    morphism = SymbolicMorphism({var: PatternR(syms) for var, syms in raw.items()})
    _verify_symbolic(morphism, phi, target)
    return morphism


def _verify_symbolic(h: SymbolicMorphism, phi: FormulaR, target):
    for frag in phi:
        img = apply_symbolic(h, frag)
        if not target.contains(img.syms):
            raise AssertionError(f"search returned a non-witness: {frag} -> {img}")


def divides(
    phi: FormulaR,
    psi: FormulaR,
    budget: Optional[SearchBudget] = None,
    fixed: Optional[Dict[str, PatternR]] = None,
) -> Optional[SymbolicMorphism]:
    """Find a non-erasing d-reversal-respecting morphism mapping every
    fragment of phi to a factor of psi.

    With ``max_image_len`` at least the longest fragment of psi, None is a
    proof of non-division (longer images cannot be factors).
    """
    return _run_symbolic(phi, FormulaTarget(psi), budget, fixed=fixed)


def equivalent(phi: FormulaR, psi: FormulaR, budget: Optional[SearchBudget] = None) -> bool:
    """True iff phi and psi divide each other."""
    return divides(phi, psi, budget) is not None and divides(psi, phi, budget) is not None
