"""Bounded backtracking search for occurrences and divisions.

Two kinds of search live here: reversal-respecting morphisms from a formula
into a concrete word (``occurs``), and d-reversal-respecting morphisms from a
formula into another formula (``divides``).  They are one engine,
``_Search``, with two candidate listings (``_extend``).  Variables are
ordered by first occurrence in the longest fragment, candidate images are
enumerated by increasing length (ties broken by canonical order), and after
each assignment every fully-instantiated fragment prefix must still be a
factor of the target (``_refresh``).  Candidates are drawn from the viable
occurrence positions of that prefix, which skips exactly the candidates the
prefix test would reject, so the first witness found is the first in the
documented enumeration order.  The engine also owns the step budget
(``_charge``) and the image store, which keeps each bound variable's image
and, if the variable occurs mirrored, its mirrored image (``_bind``).

Both kinds run over interned text, one character per letter or symbol,
ordered so that comparing same-length texts compares the items.  A word
(``WordTarget``) is one fragment, and a mirrored image is its reversal.  A
division target (an explicit formula, or the Zimin slot template) codes a
symbol as ``0x100 + 2*rank + mirrored``, rank being the variable name's
place in sorted order, and supplies a ``flip`` table for d-reversals and a
``blind`` translate table: the identity for an explicit formula, whose
fragments are joined by a separator no candidate contains, and for the
template the map that sends both orientations of an X variable to one
character, since an X slot matches either.  Only a target of several
fragments has ``ends``; with one, the room left is one comparison.

The occurrence listing (``_ConcreteSearch._extend``) looks ahead of the
frontier: the symbols right after the new variable's stamping occurrence
that are already bound (or are that variable again) have known images, so a
candidate is viable only if the text continues with them at one of its
positions.  The first of them must start where the candidate ends, so the
viable ends from each position are listed, not tried one length at a time.
When it is bound, ``str.find`` lists its occurrences.  When it is the new
variable again (``x x``, ``y y~ x``), the candidate is the first half of a
square at its start if the two marks agree, and of an even palindrome there
if they differ; the halves of each kind at a start are listed once per
search, by jumping from one occurrence of the growing first half (or its
reversal) to the next, and kept for every later visit to that start.  Only
with no lookahead is every length tried.  Any later lookahead images and the
room left for the rest of the fragment are checked at the listed ends.  A
candidate that is not viable is exactly one the fragment's own prefix test
would reject, and it is counted, not built, so listing the ends changes
which candidates are built but not the steps.  The candidates from a
position are the prefixes of the longest one, S_p (reversed for a mirrored
frontier, which changes no count), so over the sorted S_p there are
sum |S_p| - sum LCP(neighbours) of them.  The same sums clipped at L - 1
count the candidates shorter than L; a viable candidate of length L comes
after those and after the length-L candidates that sort before it.  Every
candidate still costs one step in (length, text) order: the rejected ones
between two viable candidates, and those after the last, are charged in one
go, and a charge that passes the budget raises with the first step over it.
The step count, the first witness and the step at which the budget runs out
are therefore those of walking every candidate one at a time.

The division listing (``_SymbolicSearch._extend``) lists every blind text
from every position.  Candidates with the same blind text form an
orientation class; no test of the target tells them apart, and their
d-reversals also differ only in X marks, so every member has the same
subtree with the same positions and outcome.  The class is explored once,
as one candidate: its first member in candidate order (the one with every X
unmarked), charged one step.  The first witness is that of exploring every
member, and the step count is that of the candidates actually tried.

Image lengths are capped at the sound bound (|w| for occurrences, the longest
fragment of the target for divisions) unless the budget sets a lower cap: a
completed search at that bound is a proof of absence.  Exceeding the step
budget raises, which keeps "ran out of budget" distinct from "definitely
absent".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .formulas import FormulaR, PatternR, Sym, d_reverse
from .words import Letter, Word, is_factor, letter_key, word_to_json

DEFAULT_MAX_STEPS = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """The step budget ran out before the search space was exhausted."""

    def __init__(self, steps: int):
        super().__init__(f"search budget exceeded after {steps} steps")
        self.steps = steps


@dataclass(frozen=True)
class SearchBudget:
    """An image length cap and a step budget.  Without a cap a search runs
    at its sound bound, where finding nothing is a proof of absence."""

    max_image_len: Optional[int] = None
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if (self.max_image_len is not None and self.max_image_len < 1) or self.max_steps < 1:
            raise ValueError("budget fields must be >= 1")


def _capped(cap: Optional[int], bound: int) -> int:
    """The image length cap of a search whose sound bound is ``bound``."""
    return bound if cap is None else min(cap, bound)


@dataclass
class ConcreteMorphism:
    """Variable -> nonempty word; mirrored symbols receive the reversed image."""

    assignment: Dict[str, Word]

    def __post_init__(self):
        for var, img in self.assignment.items():
            if len(img) == 0:
                raise ValueError(f"morphism must be non-erasing, {var} has empty image")

    def to_json(self) -> dict:
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
        parts.extend(d_reverse(img) if s.mirrored else img)
    return PatternR(parts)


def compose(f: ConcreteMorphism, h: SymbolicMorphism) -> ConcreteMorphism:
    """f after h: maps x to the f-image of h(x); respects reversal."""
    return ConcreteMorphism({var: apply_concrete(f, img) for var, img in h.assignment.items()})


def pattern_is_factor_of_formula(p: PatternR, psi: FormulaR) -> bool:
    """True iff p is a contiguous subsequence of some fragment of psi."""
    ln = len(p)
    for frag in psi:
        for i in range(len(frag) - ln + 1):
            if frag[i : i + ln] == p:
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


def _sorted_frags(phi: FormulaR) -> List[PatternR]:
    """Longest fragment first; phi's own order breaks ties (a stable sort)."""
    return sorted(phi, key=len, reverse=True)


def _common_prefix(a: str, b: str) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _by_length(text: str):
    return len(text), text


# ---------------------------------------------------------------------------
# Targets, interned as text whose character order follows the item order,
# so substring slices compare and sort at C speed in the documented
# candidate order.

_SEPARATOR = "."  # joins target fragments; no code is below 0x100


class _InternedTarget:
    """A target interned as text, one character per letter or symbol.

    ``codes`` maps an item to its character and ``back`` a character to its
    item; ``blind`` is a translate table applied to every interned text.
    """

    blind: Dict[int, str] = {}

    def intern(self, items: Iterable) -> str:
        codes = self.codes
        return "".join([codes[a] for a in items]).translate(self.blind)

    def extern(self, text: str) -> tuple:
        back = self.back
        return tuple(back[c] for c in text)


class WordTarget(_InternedTarget):
    """An occurrence target: a word, one character per letter in letter
    order.  A word is one fragment, and a mirrored image is the plain
    reversal of the image, so the occurrence search needs no ``ends`` and no
    ``flip`` table."""

    def __init__(self, w: Word):
        letters = sorted(set(w.letters), key=letter_key)
        self.codes = {a: chr(0x100 + i) for i, a in enumerate(letters)}
        self.back = {c: a for a, c in self.codes.items()}
        self.text = self.intern(w.letters)


class _SymbolTarget(_InternedTarget):
    """A division target interned as text, one character per symbol.

    A symbol's code is ``chr(0x100 + 2*rank + mirrored)``, where ``rank`` is
    the variable name's position in sorted order, so same-length texts
    compare like their symbol tuples.  ``blind`` sends the marked code of
    every variable in ``merged`` to its unmarked code: the target's factor
    test ignores those marks.  ``text`` is the blind text of the fragments
    joined by a separator.  With more than one fragment, ``ends[p]`` is the
    end of the fragment holding position p (p itself for a separator); with
    one, ``ends`` is None and every position's fragment ends with the text.
    """

    def __init__(self, frags: Sequence[Tuple[Sym, ...]], merged: Iterable[str] = ()):
        names = sorted({s.var for frag in frags for s in frag})
        merged = set(merged)
        self.codes: Dict[Sym, str] = {
            Sym(name, mirrored): chr(0x100 + 2 * rank + mirrored)
            for rank, name in enumerate(names)
            for mirrored in (False, True)
        }
        self.back = {c: s for s, c in self.codes.items()}
        self.blind = {
            ord(c): self.codes[Sym(s.var, False)]
            for s, c in self.codes.items()
            if s.mirrored and s.var in merged
        }
        # toggles each mark, then blinds: applied to a reversed blind text,
        # it gives the blind text of the d-reversal
        self.flip = {
            ord(c): self.codes[s.toggled()].translate(self.blind) for s, c in self.codes.items()
        }
        pieces = [self.intern(frag) for frag in frags]
        self.text = _SEPARATOR.join(pieces)
        ends: List[int] = []
        for piece in pieces:
            if ends:
                ends.append(len(ends))
            ends.extend([len(ends) + len(piece)] * len(piece))
        self.ends = ends if len(pieces) > 1 else None
        self.max_fragment_len = max(map(len, pieces), default=0)


class FormulaTarget(_SymbolTarget):
    """Division target backed by an explicit fragment list; every mark counts."""

    def __init__(self, psi: FormulaR):
        super().__init__(psi)


# ---------------------------------------------------------------------------
# The search engine.  Only the candidate listing (``_extend``) is per kind.


class _Search:
    """Prefix-extension search of the fragments over a target's text.

    ``images`` is the image store: per bound variable, its image and, if the
    variable occurs mirrored, its mirrored image, indexed by the mirror mark.
    A state holds per fragment the number of bound leading symbols, their
    joined image, and the positions where that image still starts with room
    for the rest of the fragment.  The defaults describe a word: one fragment
    (no ``ends``), mirrored images by plain reversal (no ``flip``).  With
    ``common_image`` set, every complete fragment must have the same image.
    ``ordering`` is ``_variable_order(frags)``, when the caller keeps it, and
    ``fixed`` maps variables to the texts they are bound to before the search
    starts (the oracle's completion search).
    """

    def __init__(
        self, frags, text: str, cap: int, max_steps: int, fixed=None, common_image=False, ordering=None
    ):
        self.frags = frags
        self.text = text
        self.ends: Optional[List[int]] = None
        self.flip: Optional[Dict[int, str]] = None
        self.n = len(text)
        self.cap = _capped(cap, self.n)
        self.max_steps = max_steps
        self.fixed = fixed
        self.common_image = common_image
        self.order, self.frontier = ordering or _variable_order(frags)
        self.steps = 0
        self.images: Dict[str, Tuple[str, Optional[str]]] = {}

    def _charge(self, steps: int):
        """Spend steps; past the budget, raise with the first step over it,
        as charging them one at a time would."""
        self.steps += steps
        if self.steps > self.max_steps:
            raise SearchBudgetExceeded(self.max_steps + 1)

    def _bind(self, var: str, img: str):
        if self.flip is None:  # a word: cheaper than asking whether var occurs mirrored
            rev = img[::-1]
        elif var in self.mirrored:  # set with flip
            rev = img[::-1].translate(self.flip)
        else:
            rev = None
        self.images[var] = (img, rev)

    def run(self) -> Optional[Dict[str, Tuple[str, Optional[str]]]]:
        """The image store of the first witness, or None if there is none."""
        if not self.frags:
            return {}
        n = self.n
        ends = self.ends
        state = []
        for frag in self.frags:
            need = len(frag)
            if ends is None:
                positions = tuple(range(n - need + 1))
            else:
                positions = tuple(p for p in range(n) if p + need <= ends[p])
            if not positions:
                return None
            state.append((0, "", positions))
        if self.fixed:
            for var, img in self.fixed.items():
                self._bind(var, img)
            state = self._refresh(state)
            if state is None:
                return None
        return self.images if self._extend(state, 0) else None

    def _refresh(self, state):
        new_state = []
        images = self.images
        text = self.text
        ends = self.ends
        for (count, img, positions), frag in zip(state, self.frags):
            new_count = count
            parts = []
            while new_count < len(frag) and frag[new_count].var in images:
                sym = frag[new_count]
                parts.append(images[sym.var][sym.mirrored])
                new_count += 1
            if new_count == count:
                new_state.append((count, img, positions))
                continue
            seg = "".join(parts)
            old_len = len(img)
            need = old_len + len(seg) + len(frag) - new_count  # leaves room for the rest
            if ends is None:  # one fragment: one comparison per position
                last = self.n - need
                kept = tuple(p for p in positions if p <= last and text.startswith(seg, p + old_len))
            else:
                kept = tuple(
                    p for p in positions if p + need <= ends[p] and text.startswith(seg, p + old_len)
                )
            if not kept:
                return None
            new_state.append((new_count, img + seg, kept))
        if self.common_image:
            complete = {img for (count, img, _), frag in zip(new_state, self.frags) if count == len(frag)}
            if len(complete) > 1:
                return None
        return new_state


class _ConcreteSearch(_Search):
    """Occurrence search over a word's text: the frontier lookahead lists
    the viable candidates and counts the rest."""

    twins: Optional[Dict[Tuple[int, bool], List[int]]] = None  # _twin_halves memo

    def _extend(self, state, idx) -> bool:
        if idx == len(self.order):
            return True
        var = self.order[idx]
        images = self.images
        if var in images:
            return self._extend(state, idx + 1)
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
        while k < len(frag) and (frag[k].var == var or frag[k].var in images):
            s = frag[k]
            if s.var == var:
                ahead.append((None, s.mirrored))
            else:
                ahead.append((images[s.var][s.mirrored], False))
            k += 1
        rest_min = len(frag) - k
        # the first lookahead image starts where the candidate ends, which
        # lists the viable ends; with no lookahead every length is tried
        lead, twin_mark = ahead[0] if ahead else ("", False)
        checks = ahead[1:]
        twins = lead is None
        palindrome = twins and twin_mark != mirrored
        segs = []  # the longest candidate from each position, text orientation
        viable = set()
        for p in positions:
            start = p + start_off
            limit = min(self.cap, n - start - tail_min)
            if limit < 1:
                continue
            segs.append(text[start : start + limit])
            if twins:
                halves = self._twin_halves(start, palindrome)
                ends = [start + h for h in halves[: bisect_right(halves, limit)]]
            elif lead:
                ends = _find_all(text, lead, start + 1, start + limit + len(lead))
            else:
                ends = range(start + 1, start + limit + 1)
            for end in ends:
                seg = text[start:end]
                cand = seg[::-1] if mirrored else seg
                if cand in viable:
                    continue
                end += end - start if twins else len(lead)
                for piece, rev in checks:
                    if piece is None:
                        piece = cand[::-1] if rev else cand
                    if not text.startswith(piece, end):
                        break
                    end += len(piece)
                else:
                    if end + rest_min <= n:
                        viable.add(cand)
        order = sorted(viable, key=_by_length)
        total, ranks = _candidate_ranks(segs, order, mirrored)
        # every candidate costs one step in (length, text) order; the ones
        # between two viable candidates are charged in one go
        done = 0
        for cand, rank in zip(order, ranks):
            self._charge(rank - done)
            done = rank
            self._bind(var, cand)
            new_state = self._refresh(state)
            if new_state is not None and self._extend(new_state, idx + 1):
                return True
            del images[var]
        self._charge(total - done)
        return False

    def _twin_halves(self, start: int, palindrome: bool) -> List[int]:
        """Every h up to the cap with text[start:start + h] followed by itself,
        or by its reversal when palindrome is set, in increasing order.

        No h' in [h, j - start) can be a square's half when the first
        occurrence of text[start:start + h] from start + h is at j, as the
        square's second half starts with it; for a palindrome the reversed
        piece ends the second half, so h' < (j - start + h) / 2 is excluded.
        """
        if self.twins is None:
            self.twins = {}
        key = (start, palindrome)
        halves = self.twins.get(key)
        if halves is not None:
            return halves
        text = self.text
        top = min(self.cap, (self.n - start) // 2)
        halves = []
        h = 1
        while h <= top:
            piece = text[start : start + h]
            if palindrome:
                j = text.find(piece[::-1], start + h, start + 2 * top)
            else:
                j = text.find(piece, start + h, start + top + h)
            if j < 0:
                break
            if j == start + h:
                halves.append(h)
                h += 1
            else:
                h = (j - start + h + 1) // 2 if palindrome else j - start
        self.twins[key] = halves
        return halves


def _find_all(text: str, piece: str, lo: int, hi: int) -> List[int]:
    """Every start of piece in text[lo:hi]."""
    found = []
    i = text.find(piece, lo, hi)
    while i >= 0:
        found.append(i)
        i = text.find(piece, i + 1, hi)
    return found


def _candidate_ranks(segs: List[str], viable: List[str], mirrored: bool):
    """Count the candidates, the distinct nonempty prefixes of segs (reversed
    when mirrored, which changes no count), and place each viable one,
    given in (length, text) order, at its 1-based position in that order.

    Over the sorted segs and their neighbours' common prefixes, the distinct
    prefixes shorter than L number sum(min(|s|, L - 1)) - sum(min(lcp, L - 1)).
    """
    segs.sort()
    lcps = [_common_prefix(a, b) for a, b in zip(segs, segs[1:])]
    total = sum(map(len, segs)) - sum(lcps)
    if not viable or len(viable) == total:  # nothing to place
        return total, range(1, len(viable) + 1)
    lens = sorted(map(len, segs))
    lcps.sort()
    lens_acc = [0, *accumulate(lens)]
    lcps_acc = [0, *accumulate(lcps)]

    def clipped(xs, acc, m):  # sum(min(x, m) for x in xs), xs sorted
        j = bisect_left(xs, m)
        return acc[j] + m * (len(xs) - j)

    ranks = []
    size = 0
    for cand in viable:
        if len(cand) != size:
            size = len(cand)
            below = clipped(lens, lens_acc, size - 1) - clipped(lcps, lcps_acc, size - 1)
            level = sorted({s[:size][::-1] if mirrored else s[:size] for s in segs if len(s) >= size})
        ranks.append(below + bisect_left(level, cand) + 1)
    return total, ranks


class _SymbolicSearch(_Search):
    """Division search over a target's blind text.

    Images are blind texts; each stands for its orientation class, the
    2**k candidates (k = merged symbols in it) that differ from it only in
    merged marks.  The class is explored once, at its first member, and
    charged once: one step, like any other candidate.
    """

    def __init__(self, frags, target: _SymbolTarget, cap, max_steps):
        super().__init__(frags, target.text, _capped(cap, target.max_fragment_len), max_steps)
        self.ends = target.ends
        self.flip = target.flip
        self.mirrored = {s.var for frag in frags for s in frag if s.mirrored}

    def _extend(self, state, idx) -> bool:
        if idx == len(self.order):
            return True
        var = self.order[idx]
        if var in self.images:
            return self._extend(state, idx + 1)
        gi, off = self.frontier[var]
        frag = self.frags[gi]
        _, img, positions = state[gi]
        start_off = len(img)
        tail_min = len(frag) - off - 1
        text = self.text
        ends = self.ends
        n = self.n
        cands = set()
        for p in positions:
            start = p + start_off
            last = (n if ends is None else ends[p]) - tail_min
            for end in range(start + 1, min(start + self.cap, last) + 1):
                cands.add(text[start:end])
        if frag[off].mirrored:
            flip = self.flip
            cands = {c[::-1].translate(flip) for c in cands}
        # one step per candidate: a blind text stands for its whole class
        for cand in sorted(cands, key=_by_length):
            self._charge(1)
            self._bind(var, cand)
            new_state = self._refresh(state)
            if new_state is not None and self._extend(new_state, idx + 1):
                return True
            del self.images[var]
        return False


def _run_concrete(
    phi: FormulaR, w: Word, budget: Optional[SearchBudget], common_image: bool
) -> Optional[ConcreteMorphism]:
    if max(map(len, phi), default=0) > len(w):  # nowhere to start: run's 0-step None
        return None
    budget = budget or SearchBudget()
    target = WordTarget(w)
    search = _ConcreteSearch(
        _sorted_frags(phi),
        target.text,
        cap=budget.max_image_len,
        max_steps=budget.max_steps,
        common_image=common_image,
    )
    raw = search.run()
    if raw is None:
        return None
    morphism = ConcreteMorphism({var: Word(target.extern(img)) for var, (img, _) in raw.items()})
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

    Returns None when no morphism with images up to the cap exists; without
    a ``max_image_len`` (or with one at least ``len(w)``) that is a proof of
    non-occurrence.
    """
    return _run_concrete(phi, w, budget, common_image=False)


def occurs_common_image(
    phi: FormulaR, w: Word, budget: Optional[SearchBudget] = None
) -> Optional[ConcreteMorphism]:
    """Like occurs, but every fragment must map to the same factor of w."""
    return _run_concrete(phi, w, budget, common_image=True)


def _run_symbolic(
    phi: FormulaR,
    target: _SymbolTarget,
    contains: Callable[[PatternR], bool],
    cap: Optional[int],
    max_steps: int,
) -> Optional[SymbolicMorphism]:
    if max(map(len, phi), default=0) > target.max_fragment_len:  # nowhere to start: run's 0-step None
        return None
    search = _SymbolicSearch(_sorted_frags(phi), target, cap, max_steps)
    raw = search.run()
    if raw is None:
        return None
    morphism = SymbolicMorphism({var: PatternR(target.extern(img)) for var, (img, _) in raw.items()})
    _verify_symbolic(morphism, phi, contains)
    return morphism


def _verify_symbolic(h: SymbolicMorphism, phi: FormulaR, contains: Callable[[PatternR], bool]):
    for frag in phi:
        img = apply_symbolic(h, frag)
        if not contains(img):
            raise AssertionError(f"search returned a non-witness: {frag} -> {img}")


def divides(
    phi: FormulaR, psi: FormulaR, budget: Optional[SearchBudget] = None
) -> Optional[SymbolicMorphism]:
    """Find a non-erasing d-reversal-respecting morphism mapping every
    fragment of phi to a factor of psi.

    Without a ``max_image_len`` (or with one at least the longest fragment
    of psi), None is a proof of non-division: longer images cannot be
    factors.
    """
    budget = budget or SearchBudget()
    return _run_symbolic(
        phi,
        FormulaTarget(psi),
        lambda u: pattern_is_factor_of_formula(u, psi),
        budget.max_image_len,
        budget.max_steps,
    )


def equivalent(phi: FormulaR, psi: FormulaR, budget: Optional[SearchBudget] = None) -> bool:
    """True iff phi and psi divide each other."""
    return divides(phi, psi, budget) is not None and divides(psi, phi, budget) is not None
