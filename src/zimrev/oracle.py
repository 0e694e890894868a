"""Independent brute-force ground truth.

Depth-first avoiding-word search, exhaustive encounter checks, bounded
witness verification, and power-free word generation.  The avoider search
prunes each extension with an end-anchored occurrence check (only images
touching the new suffix are re-parsed) and runs a full occurrence check on
candidate acceptance.  In that anchored check a variable that occurs once in
the whole formula is a gap: once the symbols left of it in its fragment are
bound, one ``str.find`` of their joined images over the window its length
allows replaces the loop over its lengths.  Nothing else mentions the gap, so
its length only moves where those symbols must end and cannot change the
completion of the other fragments; the check returns the same boolean as the
loop, and the DFS visits the same nodes.

Power-free generation keeps per-period repetition runs incrementally and
re-verifies the final word with the exponent scan, which shares no code with
the pruning.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .formulas import FormulaR
from .morphisms import (
    DEFAULT_MAX_STEPS,
    SearchBudget,
    SearchBudgetExceeded,
    _ConcreteSearch,
    _sorted_frags,
    occurs,
)
from .words import OmegaWordSpec, Word, alphabet, materialize, max_exponent

AVOIDER_FOUND = "avoider_found"
TREE_EXHAUSTED = "tree_exhausted"
BUDGET_EXHAUSTED = "budget_exhausted"
WITNESS_OK = "witness_ok"
FAILED = "failed"

ENCOUNTER_GUARD = 2**20

# The witness scale: generated omega-word prefixes have this length and are
# checked for occurrences with images up to this bound.
WITNESS_PREFIX_LEN = 300
WITNESS_IMAGE_BOUND = 30


@dataclass
class OracleReport:
    mode: str
    word: Optional[Word] = None
    nodes: int = 0
    elapsed: float = 0.0
    params: dict = field(default_factory=dict)
    detail: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.mode in (AVOIDER_FOUND, WITNESS_OK)

    def to_json(self) -> dict:
        # elapsed is kept off the wire so identical inputs serialize
        # byte-identically; it stays on the object for humans.
        from .words import word_to_json

        out = {"mode": self.mode, "nodes": self.nodes, "params": self.params}
        if self.word is not None:
            out["word"] = word_to_json(self.word)
        if self.detail is not None:
            out["detail"] = self.detail
        return out


_COMPLETION_STEPS = 1_000_000


class _AnchoredMatcher:
    """Occurrence checks anchored at the last position of a growing word.

    Per fragment a right-to-left match plan is prepared once: bind blocks
    from the end, check repeat blocks against the stored image (both
    orientations cached), then complete the remaining fragments anywhere.
    A variable with k blocks in its fragment gets a per-variable length cap
    of (n - other_blocks) / k, which trims the length loops substantially.

    A variable that occurs once in the whole formula is a gap when every
    symbol left of it in its fragment is bound earlier in the plan: its
    image may be any nonempty word up to its cap, so instead of looping over
    its lengths the matcher joins the images of those left symbols into one
    segment and asks ``str.find`` whether the segment ends somewhere in
    ``[end - cap, end - 1]`` at or after position 0.  The gap variable is in
    no other fragment, so the completion does not depend on its length and
    runs once; every input gets the same answer as the length loop.
    """

    def __init__(self, frags):
        uses: Dict[str, int] = {}
        for frag in frags:
            for s in frag:
                uses[s.var] = uses.get(s.var, 0) + 1
        self.plans = []
        for i, frag in enumerate(frags):
            total = len(frag)
            plan = []
            bound = set()
            for k, s in enumerate(frag[::-1]):
                tail = total - k - 1
                left = frag[:tail]
                # rest: for a gap, the symbols left of it in text order
                rest = None
                if uses[s.var] == 1 and all(t.var in bound for t in left):
                    rest = tuple((t.var, t.mirrored) for t in left)
                plan.append((s.var, s.mirrored, tail, rest))
                bound.add(s.var)
            counts: Dict[str, int] = {}
            for s in frag:
                counts[s.var] = counts.get(s.var, 0) + 1
            self.plans.append((tuple(plan), counts, frags[:i] + frags[i + 1 :]))

    def occurrence_ending_at(self, text: str, cap: int) -> bool:
        """True iff the formula occurs in text with some fragment image
        ending at the last position.  Assuming the one-shorter prefix avoided
        the formula, this is equivalent to full occurrence."""
        n = len(text)
        for plan, counts, others in self.plans:
            total = len(plan)
            caps = {
                var: cap if cap * k <= n - (total - k) else (n - (total - k)) // k
                for var, k in counts.items()
            }
            if self._match(plan, 0, text, n, caps, {}, others, cap):
                return True
        return False

    @staticmethod
    def _complete(text, assignment, others, cap) -> bool:
        if not others:
            return True
        completion = _ConcreteSearch(
            others,
            text,
            cap=cap,
            max_steps=_COMPLETION_STEPS,
            fixed={var: entry[0] for var, entry in assignment.items()},
        )
        try:
            return completion.run() is not None
        except SearchBudgetExceeded:
            # under-prune: the full check on candidate acceptance rules
            return False

    def _match(self, plan, idx, text, end, caps, assignment, others, cap) -> bool:
        if idx == len(plan):
            return self._complete(text, assignment, others, cap)
        var, mirrored, tail, rest = plan[idx]
        entry = assignment.get(var)
        if entry is not None:
            if mirrored:
                seg = entry[1]
                if seg is None:
                    seg = entry[0][::-1]
                    entry[1] = seg
            else:
                seg = entry[0]
            start = end - entry[2]
            if start >= tail and text.startswith(seg, start, end):
                return self._match(plan, idx + 1, text, start, caps, assignment, others, cap)
            return False
        if rest is not None:
            parts = []
            for v, m in rest:
                entry = assignment[v]
                if m:
                    if entry[1] is None:
                        entry[1] = entry[0][::-1]
                    parts.append(entry[1])
                else:
                    parts.append(entry[0])
            seg = "".join(parts)
            # seg must end at end - ln for some 1 <= ln <= caps[var]
            if text.find(seg, max(0, end - caps[var] - len(seg)), end - 1) < 0:
                return False
            return self._complete(text, assignment, others, cap)
        limit = end - tail
        var_cap = caps[var]
        if var_cap < limit:
            limit = var_cap
        match = self._match
        nxt = idx + 1
        for ln in range(1, limit + 1):
            start = end - ln
            seg = text[start:end]
            if mirrored:
                assignment[var] = [seg[::-1], seg, ln]
            else:
                assignment[var] = [seg, None, ln]
            if match(plan, nxt, text, start, caps, assignment, others, cap):
                return True
        if var in assignment:
            del assignment[var]
        return False


def search_avoiding_word(
    phi: FormulaR, k: int, length: int, budget: Optional[SearchBudget] = None
) -> OracleReport:
    """Depth-first search for a length-`length` word over k letters avoiding
    phi, lowest letter first.

    Tree exhaustion (no avoider of that length at the image cap) is reported
    distinctly from running out of step budget.  With ``max_image_len`` at
    least `length`, a returned word is a genuine avoider and exhaustion is
    evidence toward unavoidability on k letters at that length.
    """
    if k < 1 or length < 1:
        raise ValueError("alphabet size and length must be >= 1")
    budget = budget or SearchBudget()
    params = {"alphabet_size": k, "length": length, "max_image_len": budget.max_image_len}
    started = time.monotonic()
    glyphs = alphabet(k)
    frags = _sorted_frags(phi)
    if not frags:
        # the empty formula occurs vacuously in every word
        return OracleReport(TREE_EXHAUSTED, nodes=0, elapsed=time.monotonic() - started, params=params)
    matcher = _AnchoredMatcher(frags)
    cap = min(budget.max_image_len, length)
    steps = 0
    text = ""
    choice: List[int] = [0]
    while choice:
        if choice[-1] >= k:
            choice.pop()
            text = text[:-1]
            continue
        letter = glyphs[choice[-1]]
        choice[-1] += 1
        steps += 1
        if steps > budget.max_steps:
            return OracleReport(
                BUDGET_EXHAUSTED, nodes=steps, elapsed=time.monotonic() - started, params=params
            )
        candidate = text + letter
        if matcher.occurrence_ending_at(candidate, cap):
            continue
        if len(candidate) == length:
            found = Word(tuple(candidate))
            try:
                check = occurs(phi, found, SearchBudget(cap, _COMPLETION_STEPS))
            except SearchBudgetExceeded:
                continue  # cannot certify this candidate; keep searching
            if check is None:
                return OracleReport(
                    AVOIDER_FOUND,
                    word=found,
                    nodes=steps,
                    elapsed=time.monotonic() - started,
                    params=params,
                )
            continue  # anchored pruning missed it; the full check rules
        text = candidate
        choice.append(0)
    return OracleReport(TREE_EXHAUSTED, nodes=steps, elapsed=time.monotonic() - started, params=params)


def all_words_encounter(phi: FormulaR, k: int, length: int) -> bool:
    """Exhaustively check that every word of the given length over k letters
    encounters phi."""
    if k < 1 or length < 0:
        raise ValueError("alphabet size must be >= 1 and length >= 0")
    if k**length > ENCOUNTER_GUARD:
        raise ValueError(f"{k}^{length} words is over the enumeration guard {ENCOUNTER_GUARD}")
    glyphs = alphabet(k)
    budget = SearchBudget(max_image_len=max(1, length), max_steps=_COMPLETION_STEPS)
    for letters in itertools.product(glyphs, repeat=length):
        if occurs(phi, Word(letters), budget) is None:
            return False
    return True


def generate_power_free(
    q: int, alpha: Fraction, length: int, budget: Optional[SearchBudget] = None
) -> OracleReport:
    """Backtracking generation of a word over q letters with every factor
    exponent strictly below alpha.

    Each extension updates per-period repetition runs incrementally; the
    final word re-verifies through the independent exponent scan.
    """
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    budget = budget or SearchBudget()
    params = {"alphabet_size": q, "alpha": str(alpha), "length": length}
    started = time.monotonic()
    glyphs = alphabet(q)
    num, den = alpha.numerator, alpha.denominator
    over = num - den  # reject period p when run * den >= p * over

    letters: List[str] = []
    runs_stack: List[List[int]] = []
    choice: List[int] = [0]
    steps = 0
    while choice:
        depth = len(choice) - 1
        if choice[-1] >= q:
            choice.pop()
            if letters:
                letters.pop()
                runs_stack.pop()
            continue
        letter = glyphs[choice[-1]]
        choice[-1] += 1
        steps += 1
        if steps > budget.max_steps:
            return OracleReport(
                BUDGET_EXHAUSTED, nodes=steps, elapsed=time.monotonic() - started, params=params
            )
        prev_runs = runs_stack[-1] if runs_stack else []
        runs = [0] * depth
        ok = True
        for p in range(1, depth + 1):
            if letters[depth - p] == letter:
                run = (prev_runs[p - 1] if p <= len(prev_runs) else 0) + 1
                runs[p - 1] = run
                if run * den >= p * over:
                    ok = False
                    break
        if not ok:
            continue
        letters.append(letter)
        runs_stack.append(runs)
        if len(letters) == length:
            result = Word(tuple(letters))
            if max_exponent(result) >= alpha:
                raise RuntimeError("incremental power check disagrees with the exponent scan")
            return OracleReport(
                AVOIDER_FOUND,
                word=result,
                nodes=steps,
                elapsed=time.monotonic() - started,
                params=params,
            )
        choice.append(0)
    return OracleReport(TREE_EXHAUSTED, nodes=steps, elapsed=time.monotonic() - started, params=params)


def verify_witness_prefix(
    spec: OmegaWordSpec,
    phi: FormulaR,
    prefix_len: int = WITNESS_PREFIX_LEN,
    image_bound: int = WITNESS_IMAGE_BOUND,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> OracleReport:
    """Bounded sanity check of an omega-word witness: the length-`prefix_len`
    prefix must admit no occurrence of phi with images up to `image_bound`.

    Explicitly not a proof of omega-avoidance.  Materialization failures
    raise; an occurrence yields a `failed` report carrying the morphism.
    """
    started = time.monotonic()
    prefix = materialize(spec, prefix_len)
    params = {"prefix_len": prefix_len, "image_bound": image_bound}
    found = occurs(phi, prefix, SearchBudget(image_bound, max_steps))
    elapsed = time.monotonic() - started
    if found is None:
        return OracleReport(WITNESS_OK, elapsed=elapsed, params=params)
    return OracleReport(
        FAILED,
        elapsed=elapsed,
        params=params,
        detail={"occurrence": found.to_json()},
    )
