"""Brute-force ground truth.

Depth-first avoiding-word search, exhaustive encounter checks, bounded
witness verification, and power-free word generation.  Both searches run on
one backtracking driver (``_dfs``), which owns the choice stack, the node
count, the step budget and the report; each search supplies only its prune.
The avoider search prunes each extension with an end-anchored occurrence
check (only images touching the new suffix are re-parsed).  That prune is
exact: an occurrence in a word whose one-shorter prefix avoids the formula
has some fragment image ending at the last letter, so a word that reaches
full length avoids the formula and is accepted without a second search.
Completing the other fragments is a concrete search whose steps come out of
the avoider search's own budget; when that pool runs dry the search reports
``budget_exhausted`` instead of guessing.  In that anchored check a
variable that occurs once in the whole formula is a gap: once the symbols
left of it in its fragment are bound, one ``str.find`` of their joined
images over the window its length allows replaces the loop over its
lengths.  Nothing else mentions the gap, so its length only moves
where those symbols must end and cannot change the completion of the other
fragments; the check returns the same boolean as the loop, and the DFS
visits the same nodes.

Power-free generation keeps per-period repetition runs incrementally and
re-verifies the final word with the exponent scan, which shares no code with
the pruning.

The rest is not independent of the search path: the avoider search
completes the other fragments with the concrete occurrence search, and
``all_words_encounter`` and ``verify_witness_prefix`` run ``occurs``.  A
checker that shares no code with the search is ROADMAP item 4.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .formulas import FormulaR
from .morphisms import (
    DEFAULT_MAX_STEPS,
    SearchBudget,
    SearchBudgetExceeded,
    _ConcreteSearch,
    _sorted_frags,
    _variable_order,
    occurs,
)
from .words import OmegaWordSpec, Word, alphabet, materialize, max_exponent, word_to_json

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
    params: dict = field(default_factory=dict)
    detail: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"mode": self.mode, "nodes": self.nodes, "params": self.params}
        if self.word is not None:
            out["word"] = word_to_json(self.word)
        if self.detail is not None:
            out["detail"] = self.detail
        return out


_COMPLETION_STEPS = 1_000_000


def _dfs(glyphs, length, max_steps, params, extend) -> OracleReport:
    """Depth-first search over the words of `length` letters from glyphs,
    lowest letter first; every node counts against `max_steps`.

    ``extend(text, parent)`` gets a new node's text and its parent's state
    (None at the root) and returns the node's state, or None to prune it;
    the first full-length node it keeps is the word found.  A prune that
    raises ``SearchBudgetExceeded`` ends the search as budget exhausted.
    """
    k = len(glyphs)
    text = ""
    states: list = [None]
    choice = [0]
    nodes = 0
    while choice:
        if choice[-1] >= k:
            choice.pop()
            states.pop()
            text = text[:-1]
            continue
        candidate = text + glyphs[choice[-1]]
        choice[-1] += 1
        nodes += 1
        if nodes > max_steps:
            return OracleReport(BUDGET_EXHAUSTED, nodes=nodes, params=params)
        try:
            state = extend(candidate, states[-1])
        except SearchBudgetExceeded:
            return OracleReport(BUDGET_EXHAUSTED, nodes=nodes, params=params)
        if state is None:
            continue
        if len(candidate) == length:
            return OracleReport(AVOIDER_FOUND, word=Word(tuple(candidate)), nodes=nodes, params=params)
        text = candidate
        states.append(state)
        choice.append(0)
    return OracleReport(TREE_EXHAUSTED, nodes=nodes, params=params)


class _AnchoredMatcher:
    """Occurrence checks anchored at the last position of a growing word.

    Per fragment a right-to-left match plan is prepared once: bind blocks
    from the end, check repeat blocks against the stored image, then
    complete the remaining fragments anywhere.  A bound variable is one
    immutable ``(image, reversal, length)`` entry, read by the mirror mark;
    the reversal is computed at bind time if the variable occurs mirrored
    anywhere in the formula, and is None otherwise.  A variable with k
    blocks in its fragment gets a per-variable length cap of
    (n - other_blocks) / k, which trims the length loops substantially.

    A variable that occurs once in the whole formula is a gap when every
    symbol left of it in its fragment is bound earlier in the plan: its
    image may be any nonempty word up to its cap, so instead of looping over
    its lengths the matcher joins the images of those left symbols into one
    segment and asks ``str.find`` whether the segment ends somewhere in
    ``[end - cap, end - 1]`` at or after position 0.  The gap variable is in
    no other fragment, so the completion does not depend on its length and
    runs once; every input gets the same answer as the length loop.

    The completions share one pool of `max_steps` steps: each runs with
    what is left and spends from it, and the one that runs dry raises
    ``SearchBudgetExceeded``.  So every answer the matcher gives is exact.
    """

    def __init__(self, frags, max_steps: int):
        self.steps_left = max_steps
        uses = Counter(s.var for frag in frags for s in frag)
        flips = {s.var for frag in frags for s in frag if s.mirrored}
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
                plan.append((s.var, s.mirrored, s.var in flips, tail, rest))
                bound.add(s.var)
            counts = Counter(s.var for s in frag)
            # the fragments to complete, with their variable order, or None
            remaining = frags[:i] + frags[i + 1 :]
            others = (remaining, _variable_order(remaining)) if remaining else None
            self.plans.append((tuple(plan), counts, others))

    def occurrence_ending_at(self, text: str, cap: int) -> bool:
        """True iff the formula occurs in text with some fragment image
        ending at the last position.  Assuming the one-shorter prefix avoided
        the formula, this is equivalent to full occurrence.  Raises
        ``SearchBudgetExceeded`` when the completions' pool runs dry."""
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

    def _complete(self, text, assignment, others, cap) -> bool:
        if others is None:
            return True
        frags, ordering = others
        completion = _ConcreteSearch(
            frags,
            text,
            cap=cap,
            max_steps=self.steps_left,
            fixed={var: entry[0] for var, entry in assignment.items()},
            ordering=ordering,
        )
        found = completion.run() is not None
        self.steps_left -= completion.steps
        return found

    def _match(self, plan, idx, text, end, caps, assignment, others, cap) -> bool:
        if idx == len(plan):
            return self._complete(text, assignment, others, cap)
        var, mirrored, flips, tail, rest = plan[idx]
        entry = assignment.get(var)
        if entry is not None:
            start = end - entry[2]
            if start >= tail and text.startswith(entry[mirrored], start, end):
                return self._match(plan, idx + 1, text, start, caps, assignment, others, cap)
            return False
        if rest is not None:
            seg = ""
            for v, m in rest:
                seg += assignment[v][m]
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
                assignment[var] = (seg[::-1], seg, ln)
            elif flips:
                assignment[var] = (seg, seg[::-1], ln)
            else:
                assignment[var] = (seg, None, ln)
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
    distinctly from running out of step budget.  Without a ``max_image_len``
    (or with one at least `length`), a returned word is a genuine avoider and
    exhaustion is evidence toward unavoidability on k letters at that length.

    Every prefix on the path to a returned word passed the exact anchored
    prune, so the word avoids phi at the cap.  The budget's ``max_steps``
    bounds the nodes and, separately, the steps of all fragment completions
    together; either running out ends the search as budget exhausted.
    """
    if k < 1 or length < 1:
        raise ValueError("alphabet size and length must be >= 1")
    budget = budget or SearchBudget()
    image_len = length if budget.max_image_len is None else budget.max_image_len
    params = {"alphabet_size": k, "length": length, "max_image_len": image_len}
    glyphs = alphabet(k)
    frags = _sorted_frags(phi)
    if not frags:
        # the empty formula occurs vacuously in every word
        return OracleReport(TREE_EXHAUSTED, nodes=0, params=params)
    matcher = _AnchoredMatcher(frags, budget.max_steps)
    cap = min(image_len, length)

    def avoids(text: str, _) -> Optional[str]:
        return None if matcher.occurrence_ending_at(text, cap) else text

    return _dfs(glyphs, length, budget.max_steps, params, avoids)


def all_words_encounter(phi: FormulaR, k: int, length: int) -> bool:
    """Exhaustively check that every word of the given length over k letters
    encounters phi."""
    if k < 1 or length < 0:
        raise ValueError("alphabet size must be >= 1 and length >= 0")
    if k**length > ENCOUNTER_GUARD:
        raise ValueError(f"{k}^{length} words is over the enumeration guard {ENCOUNTER_GUARD}")
    glyphs = alphabet(k)
    budget = SearchBudget(max_steps=_COMPLETION_STEPS)
    for letters in itertools.product(glyphs, repeat=length):
        if occurs(phi, Word(letters), budget) is None:
            return False
    return True


def generate_power_free(
    q: int, alpha: Fraction, length: int, max_steps: int = DEFAULT_MAX_STEPS
) -> OracleReport:
    """Backtracking generation of a word over q letters with every factor
    exponent strictly below alpha.

    Each extension updates per-period repetition runs incrementally; the
    final word re-verifies through the independent exponent scan.  At most
    ``max_steps`` nodes are expanded.
    """
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if length < 1 or max_steps < 1:
        raise ValueError("length and max_steps must be >= 1")
    params = {"alphabet_size": q, "alpha": str(alpha), "length": length}
    num, den = alpha.numerator, alpha.denominator
    over = num - den  # reject period p when run * den >= p * over

    def runs_below(text: str, prev: Optional[List[int]]) -> Optional[List[int]]:
        # runs[p - 1]: length of the repetition of period p ending here
        depth = len(text) - 1
        letter = text[depth]
        runs = [0] * depth
        for p in range(1, depth + 1):
            if text[depth - p] == letter:
                run = (prev[p - 1] if p <= len(prev) else 0) + 1
                runs[p - 1] = run
                if run * den >= p * over:
                    return None
        return runs

    report = _dfs(alphabet(q), length, max_steps, params, runs_below)
    if report.word is not None and max_exponent(report.word) >= alpha:
        raise RuntimeError("incremental power check disagrees with the exponent scan")
    return report


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
    prefix = materialize(spec, prefix_len)
    params = {"prefix_len": prefix_len, "image_bound": image_bound}
    found = occurs(phi, prefix, SearchBudget(image_bound, max_steps))
    if found is None:
        return OracleReport(WITNESS_OK, params=params)
    return OracleReport(FAILED, params=params, detail={"occurrence": found.to_json()})
