"""Top-level verdicts for formulas with reversal.

The decision logic, for a normalized formula with m two-way and n one-way
variables:

* a division into Z(m, n) proves unavoidability for any m, n;
* without one, when m > 0 the lemma battery runs, and a firing lemma proves
  avoidability with an omega-word witness;
* otherwise, with m = 0 (no mirror marks, where the classic
  characterization covers every n) or n <= 2, the failed division at the
  sound bound proves avoidability by the contrapositive of the
  characterization;
* otherwise the formula is undecided: a finite avoiding word is attached as
  evidence but never justifies an avoidable status.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Set, Union

from .classic import ReductionChain, decide_classic
from .formulas import (
    ONE_WAY,
    TWO_WAY,
    FormulaR,
    PatternR,
    _orientations,
    _unmirrored,
    classify_vars,
    delete_vars,
    factors_of,
    flatten,
    normalize,
    pattern_vars,
)
from .morphisms import DEFAULT_MAX_STEPS, SearchBudget, SearchBudgetExceeded, SymbolicMorphism, occurs
from .oracle import WITNESS_IMAGE_BOUND, WITNESS_PREFIX_LEN, generate_power_free, search_avoiding_word
from .words import (
    GLYPHS,
    GeneratedSpec,
    OmegaWordSpec,
    PeriodicSpec,
    ProductSpec,
    Word,
    alphabet,
    spec_to_json,
    word,
    word_to_json,
)
from .zimin import _fragment_length, divides_zimin

UNAVOIDABLE = "unavoidable"
AVOIDABLE = "avoidable"
UNKNOWN = "unknown"

_WITNESS_STEPS = 2_000_000
# per alphabet size, for the nodes and, separately, for all fragment
# completions together; a search that runs out just moves on
_AVOIDER_STEPS = 150_000
EVIDENCE_LENGTH = 50

# The alphabets the avoider search tries, for evidence and flat witnesses
# alike.  Avoidability over k letters implies avoidability over k+1 (the
# same word works), so starting at 3 only skips alphabets a ternary success
# would subsume; binary avoider trees can be huge and are never needed.
_AVOIDER_ALPHABETS = (3, 4, 5)

_PERIOD_123 = PeriodicSpec(word("123"))


@dataclass
class ZiminDivisionCert:
    m: int
    n: int
    morphism: SymbolicMorphism

    def to_json(self) -> dict:
        return {"kind": "zimin_division", "m": self.m, "n": self.n, "morphism": self.morphism.to_json()}


@dataclass
class ContrapositiveCert:
    """Avoidable because the division into Z(m, n) failed at the sound bound
    and the characterization applies (n <= 2, or m = 0 where the classic
    characterization covers every n)."""

    m: int
    n: int

    def to_json(self) -> dict:
        return {"kind": "theorem9_contrapositive", "m": self.m, "n": self.n}


@dataclass
class LemmaCert:
    name: str
    witness: OmegaWordSpec

    def to_json(self) -> dict:
        return {"kind": "lemma", "name": self.name, "witness": spec_to_json(self.witness)}


@dataclass
class EvidenceCert:
    """A finite avoiding word: evidence only, never a proof of avoidability."""

    word: Word
    alphabet_size: int
    length: int

    def to_json(self) -> dict:
        return {
            "kind": "evidence_only",
            "word": word_to_json(self.word),
            "alphabet_size": self.alphabet_size,
            "length": self.length,
        }


Certificate = Union[ZiminDivisionCert, ContrapositiveCert, LemmaCert, EvidenceCert]


@dataclass
class Verdict:
    formula: FormulaR
    status: str
    m: int
    n: int
    certificate: Optional[Certificate]
    evidence: Optional[dict] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "formula": str(self.formula),
            "m": self.m,
            "n": self.n,
            "status": self.status,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }
        if self.evidence is not None:
            out["evidence"] = self.evidence
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# ---------------------------------------------------------------------------
# Corollary-style counting checks.


def check_doubled_pattern(p: PatternR) -> bool:
    """Every variable of the flattening appears at least twice."""
    seen: Set[str] = set()
    twice: Set[str] = set()
    for var, _ in p:
        (twice if var in seen else seen).add(var)
    return len(twice) == len(seen)


def check_length_bound(p: PatternR) -> bool:
    """|p| >= 2^n over n distinct variables forces avoidability."""
    return len(p) >= 2 ** len(pattern_vars(p))


# ---------------------------------------------------------------------------
# Witness construction.  Generated components are built once at the witness
# scale and cached; flat-route avoider prefixes are searched at the witness
# image bound, which is what the bounded witness check uses.


@lru_cache(maxsize=None)
def _power_free_component(q: int, alpha: Fraction, prefix_len: int) -> Optional[GeneratedSpec]:
    report = generate_power_free(q, alpha, prefix_len, _WITNESS_STEPS)
    if report.word is None:
        return None
    return GeneratedSpec(q, alpha, report.word)


def _square_free_avoids(phi: FormulaR, square_free: GeneratedSpec, image_bound: int) -> Optional[bool]:
    """Whether the square-free prefix admits no occurrence of phi with images
    up to image_bound; None when the absence proof runs out of budget."""
    try:
        return occurs(phi, square_free.prefix, SearchBudget(image_bound, _WITNESS_STEPS)) is None
    except SearchBudgetExceeded:
        return None


def _avoiding_word(
    phi: FormulaR, length: int, image_bound: int, give_up_on_budget: bool
) -> Optional[GeneratedSpec]:
    """A word of the given length over at most 5 letters that admits no
    occurrence of phi with images up to image_bound.

    The canonical ternary square-free word comes first: it avoids any phi
    whose instances force a square, which covers most desk-scale formulas.
    When its absence proof runs out of budget, give_up_on_budget decides
    between no word and the bounded avoider search over the alphabets in
    _AVOIDER_ALPHABETS."""
    square_free = _power_free_component(3, Fraction(2), length)
    avoided = square_free is not None and _square_free_avoids(phi, square_free, image_bound)
    if avoided:
        return square_free
    if avoided is None and give_up_on_budget:
        return None
    for k in _AVOIDER_ALPHABETS:
        report = search_avoiding_word(phi, k, length, SearchBudget(image_bound, _AVOIDER_STEPS))
        if report.word is not None:
            return GeneratedSpec(k, None, report.word)
    return None


@lru_cache(maxsize=None)
def _flat_witness(flat: FormulaR) -> Optional[ProductSpec]:
    # an exhausted absence proof gives no witness: the avoider search at this
    # prefix length would cost far more
    component = _avoiding_word(flat, WITNESS_PREFIX_LEN, WITNESS_IMAGE_BOUND, give_up_on_budget=True)
    return None if component is None else ProductSpec(component, _PERIOD_123)


# ---------------------------------------------------------------------------
# The lemma battery.


def lemma_two_way_middle(phi: FormulaR) -> Optional[LemmaCert]:
    """Some two-way y has xy, yz and xz among the flattened length-2 factors;
    then (123)^omega avoids the formula."""
    classes = classify_vars(phi)
    two_ways = sorted(v for v, tag in classes.items() if tag == TWO_WAY)
    if not two_ways:
        return None
    pairs = {(p[0].var, p[1].var) for p in factors_of(flatten(phi), 2)}
    for y in two_ways:
        lefts = sorted(x for (x, b) in pairs if b == y)
        rights = sorted(z for (a, z) in pairs if a == y)
        for x in lefts:
            for z in rights:
                if (x, z) in pairs:
                    return LemmaCert("two_way_middle", _PERIOD_123)
    return None


def lemma_all_two_way(phi: FormulaR) -> Optional[LemmaCert]:
    """Every variable two-way and some variable repeats inside one flattened
    fragment; then (12...m')^omega avoids the formula, m' = 2^(n-1)+1.

    At m' = 2 (one variable) a repeat is not enough: (12)^omega has squares
    and reversed factors, so ``x x . x~`` occurs with x -> 12.  What it lacks
    are even-length palindromes, so there some fragment must hold x x~ or
    x~ x."""
    classes = classify_vars(phi)
    if not classes or any(tag == ONE_WAY for tag in classes.values()):
        return None
    if len(classes) == 1:
        if not _has_adjacent_mirror_pair(phi):
            return None
    elif not _repeated_in_a_fragment(phi):
        return None
    m_prime = 2 ** (len(classes) - 1) + 1
    if m_prime > len(GLYPHS):
        return None
    return LemmaCert("all_two_way", PeriodicSpec(Word(alphabet(m_prime))))


def lemma_one_way_twice(phi: FormulaR) -> Optional[LemmaCert]:
    """Every one-way variable repeats inside some fragment; then a power-free
    word over 2^(n-1)+2 letters paired with (123)^omega avoids the formula."""
    classes = classify_vars(phi)
    one_ways = [v for v, tag in classes.items() if tag == ONE_WAY]
    if not one_ways:
        return None
    if not _repeated_in_a_fragment(phi).issuperset(one_ways):
        return None
    half = 2 ** (len(classes) - 1)
    if half + 2 > len(GLYPHS):
        return None
    component = _power_free_component(half + 2, Fraction(half + 1, half), WITNESS_PREFIX_LEN)
    if component is None:
        return None
    return LemmaCert("one_way_twice", ProductSpec(component, _PERIOD_123))


def lemma_flat(phi: FormulaR) -> Optional[LemmaCert]:
    """The flattening is classically avoidable (it has no reduction chain);
    then w + (123)^omega avoids the formula, where w avoids the flattening.
    A flattening over the template guard, which bounds the free-set
    enumeration, gives no witness."""
    flat = flatten(phi)
    try:
        if decide_classic(flat).unavoidable:
            return None
    except ValueError:  # over the template guard
        return None
    witness = _flat_witness(flat)
    if witness is None:
        return None
    return LemmaCert("flat", witness)


def _repeated_in_a_fragment(phi: FormulaR) -> Set[str]:
    """The variables that occur at least twice inside one fragment."""
    repeated: Set[str] = set()
    for frag in phi:
        seen: Set[str] = set()
        for s in frag:
            if s.var in seen:
                repeated.add(s.var)
            seen.add(s.var)
    return repeated


def _has_adjacent_mirror_pair(phi: FormulaR) -> bool:
    return any(
        a.var == b.var and a.mirrored != b.mirrored
        for frag in phi
        for a, b in zip(frag, frag[1:])
    )


def _lemma_battery(phi_n: FormulaR) -> Optional[LemmaCert]:
    """Cheapest checks first; the order affects only the certificate."""
    if len(phi_n) == 1:
        frag = phi_n[0]
        doubled = check_doubled_pattern(frag)
        if doubled or check_length_bound(frag):
            witness = _flat_witness(flatten(phi_n))
            if witness is not None:
                return LemmaCert("doubled" if doubled else "length_bound", witness)
    for rule in (lemma_two_way_middle, lemma_all_two_way):
        cert = rule(phi_n)
        if cert is not None:
            return cert
    cert = lemma_one_way_twice(phi_n)
    if cert is not None:
        return cert
    return lemma_flat(phi_n)


# ---------------------------------------------------------------------------
# The decision.


def _search_evidence(phi: FormulaR) -> Optional[EvidenceCert]:
    # an exhausted absence proof is no evidence; the avoider search gets its turn
    found = _avoiding_word(phi, EVIDENCE_LENGTH, EVIDENCE_LENGTH, give_up_on_budget=False)
    return None if found is None else EvidenceCert(found.prefix, found.alphabet_size, EVIDENCE_LENGTH)


def decide(phi: FormulaR, max_steps: int = DEFAULT_MAX_STEPS, *, evidence: bool = False) -> Verdict:
    """Decide avoidability of a formula with reversal.

    The formula is normalized internally.  The division search runs at the
    sound image bound (the Z(m, n) fragment length) with at most
    ``max_steps`` steps; over the template guard it does not run and the
    verdict is ``unknown``.  Without a division one flow follows: the lemma
    battery when m > 0, else the contrapositive certificate where the
    characterization applies (m = 0 or n <= 2), else ``unknown``.  Lemma
    witnesses are generated at the fixed witness scale (WITNESS_PREFIX_LEN
    letters, checked at WITNESS_IMAGE_BOUND).  Pass ``evidence=True`` to
    attach a finite avoiding word of EVIDENCE_LENGTH letters to every
    avoidable verdict; undecided verdicts always try.
    """
    plain, mirrored = _orientations(phi)
    m = len(plain & mirrored)
    n = len(plain ^ mirrored)
    try:
        _fragment_length(m, n)
    except ValueError as exc:  # over the template guard
        return Verdict(phi, UNKNOWN, m, n, None, reason=f"{exc}; the division search did not run")
    phi_n = _unmirrored(phi, mirrored - plain)
    try:
        division = divides_zimin(phi_n, m, n, max_steps)
    except SearchBudgetExceeded:
        return Verdict(
            phi, UNKNOWN, m, n, None,
            reason="division search exceeded the step budget at the sound image bound",
        )
    if division is not None:
        return Verdict(phi, UNAVOIDABLE, m, n, ZiminDivisionCert(m, n, division))

    cert: Optional[Certificate] = _lemma_battery(phi_n) if m > 0 else None
    if cert is None and (m == 0 or n <= 2):
        cert = ContrapositiveCert(m, n)
    if cert is None:
        return Verdict(
            phi,
            UNKNOWN,
            m,
            n,
            _search_evidence(phi_n),
            reason="no division at the sound bound and no lemma fires; "
            "a finite avoiding word is not a proof of avoidability",
        )
    verdict = Verdict(phi, AVOIDABLE, m, n, cert)
    if evidence:
        found = _search_evidence(phi_n)
        if found is not None:
            verdict.evidence = found.to_json()
    return verdict


# ---------------------------------------------------------------------------
# Conjecture bookkeeping: deleting all two-way variables from an unavoidable
# formula should leave an unavoidable formula.  The probe only reports; it
# never feeds back into decide.


@dataclass
class Conjecture2Report:
    formula: FormulaR
    residual: FormulaR
    residual_status: str
    residual_reduction: Optional[ReductionChain]
    phi_status: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "formula": str(self.formula),
            "residual": str(self.residual),
            "residual_status": self.residual_status,
            "residual_reduction": None
            if self.residual_reduction is None
            else self.residual_reduction.to_json(),
        }
        if self.phi_status is not None:
            out["phi_status"] = self.phi_status
        return out


def conjecture2_probe(phi: FormulaR, phi_status: Optional[str] = None) -> Conjecture2Report:
    """Delete the two-way variables and decide the residual classically; a
    residual over the template guard is reported ``unknown``, as decide
    reports such a formula."""
    phi_n = normalize(phi)
    two_ways = {v for v, tag in classify_vars(phi_n).items() if tag == TWO_WAY}
    residual = delete_vars(phi_n, two_ways)
    try:
        decision = decide_classic(residual)
    except ValueError:  # over the template guard
        return Conjecture2Report(phi, residual, UNKNOWN, None, phi_status)
    return Conjecture2Report(phi, residual, decision.status, decision.reduction, phi_status)
