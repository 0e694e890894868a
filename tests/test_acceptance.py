"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances and scales are pinned here; the oracle passes are the
slow part (a few minutes total on a laptop-class machine).
"""

import itertools
import time
from fractions import Fraction

import pytest

from zimrev.classic import decide_classic, is_reducible
from zimrev.decide import UNAVOIDABLE, AVOIDABLE, ZiminDivisionCert, conjecture2_probe, decide
from zimrev.formulas import FormulaR, PatternR, Sym, formula_vars, parse
from zimrev.morphisms import (
    SearchBudget,
    apply_symbolic,
    divides,
    equivalent,
    occurs,
    occurs_common_image,
)
from zimrev.oracle import (
    AVOIDER_FOUND,
    WITNESS_OK,
    all_words_encounter,
    generate_power_free,
    search_avoiding_word,
    verify_witness_prefix,
)
from zimrev.words import (
    GeneratedSpec,
    PeriodicSpec,
    ProductSpec,
    Word,
    max_exponent,
    word,
)
from zimrev.zimin import divides_zimin, enumerate_fragments, is_zimin_factor, stats, sufficient_length

BUDGET = SearchBudget(16, 10**7)


def report(criterion, text):
    print(f"[criterion {criterion}] PASS: {text}")


def binary_patterns_with_reversal():
    """All 340 patterns with reversal over {x, y} of length <= 4."""
    syms = [Sym("x", False), Sym("x", True), Sym("y", False), Sym("y", True)]
    out = []
    for length in range(1, 5):
        for combo in itertools.product(syms, repeat=length):
            out.append(FormulaR([PatternR(combo)]))
    return out


def canonical_classic_patterns():
    """Reversal-free patterns over <= 3 variables of length <= 6, one per
    renaming class (restricted growth strings); oracle behaviour is
    invariant under variable renaming."""
    names = ["x", "y", "z"]
    out = []

    def grow(seq, used):
        if seq:
            out.append(FormulaR([PatternR(tuple(Sym(names[i]) for i in seq))]))
        if len(seq) == 6:
            return
        for v in range(min(used + 1, 3)):
            grow(seq + (v,), max(used, v + 1))

    grow((), 0)
    return out


def all_classic_patterns():
    """All 1092 reversal-free patterns over {x, y, z} of length <= 6."""
    out = []
    for length in range(1, 7):
        for combo in itertools.product(["x", "y", "z"], repeat=length):
            out.append(FormulaR([PatternR(tuple(Sym(v) for v in combo))]))
    return out


def sharp_formula(slot_text):
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


def test_criterion_1_worked_division_example():
    started = time.monotonic()
    h = divides(parse("x y x . y~"), parse("x y z x y z . z~ y~ z~"), BUDGET)
    elapsed = time.monotonic() - started
    assert h is not None
    assert h.to_json() == {"x": "x", "y": "y z"}
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, f"division found {h.to_json()} in {elapsed * 1000:.0f} ms")


def test_criterion_2_binary_classification():
    started = time.monotonic()
    patterns = binary_patterns_with_reversal()
    assert len(patterns) == 340
    factor_targets = [
        parse(t) for t in ["x", "y", "x y", "y x", "x y x", "x~", "y x~", "x y x~"]
    ]
    mismatches = []
    unavoidable_count = 0
    for phi in patterns:
        verdict = decide(phi, BUDGET.max_steps)
        assert verdict.status in (UNAVOIDABLE, AVOIDABLE)  # n <= 2 always decides
        is_unavoidable = verdict.status == UNAVOIDABLE
        unavoidable_count += is_unavoidable
        factor_equivalent = any(equivalent(phi, t, BUDGET) for t in factor_targets)
        if is_unavoidable != factor_equivalent:
            mismatches.append(str(phi))
    elapsed = time.monotonic() - started
    assert mismatches == []
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(
        2,
        f"340 binary patterns classified ({unavoidable_count} unavoidable), "
        f"0 mismatches with the factor-equivalence characterization, {elapsed:.1f}s",
    )


def test_criterion_3_oracle_cross_validation():
    patterns = binary_patterns_with_reversal()
    contradictions = []
    avoidable = unavoidable = 0
    for phi in patterns:
        verdict = decide(phi, BUDGET.max_steps)
        if verdict.status == AVOIDABLE:
            avoidable += 1
            found = None
            for k in (3, 4, 5):
                rep = search_avoiding_word(phi, k, 50, SearchBudget(50, 400_000))
                if rep.word is not None:
                    found = rep.word
                    break
            if found is None:
                contradictions.append(("no avoiding word", str(phi)))
            elif occurs(phi, found, SearchBudget(50, 10**7)) is not None:
                contradictions.append(("avoider fails re-check", str(phi)))
        else:
            unavoidable += 1
            if not all_words_encounter(phi, 2, 8):
                contradictions.append(("binary length-8 avoider exists", str(phi)))
    assert contradictions == []
    report(
        3,
        f"oracle agrees on all 340 patterns ({avoidable} avoiders found at length 50, "
        f"{unavoidable} exhaustive encounter checks at k=2, L=8)",
    )


def test_criterion_4_sufficient_length_bound():
    started = time.monotonic()
    assert sufficient_length(1, 1, 2) == 5
    z11 = enumerate_fragments(1, 1)
    for letters in itertools.product("01", repeat=5):
        w = Word(letters)
        h = occurs_common_image(z11, w, SearchBudget(5, 10**6))
        assert h is not None, f"{w} admits no common-image occurrence"

    assert sufficient_length(1, 0, 2) == 1
    z10 = enumerate_fragments(1, 0)
    for letters in itertools.product("01", repeat=1):
        assert occurs_common_image(z10, Word(letters), SearchBudget(len(letters), 10**6)) is not None

    assert sufficient_length(0, 2, 2) == 5
    z02 = enumerate_fragments(0, 2)
    for letters in itertools.product("01", repeat=5):
        assert occurs_common_image(z02, Word(letters), SearchBudget(5, 10**6)) is not None

    elapsed = time.monotonic() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(4, f"pigeonhole bound checked exhaustively at (1,1,2), (1,0,2), (0,2,2) in {elapsed:.1f}s")


def test_criterion_5_classic_theory():
    # the Zimin words Z(0, n) reduce and divide themselves
    for n in range(1, 5):
        zn = enumerate_fragments(0, n)
        chain = is_reducible(zn)
        assert chain is not None and len(chain.steps) == n
        assert divides(zn, zn, SearchBudget(2**n - 1, 10**7)) is not None
    assert is_reducible(parse("x x")) is None
    assert not decide_classic(parse("x x")).unavoidable

    # decide_classic on every reversal-free pattern of length <= 6 over
    # <= 3 variables, each checked against the division into Z(0, n);
    # verdicts are renaming-invariant, so the oracle runs once per canonical
    # pattern
    statuses = {}
    mismatches = []
    for phi in all_classic_patterns():
        statuses[phi] = decide_classic(phi).status
        divided = divides_zimin(phi, 0, len(formula_vars(phi))) is not None
        if divided != (statuses[phi] == UNAVOIDABLE):
            mismatches.append(("division disagrees", str(phi)))
    assert len(statuses) == 1092

    sq3 = generate_power_free(3, Fraction(2), 60).word
    pf4 = generate_power_free(4, Fraction(3, 2), 60).word
    checked_avoidable = checked_unavoidable = 0
    full = SearchBudget(60, 10**6)
    for phi in canonical_classic_patterns():
        status = statuses[phi]
        if status == AVOIDABLE:
            checked_avoidable += 1
            # a verified avoiding word of length 60 over <= 4 letters
            if occurs(phi, sq3, full) is None:
                continue
            if occurs(phi, pf4, full) is None:
                continue
            rep = search_avoiding_word(phi, 4, 60, SearchBudget(60, 500_000))
            if rep.word is None:
                mismatches.append(("no length-60 avoider over 4 letters", str(phi)))
        else:
            checked_unavoidable += 1
            # no binary avoider of length 60 may exist; the tree is finite
            # and exhausts quickly for unavoidable patterns
            rep = search_avoiding_word(phi, 2, 60, SearchBudget(60, 200_000))
            if rep.mode == AVOIDER_FOUND:
                mismatches.append(("binary avoider for unavoidable pattern", str(phi)))
    assert mismatches == []
    report(
        5,
        f"classic decisions agree with the oracle on 1092 patterns "
        f"({checked_avoidable} avoidable / {checked_unavoidable} unavoidable canonical classes)",
    )


def test_criterion_6_template_predicate_equivalence():
    mismatches = 0
    for m, n in [(1, 0), (2, 0), (1, 1), (2, 1)]:
        fragments = enumerate_fragments(m, n)
        length = stats(m, n).fragment_length
        signature = []
        for i in range(1, m + 1):
            signature.append(Sym(f"x{i}", False))
            signature.append(Sym(f"x{i}", True))
        for j in range(1, n + 1):
            signature.append(Sym(f"y{j}", False))
        for ln in range(1, length + 1):
            for combo in itertools.product(signature, repeat=ln):
                u = PatternR(combo)
                explicit = any(
                    frag[i : i + ln] == combo
                    for frag in fragments
                    for i in range(len(frag) - ln + 1)
                )
                if is_zimin_factor(u, m, n) != explicit:
                    mismatches += 1
    assert mismatches == 0
    report(6, "slot template agrees with explicit enumeration at (1,0), (2,0), (1,1), (2,1)")


def test_criterion_7_lemma_witnesses():
    started = time.monotonic()
    cases = []

    rep = verify_witness_prefix(PeriodicSpec(word("123")), parse("x y~ . y z . x z"), 300, 30)
    cases.append(("two-way middle vs (123)^w", rep))

    rep = verify_witness_prefix(PeriodicSpec(word("12")), parse("x x~"), 300, 30)
    cases.append(("all two-way edge case vs (12)^w", rep))

    power_free = generate_power_free(4, Fraction(3, 2), 300)
    assert power_free.word is not None
    spec = ProductSpec(
        GeneratedSpec(4, Fraction(3, 2), power_free.word), PeriodicSpec(word("123"))
    )
    rep = verify_witness_prefix(spec, parse("y x y . x~"), 300, 30)
    cases.append(("one-way twice vs power-free product", rep))

    elapsed = time.monotonic() - started
    for name, rep in cases:
        assert rep.mode == WITNESS_OK, (name, rep.detail)
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(7, f"three lemma witnesses verified at prefix 300 / image bound 30 in {elapsed:.1f}s")


def test_criterion_8_power_free_generation():
    for q, alpha in [(3, Fraction(2)), (4, Fraction(3, 2))]:
        rep = generate_power_free(q, alpha, 200)
        assert rep.mode == AVOIDER_FOUND
        assert len(rep.word) == 200
        # independent re-verification through the exponent scan
        assert max_exponent(rep.word) < alpha
    report(8, "power-free words of length 200 generated and re-verified for (3,2) and (4,3/2)")


def test_criterion_9_section5_example():
    phi = sharp_formula("x# y1 x# y2 x# y3 x# y1 x# y2 x#")
    assert len(phi) == 64
    verdict = decide(phi, BUDGET.max_steps)
    assert verdict.status == UNAVOIDABLE
    cert = verdict.certificate
    assert isinstance(cert, ZiminDivisionCert)
    assert (cert.m, cert.n) == (1, 3)
    for frag in phi:
        assert is_zimin_factor(apply_symbolic(cert.morphism, frag), 1, 3)

    probe = conjecture2_probe(phi, verdict.status)
    assert str(probe.residual) == "y1 y2 y3 y1 y2"
    assert probe.residual_status == UNAVOIDABLE
    assert [sorted(s.deleted) for s in probe.residual_reduction.steps] == [["y1"], ["y2"], ["y3"]]
    report(9, "the 64-fragment example divides Z(1,3); residual y1 y2 y3 y1 y2 reduces via y1, y2, y3")
