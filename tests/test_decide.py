import functools
import hashlib
import importlib
import itertools
import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zimrev.decide import (
    AVOIDABLE,
    EVIDENCE_LENGTH,
    UNAVOIDABLE,
    UNKNOWN,
    WITNESS_PREFIX_LEN,
    ContrapositiveCert,
    LemmaCert,
    ZiminDivisionCert,
    check_doubled_pattern,
    check_length_bound,
    conjecture2_probe,
    decide,
    lemma_all_two_way,
    lemma_flat,
    lemma_one_way_twice,
    lemma_two_way_middle,
)
from zimrev.formulas import (
    EMPTY_FORMULA,
    FormulaR,
    PatternR,
    Sym,
    d_reverse,
    formula_vars,
    normalize,
    parse,
    pattern,
    rename_vars,
)
from zimrev.morphisms import SearchBudget
from zimrev.oracle import WITNESS_OK, generate_power_free, verify_witness_prefix
from zimrev.words import GeneratedSpec, PeriodicSpec, ProductSpec, word
from zimrev.zimin import is_zimin_factor, template
from zimrev.morphisms import apply_symbolic

# the package re-exports the decide function under the module's name
decide_mod = importlib.import_module("zimrev.decide")


def sharp_formula(slot_text: str) -> FormulaR:
    """Expand '#'-marked slots into all orientation choices, e.g. 'x# y1 x#'."""
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


class TestDecide:
    def test_xyxr_unavoidable(self):
        v = decide(parse("x y x~"))
        assert v.status == UNAVOIDABLE
        assert isinstance(v.certificate, ZiminDivisionCert)
        assert (v.m, v.n) == (1, 1)
        h = v.certificate.morphism
        for frag in parse("x y x~"):
            assert is_zimin_factor(apply_symbolic(h, frag), 1, 1)

    def test_xxr_avoidable(self):
        v = decide(parse("x x~"))
        assert v.status == AVOIDABLE
        assert (v.m, v.n) == (1, 0)

    def test_classic_case_goes_through_zimin_word(self):
        v = decide(parse("x y x"))
        assert v.status == UNAVOIDABLE
        assert (v.m, v.n) == (0, 2)

    def test_square_avoidable_m0(self):
        v = decide(parse("x x"))
        assert v.status == AVOIDABLE
        assert isinstance(v.certificate, ContrapositiveCert)

    def test_empty_formula_unavoidable(self):
        assert decide(EMPTY_FORMULA).status == UNAVOIDABLE

    def test_division_step_budget_exceeded_is_unknown(self):
        v = decide(parse("x y x~"), max_steps=1)
        assert v.status == UNKNOWN and v.certificate is None
        assert v.reason == "division search exceeded the step budget at the sound image bound"

    def test_template_over_the_guard_is_unknown_without_search(self, monkeypatch):
        # eleven one-way variables: Z(0, 11) has length 2047
        monkeypatch.setattr(
            decide_mod, "divides_zimin", lambda *a: pytest.fail("division search ran")
        )
        v = decide(parse("a b c d e f g h i j k"))
        assert (v.status, v.m, v.n, v.certificate) == (UNKNOWN, 0, 11, None)
        assert v.reason.startswith("Z(0,11) has fragment length 2047, over the template guard")

    def test_section5_formula_divides_z13(self):
        phi = sharp_formula("x# y1 x# y2 x# y3 x# y1 x# y2 x#")
        v = decide(phi)
        assert v.status == UNAVOIDABLE
        assert isinstance(v.certificate, ZiminDivisionCert)
        assert (v.certificate.m, v.certificate.n) == (1, 3)

    def test_avoidable_with_two_one_way_gets_contrapositive_or_lemma(self):
        v = decide(parse("x y x y x"))  # length 5 over 2 one-way vars
        assert v.status == AVOIDABLE

    def test_evidence_attachment(self):
        v = decide(parse("x x"), evidence=True)
        assert v.status == AVOIDABLE
        assert v.evidence is not None
        avoider = word(v.evidence["word"])
        from zimrev.morphisms import occurs

        assert occurs(parse("x x"), avoider, SearchBudget(len(avoider), 10**6)) is None

    def test_verdict_json_shape(self):
        data = decide(parse("x y x~")).to_json()
        assert data["status"] == "unavoidable"
        assert data["certificate"]["kind"] == "zimin_division"
        assert set(data) >= {"formula", "m", "n", "status", "certificate"}

    def test_multi_fragment_classic_formulas(self):
        # x y . y x reduces (delete x, then y) and divides y1 y2 y1
        assert decide(parse("x y . y x")).status == UNAVOIDABLE
        # adding the square x x makes the adjacency graph one component
        assert decide(parse("x y . y x . x x")).status == AVOIDABLE

    def test_multi_fragment_with_reversal(self):
        # both fragments embed into the two-way Zimin formula at m=1, n=1
        assert decide(parse("x y x~ . y x")).status == UNAVOIDABLE
        # a doubled one-way variable in one fragment blocks the division
        assert decide(parse("y x y . x~")).status == AVOIDABLE

    def test_square_free_budget_exhaustion_is_not_fatal(self):
        # the flat z x y z x y exhausts the square-free absence proof's step
        # budget; decide must move on to the rest of the lemma battery
        v = decide(parse("z x~ y~ z x y"))
        assert v.status == AVOIDABLE
        assert (v.m, v.n) == (2, 1)
        assert isinstance(v.certificate, LemmaCert)
        assert v.certificate.name == "one_way_twice"

    def test_mirror_free_formulas_match_classic_decision(self):
        from zimrev.classic import decide_classic

        for text in ["x", "x x", "x y x", "x y x y", "x y y x", "x y . y x", "x y z x z"]:
            phi = parse(text)
            expected = UNAVOIDABLE if decide_classic(phi).unavoidable else AVOIDABLE
            assert decide(phi).status == expected, text


class TestGoldenCertificates:
    """Every byte of decide's JSON, pinned by digest: a change to a status,
    a morphism, a witness or a reason shows here."""

    @staticmethod
    def _digest(formulas):
        blob = json.dumps([decide(phi).to_json() for phi in formulas], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_every_short_binary_pattern(self):
        # 28 zimin_division, 84 theorem9_contrapositive and 228 lemma
        # certificates over the 340 patterns of 1-4 symbols
        syms = [Sym("x"), Sym("x", True), Sym("y"), Sym("y", True)]
        formulas = [
            FormulaR([PatternR(combo)])
            for length in range(1, 5)
            for combo in itertools.product(syms, repeat=length)
        ]
        assert self._digest(formulas) == (
            "c3c8f17521e45d5ae1127d8b59621a10620043ccb153b6da9b989592e0074611"
        )

    def test_sharp_windows_of_a_template(self):
        # the 44 distinct windows of Z(2, 2), every X slot in both
        # orientations: divisions through merged-X orientation classes
        slots = template(2, 2).slots
        windows = sorted({slots[i:j] for i in range(len(slots)) for j in range(i + 2, len(slots) + 1)})
        formulas = [
            sharp_formula(" ".join(f"x{i}#" if kind == "x" else f"y{i}" for kind, i in window))
            for window in windows
        ]
        assert self._digest(formulas) == (
            "79bf9aa54a326de4b45634732b3bb9a43087cfd3d0599de6e840e2be8c2a9673"
        )


class TestCorollaryChecks:
    def test_doubled(self):
        assert check_doubled_pattern(pattern("x y~ x y"))
        assert not check_doubled_pattern(pattern("x y x"))
        assert check_doubled_pattern(pattern("x x~"))

    def test_length_bound(self):
        assert check_length_bound(pattern("x x~"))
        assert not check_length_bound(pattern("x y x"))
        assert check_length_bound(pattern("x y x~ y"))


class TestLemmas:
    def test_two_way_middle_fires(self):
        cert = lemma_two_way_middle(parse("x y~ . y z . x z"))
        assert cert is not None and cert.name == "two_way_middle"
        assert cert.witness == PeriodicSpec(word("123"))

    def test_two_way_middle_needs_all_three_factors(self):
        assert lemma_two_way_middle(parse("x y~ . y z")) is None

    def test_two_way_middle_needs_two_way_middle_var(self):
        assert lemma_two_way_middle(parse("x y . y z . x z")) is None

    def test_all_two_way_fires_on_xxr(self):
        cert = lemma_all_two_way(parse("x x~"))
        assert cert is not None and cert.name == "all_two_way"
        assert cert.witness == PeriodicSpec(word("12"))

    def test_all_two_way_fires_n2(self):
        cert = lemma_all_two_way(parse("x y~ y x~"))
        assert cert is not None
        assert cert.witness == PeriodicSpec(word("123"))

    def test_all_two_way_requires_no_one_way(self):
        assert lemma_all_two_way(parse("x y x~")) is None

    def test_all_two_way_requires_repeat(self):
        assert lemma_all_two_way(parse("x x~ . y y~")) is not None
        assert lemma_all_two_way(parse("x . x~")) is None

    def test_all_two_way_single_variable_needs_adjacent_mirror_pair(self):
        # x -> 12 sends x x . x~ to 1212 and 21, both factors of (12)^omega
        assert lemma_all_two_way(parse("x x . x~")) is None
        assert lemma_all_two_way(parse("x~ x . x")) is not None

    def test_one_way_twice_fires(self):
        cert = lemma_one_way_twice(parse("y x y . x~"))
        assert cert is not None and cert.name == "one_way_twice"
        assert isinstance(cert.witness, ProductSpec)
        left = cert.witness.left
        assert isinstance(left, GeneratedSpec)
        assert left.alphabet_size == 4  # 2^(2-1) + 2

    def test_one_way_twice_needs_every_one_way_doubled(self):
        assert lemma_one_way_twice(parse("x y x~")) is None

    def test_one_way_twice_trivial_double(self):
        assert lemma_one_way_twice(parse("y y . x x~")) is not None

    def test_flat_fires_when_flattening_avoidable(self):
        cert = lemma_flat(parse("x y x~ y"))
        assert cert is not None and cert.name == "flat"

    def test_flat_does_not_fire_when_flattening_unavoidable(self):
        assert lemma_flat(parse("x y x~")) is None

    def test_flat_fires_on_xxr(self):
        assert lemma_flat(parse("x x~")) is not None

    def test_flat_over_the_template_guard_gives_no_witness(self):
        # eleven variables: the flattening would divide into Z(0, 11), length 2047
        start = time.perf_counter()
        assert lemma_flat(parse("a b c d e f g h i j k")) is None
        assert time.perf_counter() - start < 1

    def test_flat_decides_the_flattening_without_a_division_search(self, monkeypatch):
        # the reduction chain decides the flattening; its division into
        # Z(0, 10) ran 16 s
        monkeypatch.setattr(
            decide_mod, "divides_zimin", lambda *a: pytest.fail("division search ran")
        )
        cert = lemma_flat(normalize(parse("v0 v0 v4 v5~ v9 v1 v8~ . v7 v3 v2 . v7~ v8 v6 v1~")))
        assert cert is not None and cert.name == "flat"


class TestWitnesses:
    def test_lemma_witnesses_pass_bounded_check(self):
        cases = [
            ("x y~ . y z . x z", lemma_two_way_middle),
            ("x x~", lemma_all_two_way),
            ("y x y . x~", lemma_one_way_twice),
            ("x y x~ y", lemma_flat),
        ]
        for text, rule in cases:
            phi = parse(text)
            cert = rule(phi)
            assert cert is not None, text
            report = verify_witness_prefix(cert.witness, phi, prefix_len=120, image_bound=12)
            assert report.mode == WITNESS_OK, (text, report.detail)

    def test_flat_witness_budget_exhaustion_means_no_witness(self, monkeypatch):
        # cached before the budget shrinks
        decide_mod._power_free_component(3, Fraction(2), WITNESS_PREFIX_LEN)
        monkeypatch.setattr(decide_mod, "_WITNESS_STEPS", 1)
        monkeypatch.setattr(
            decide_mod, "search_avoiding_word", lambda *a: pytest.fail("avoider search ran")
        )
        # the uncached function: a cached witness would skip the absence proof
        assert decide_mod._flat_witness.__wrapped__(parse("x x")) is None

    def test_evidence_budget_exhaustion_falls_back_to_avoider_search(self, monkeypatch):
        # cached before the budget shrinks
        decide_mod._power_free_component(3, Fraction(2), EVIDENCE_LENGTH)
        monkeypatch.setattr(decide_mod, "_WITNESS_STEPS", 1)
        found = decide_mod._search_evidence(parse("x x"))
        assert found is not None and found.alphabet_size == 3

    def test_evidence_square_free_fast_path(self, monkeypatch):
        monkeypatch.setattr(
            decide_mod, "search_avoiding_word", lambda *a: pytest.fail("avoider search ran")
        )
        found = decide_mod._search_evidence(parse("x x"))
        assert found is not None
        assert (found.alphabet_size, found.length) == (3, EVIDENCE_LENGTH)
        assert found.word == generate_power_free(3, Fraction(2), EVIDENCE_LENGTH).word

    def test_evidence_on_every_avoidable_verdict(self):
        # m = 1, n = 3: the lemma battery decides, and evidence still rides along
        v = decide(parse("y y z z w w x x~"), evidence=True)
        assert v.status == AVOIDABLE
        assert (v.m, v.n) == (1, 3)
        assert v.certificate.name == "doubled"
        assert v.evidence is not None and v.evidence["kind"] == "evidence_only"

    def test_single_fragment_flat_witness_ends(self):
        # m = 1, n = 2, no isolated variable: the flat witness comes from the
        # avoider search; re-checking each accepted word with occurs at 10^6
        # steps would take minutes
        phi = parse("w z y z w~ z y")
        started = time.monotonic()
        v = decide(phi)
        assert time.monotonic() - started < 20
        assert v.status == AVOIDABLE
        assert v.certificate.name == "doubled"
        report = verify_witness_prefix(v.certificate.witness, normalize(phi), 300, 30)
        assert report.mode == WITNESS_OK

    def test_single_fragment_evidence_ends(self):
        # the square-free prefix's absence proof runs out of budget, and the
        # avoider search gives the evidence word
        started = time.monotonic()
        v = decide(parse("z w x y y"), evidence=True)
        assert time.monotonic() - started < 20
        assert v.status == AVOIDABLE
        assert v.evidence is not None and v.evidence["kind"] == "evidence_only"

    def test_multi_fragment_evidence_ends(self):
        # three one-way variables, so the verdict is unknown and an evidence
        # search runs; its fragment completions spend the search's own budget
        started = time.monotonic()
        v = decide(parse("v3 v2~ . v3 v5 v3~ v1~ v0~ v5 v3~ v5~"))
        assert time.monotonic() - started < 20
        assert v.status == UNKNOWN
        assert (v.m, v.n) == (2, 3)

    def test_decide_certificates_never_contradict_division(self):
        # an unavoidable verdict and a verified lemma witness must not coexist
        for text in ["x y x~", "x x~", "x y~ x", "x x", "x y x y"]:
            v = decide(parse(text))
            if v.status == UNAVOIDABLE:
                assert not isinstance(v.certificate, LemmaCert)


class TestConjecture2Probe:
    def test_section5_example(self):
        phi = sharp_formula("x# y1 x# y2 x# y3 x# y1 x# y2 x#")
        report = conjecture2_probe(phi, "unavoidable")
        assert str(report.residual) == "y1 y2 y3 y1 y2"
        assert report.residual_status == UNAVOIDABLE
        assert [sorted(s.deleted) for s in report.residual_reduction.steps] == [["y1"], ["y2"], ["y3"]]

    def test_single_residual_variable(self):
        report = conjecture2_probe(parse("x y x~"))
        assert str(report.residual) == "y"
        assert report.residual_status == UNAVOIDABLE

    def test_empty_residual_unavoidable_vacuously(self):
        report = conjecture2_probe(parse("x x~"))
        assert report.residual == EMPTY_FORMULA
        assert report.residual_status == UNAVOIDABLE

    def test_residual_over_the_template_guard_is_unknown(self):
        # Z(0, 11) is over the guard: no division runs, as in decide
        started = time.perf_counter()
        report = conjecture2_probe(parse("a b c d e f g h i j k"))
        assert time.perf_counter() - started < 1
        assert report.residual_status == UNKNOWN
        assert report.residual_reduction is None
        assert decide(parse("a b c d e f g h i j k")).status == UNKNOWN


# ---------------------------------------------------------------------------
# Properties

vars_st = st.sampled_from(["x", "y"])
syms_st = st.builds(Sym, vars_st, st.booleans())
patterns_st = st.lists(syms_st, min_size=1, max_size=4).map(lambda s: PatternR(tuple(s)))
formulas_st = st.lists(patterns_st, min_size=1, max_size=2).map(FormulaR)


@settings(max_examples=40)
@given(formulas_st)
def test_decide_invariant_under_renaming(phi):
    renamed = rename_vars(phi, {"x": "u", "y": "v"})
    assert decide(phi).status == decide(renamed).status


@settings(max_examples=40)
@given(formulas_st)
def test_decide_invariant_under_normalization_input(phi):
    from zimrev.formulas import normalize

    assert decide(phi).status == decide(normalize(phi)).status


# ---------------------------------------------------------------------------
# The symmetries avoidability respects: renaming, the orientation swap of one
# variable, and global d-reversal; over the binary corpus and over every
# single fragment of length 4 that uses all of x, y and z.

CORPUS = Path(__file__).parent / "binary_patterns.jsonl"


def _renamings(phi, letters="xy"):
    names = sorted(formula_vars(phi))
    for target in itertools.permutations(letters, len(names)):
        yield rename_vars(phi, dict(zip(names, target)))


def _orientation_swaps(phi):
    for name in sorted(formula_vars(phi)):
        yield FormulaR([PatternR(tuple(s.toggled() if s.var == name else s for s in f)) for f in phi])


def _d_reversal(phi):
    yield FormulaR([d_reverse(f) for f in phi])


def _orbits(formulas, maps):
    """The orbits of the formulas under the maps; the formulas must be closed
    under them."""
    members = set(formulas)
    orbits = []
    seen = set()
    for phi in formulas:
        if phi in seen:
            continue
        orbit = {phi}
        stack = [phi]
        while stack:
            current = stack.pop()
            for move in maps:
                for image in move(current):
                    assert image in members, f"{image} from {current}"
                    if image not in orbit:
                        orbit.add(image)
                        stack.append(image)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def test_decide_respects_the_three_symmetries():
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    formulas = [parse(entry["formula"]) for entry in entries]
    symmetries = (_renamings, _orientation_swaps, _d_reversal)
    for maps, count in [
        ((_renamings,), 170),
        ((_renamings, _orientation_swaps), 50),
        ((_renamings, _d_reversal), 95),
        (symmetries, 35),
    ]:
        assert len(_orbits(formulas, maps)) == count
    statuses = {phi: {decide(phi).status, entry["expected_status"]} for entry, phi in zip(entries, formulas)}
    for orbit in _orbits(formulas, symmetries):
        assert len(set().union(*(statuses[phi] for phi in orbit))) == 1


def test_decide_respects_the_three_symmetries_over_three_variables():
    syms = [Sym(var, mirrored) for var in "xyz" for mirrored in (False, True)]
    formulas = [
        FormulaR([PatternR(combo)])
        for combo in itertools.product(syms, repeat=4)
        if {s.var for s in combo} == {"x", "y", "z"}
    ]
    assert len(formulas) == 576
    renamings = functools.partial(_renamings, letters="xyz")
    symmetries = (renamings, _orientation_swaps, _d_reversal)
    for maps, count in [
        ((renamings,), 96),
        ((renamings, _orientation_swaps), 12),
        ((renamings, _d_reversal), 52),
        (symmetries, 8),
    ]:
        assert len(_orbits(formulas, maps)) == count
    statuses = {phi: decide(phi).status for phi in formulas}
    assert Counter(statuses.values()) == {AVOIDABLE: 288, UNAVOIDABLE: 288}
    for orbit in _orbits(formulas, symmetries):
        assert len({statuses[phi] for phi in orbit}) == 1
