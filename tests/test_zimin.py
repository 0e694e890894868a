import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zimrev.decide import ZiminDivisionCert, decide
from zimrev.formulas import EMPTY_FORMULA, FormulaR, PatternR, Sym, normalize, parse, pattern
from zimrev.morphisms import (
    FormulaTarget,
    SearchBudgetExceeded,
    _SymbolicSearch,
    _sorted_frags,
    apply_symbolic,
)
from zimrev.zimin import (
    TEMPLATE_GUARD,
    TemplateTarget,
    divides_zimin,
    enumerate_fragments,
    is_zimin_factor,
    stats,
    sufficient_length,
    template,
)


class TestStats:
    def test_closed_forms(self):
        assert stats(2, 1).fragment_count == 16
        assert stats(2, 1).fragment_length == 5
        assert stats(0, 3).fragment_count == 1
        assert stats(0, 3).fragment_length == 7
        assert stats(1, 0).fragment_count == 2
        assert stats(1, 0).fragment_length == 1

    @given(st.integers(0, 4), st.integers(0, 3))
    def test_template_length_matches_stats(self, m, n):
        assert template(m, n).length == stats(m, n).fragment_length

    def test_template_guard(self):
        # Z(8, 7) is the longest template allowed; nothing longer is built
        assert template(8, 7).length == stats(8, 7).fragment_length == TEMPLATE_GUARD
        for m, n in [(0, 11), (9, 7), (1, 40)]:
            for build in (stats, template):
                with pytest.raises(ValueError, match="over the template guard"):
                    build(m, n)


class TestEnumeration:
    def test_z11(self):
        assert enumerate_fragments(1, 1) == parse("x1 y1 x1 . x1 y1 x1~ . x1~ y1 x1 . x1~ y1 x1~")

    def test_z10(self):
        assert enumerate_fragments(1, 0) == parse("x1 . x1~")

    def test_z20(self):
        assert enumerate_fragments(2, 0) == parse("x1 x2 . x1 x2~ . x1~ x2 . x1~ x2~")

    def test_z0n_is_plain_zimin_word(self):
        assert enumerate_fragments(0, 2) == parse("y1 y2 y1")

    def test_z00_is_empty(self):
        assert enumerate_fragments(0, 0) == EMPTY_FORMULA

    def test_fragment_count_matches_stats(self):
        for m, n in [(1, 0), (2, 0), (1, 1), (2, 1), (1, 2)]:
            assert len(enumerate_fragments(m, n)) == stats(m, n).fragment_count

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_fragments(3, 3)


class TestFactorPredicate:
    def test_examples(self):
        assert is_zimin_factor(pattern("x1~ y1 x1"), 1, 1)
        assert not is_zimin_factor(pattern("x1 x1"), 1, 0)
        assert is_zimin_factor(pattern("y1 x1 y2"), 1, 2)

    def test_foreign_variable_is_false(self):
        assert not is_zimin_factor(pattern("q"), 1, 1)

    def test_mirrored_one_way_is_false(self):
        assert not is_zimin_factor(pattern("y1~"), 1, 1)
        assert is_zimin_factor(pattern("y1"), 1, 1)

    def _signature(self, m, n):
        syms = []
        for i in range(1, m + 1):
            syms.append(Sym(f"x{i}", False))
            syms.append(Sym(f"x{i}", True))
        for j in range(1, n + 1):
            syms.append(Sym(f"y{j}", False))
        return syms

    @pytest.mark.parametrize("m,n", [(1, 0), (2, 0), (1, 1), (2, 1)])
    def test_template_agrees_with_enumeration(self, m, n):
        """The slot predicate equals the factor-of-some-fragment check,
        exhaustively over the signature up to the template length."""
        fragments = enumerate_fragments(m, n)
        length = stats(m, n).fragment_length
        syms = self._signature(m, n)
        for ln in range(1, length + 1):
            for combo in itertools.product(syms, repeat=ln):
                u = PatternR(combo)
                explicit = any(
                    frag[i : i + ln] == combo
                    for frag in fragments
                    for i in range(len(frag) - ln + 1)
                )
                assert is_zimin_factor(u, m, n) == explicit, str(u)


class TestDividesZimin:
    def test_fragment_inclusion(self):
        h = divides_zimin(parse("x y x~"), 1, 1)
        assert h is not None
        img = apply_symbolic(h, pattern("x y x~"))
        assert is_zimin_factor(img, 1, 1)

    def test_image_too_long(self):
        assert divides_zimin(parse("x x~"), 1, 0) is None

    def test_empty_formula_divides(self):
        assert divides_zimin(EMPTY_FORMULA, 0, 0) is not None

    def test_nothing_nonempty_divides_z00(self):
        assert divides_zimin(parse("x"), 0, 0) is None

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)])
    def test_zimin_chain_divisibility(self, m, n):
        """Z(m, n) divides Z(m, n+1), and Z(m-1, n) divides Z(m, n)."""
        phi = enumerate_fragments(m, n)
        assert divides_zimin(phi, m, n + 1) is not None
        assert divides_zimin(phi, m + 1, n) is not None

    def test_division_verifies_against_template(self):
        phi = parse("x1 y1 x1~ . y1 x1")
        h = divides_zimin(phi, 1, 1)
        assert h is not None
        for frag in phi:
            assert is_zimin_factor(apply_symbolic(h, frag), 1, 1)

    @pytest.mark.parametrize("m,n", [(1, 0), (1, 1), (2, 0), (1, 2), (2, 1)])
    def test_template_division_agrees_with_explicit_division(self, m, n):
        """Dual route: dividing the implicit template must give the same
        morphism as dividing the enumerated fragment formula, over a small
        universe.  The template explores each orientation class of X marks
        once and charges it one step, so it never takes more steps than the
        explicit target, and takes fewer in total wherever a class has
        several members."""
        import itertools as it

        from zimrev.morphisms import divides
        from zimrev.formulas import FormulaR, PatternR, Sym

        target = enumerate_fragments(m, n)
        template_target = TemplateTarget(template(m, n))
        explicit_target = FormulaTarget(target)
        cap = template(m, n).length
        totals = [0, 0]
        syms = [Sym("x", False), Sym("x", True), Sym("y", False), Sym("y", True)]
        for length in range(1, 5):
            for combo in it.product(syms, repeat=length):
                phi = FormulaR([PatternR(combo)])
                via_template = divides_zimin(phi, m, n)
                via_fragments = divides(phi, target)
                assert (via_template and via_template.to_json()) == (
                    via_fragments and via_fragments.to_json()
                ), str(phi)
                frags = _sorted_frags(phi)
                on_template = _SymbolicSearch(frags, template_target, cap, 10**7)
                on_fragments = _SymbolicSearch(frags, explicit_target, cap, 10**7)
                on_template.run()
                on_fragments.run()
                assert on_template.steps <= on_fragments.steps, str(phi)
                totals[0] += on_template.steps
                totals[1] += on_fragments.steps
        if (m, n) == (1, 0):  # one X slot: every class is a single candidate
            assert totals == [4, 4]
        else:
            assert totals[0] < totals[1]

    def test_step_budget_edge_on_a_sharp_window(self):
        """A failed orientation class of X marks costs one step, like any
        candidate, plus the steps of its one exploration: the sharp window
        needs exactly 104 steps."""
        marks = itertools.product(("", "~"), repeat=3)
        phi = parse(" . ".join("y1 x1%s x2%s x3%s y2" % bits for bits in marks))
        h = divides_zimin(phi, 3, 2, 104)
        assert h.to_json() == {v: v for v in ("x1", "x2", "x3", "y1", "y2")}
        with pytest.raises(SearchBudgetExceeded) as info:
            divides_zimin(phi, 3, 2, 103)
        assert info.value.steps == 104

    def test_step_budget_edge_on_an_absence_proof(self):
        phi = parse("a c c b a d c d e c d e e b")
        assert divides_zimin(phi, 0, 5, 1209) is None
        with pytest.raises(SearchBudgetExceeded) as info:
            divides_zimin(phi, 0, 5, 1208)
        assert info.value.steps == 1209

    def test_step_budget_edge_with_a_two_way_variable(self):
        """Each failed orientation class of X marks costs one step plus its
        one exploration, so this division is found in 10355 steps; charging
        every member of a class as if it had been searched would spend 10**7
        steps without finding it."""
        phi = parse("e~ c . d~ c d~ a~ . b d~ c b a")
        verdict = decide(phi)
        assert (verdict.status, verdict.m, verdict.n) == ("unavoidable", 1, 4)
        assert isinstance(verdict.certificate, ZiminDivisionCert)
        phi_n = normalize(phi)
        for frag in phi_n:
            assert is_zimin_factor(apply_symbolic(verdict.certificate.morphism, frag), 1, 4)
        assert divides_zimin(phi_n, 1, 4, 10355).to_json() == verdict.certificate.morphism.to_json()
        with pytest.raises(SearchBudgetExceeded) as info:
            divides_zimin(phi_n, 1, 4, 10354)
        assert info.value.steps == 10355


class TestDivisionStepPanel:
    """Every pattern of 1-4 symbols over x, x~, y, y~ against a division
    target, with the cap at its fragment length: how many divide it and how
    many candidates the searches try, each orientation class of X marks
    counted once."""

    @pytest.mark.parametrize(
        "target,cap,expected",
        [
            (lambda: TemplateTarget(template(2, 1)), 5, (28, 1868)),  # merged X classes
            (lambda: TemplateTarget(template(1, 2)), 7, (28, 6220)),
            (lambda: TemplateTarget(template(0, 3)), 7, (20, 6580)),  # merge-free
            (lambda: FormulaTarget(parse("a b a~ c . c~ b a . b b~ a")), 5, (32, 834)),
        ],
        ids=["Z(2,1)", "Z(1,2)", "Z(0,3)", "formula"],
    )
    def test_step_counts_of_every_short_pattern(self, target, cap, expected):
        target = target()
        syms = [Sym("x"), Sym("x", True), Sym("y"), Sym("y", True)]
        found = steps = 0
        for length in range(1, 5):
            for combo in itertools.product(syms, repeat=length):
                search = _SymbolicSearch(_sorted_frags(FormulaR([PatternR(combo)])), target, cap, 10**7)
                found += search.run() is not None
                steps += search.steps
        assert (found, steps) == expected


class TestSufficientLength:
    def test_paper_values(self):
        assert sufficient_length(1, 0, 2) == 1
        assert sufficient_length(1, 1, 2) == 5
        assert sufficient_length(0, 1, 2) == 1
        assert sufficient_length(0, 2, 2) == 5

    def test_base_case_is_m(self):
        for m in range(5):
            assert sufficient_length(m, 0, 3) == m

    def test_recursion_step(self):
        ell = sufficient_length(1, 1, 2)
        assert sufficient_length(1, 2, 2) == 2**ell * (ell + 1) + ell

    def test_big_integers(self):
        # n = 3 already explodes; exact arithmetic must not overflow
        value = sufficient_length(1, 3, 2)
        assert value > 10**40


def test_template_render():
    assert template(1, 1).render() == "X1 y1 X1"
    assert template(2, 0).render() == "X1 X2"
    assert template(0, 2).render() == "y1 y2 y1"
