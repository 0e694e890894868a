import pytest

from zimrev.classic import (
    adjacency_graph,
    decide_classic,
    delete,
    free_sets,
    is_reducible,
)
from zimrev.formulas import EMPTY_FORMULA, FormulaR, formula_vars, parse
from zimrev.morphisms import apply_symbolic
from zimrev.zimin import divides_zimin, enumerate_fragments, is_zimin_factor, stats, template

Z3 = parse("y1 y2 y1 y3 y1 y2 y1")


class TestAdjacencyGraph:
    def test_xyx(self):
        g = adjacency_graph(parse("x y x"))
        assert g.edges == {("x", "y"), ("y", "x")}
        # x_left shares a component with y_right, and y_left with x_right
        assert g.left("x") == g.right("y")
        assert g.left("y") == g.right("x")
        assert g.left("x") != g.left("y")

    def test_xx_single_component(self):
        g = adjacency_graph(parse("x x"))
        assert g.edges == {("x", "x")}
        assert g.left("x") == g.right("x")

    def test_unit_fragments_have_no_edges(self):
        g = adjacency_graph(parse("x . y"))
        assert g.edges == set()

    def test_mirrored_rejected(self):
        with pytest.raises(ValueError):
            adjacency_graph(parse("x x~"))


class TestFreeSets:
    def test_xyx(self):
        assert set(free_sets(parse("x y x"))) == {frozenset({"x"}), frozenset({"y"})}

    def test_xx_has_none(self):
        assert free_sets(parse("x x")) == []

    def test_z3(self):
        assert set(free_sets(Z3)) == {
            frozenset({"y1"}),
            frozenset({"y2"}),
            frozenset({"y3"}),
            frozenset({"y2", "y3"}),
        }


class TestDelete:
    def test_examples(self):
        assert delete(parse("x y x"), frozenset({"y"})) == parse("x x")
        assert delete(parse("x y x"), frozenset({"x"})) == parse("y")
        assert delete(Z3, frozenset({"y1"})) == parse("y2 y3 y2")

    def test_not_free_rejected(self):
        with pytest.raises(ValueError):
            delete(parse("x x"), frozenset({"x"}))


class TestReducibility:
    def test_z3_chain(self):
        chain = is_reducible(Z3)
        assert chain is not None
        assert [sorted(s.deleted) for s in chain.steps] == [["y1"], ["y2"], ["y3"]]

    def test_xx_irreducible(self):
        assert is_reducible(parse("x x")) is None

    def test_empty_formula_trivially_reducible(self):
        chain = is_reducible(EMPTY_FORMULA)
        assert chain is not None and chain.steps == ()

    def test_greedy_dead_end_requires_backtracking(self):
        # deleting x3 first from Z3 leaves this irreducible residue
        assert is_reducible(parse("x1 x2 x1 x1 x2 x1")) is None

    def test_chain_steps_are_valid(self):
        chain = is_reducible(parse("y1 y2 y3 y1 y2"))
        assert chain is not None
        current = parse("y1 y2 y3 y1 y2")
        for step in chain.steps:
            assert step.formula == current
            current = delete(current, step.deleted)
        assert current == EMPTY_FORMULA


class TestZiminWords:
    """The Zimin word Z_n is Z(0, n), one fragment over y1..yn."""

    def test_values(self):
        assert enumerate_fragments(0, 2) == parse("y1 y2 y1")
        assert enumerate_fragments(0, 3) == Z3
        assert enumerate_fragments(0, 0) == EMPTY_FORMULA

    def test_lengths(self):
        for n in range(1, 7):
            assert template(0, n).length == stats(0, n).fragment_length == 2**n - 1

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            template(0, -1)


class TestDecideClassic:
    def test_xyx_unavoidable(self):
        decision = decide_classic(parse("x y x"))
        assert decision.unavoidable
        assert decision.reduction is not None

    def test_xx_avoidable(self):
        decision = decide_classic(parse("x x"))
        assert not decision.unavoidable
        assert decision.reduction is None

    def test_five_letter_example(self):
        phi = parse("y1 y2 y3 y1 y2")
        assert decide_classic(phi).unavoidable
        division = divides_zimin(phi, 0, 3)
        assert all(is_zimin_factor(apply_symbolic(division, frag), 0, 3) for frag in phi)

    def test_empty_formula_unavoidable(self):
        assert decide_classic(EMPTY_FORMULA).unavoidable

    def test_reducible_iff_unavoidable_small_universe(self):
        """Cross-check the two classic characterizations, reduction and
        division into Z(0, n), on every pattern of length <= 4 over two
        variables and every two-fragment formula whose fragments have length
        <= 3 over three."""
        import itertools

        from zimrev.formulas import PatternR, Sym

        def patterns(names, top):
            for length in range(1, top + 1):
                for combo in itertools.product(names, repeat=length):
                    yield PatternR(tuple(Sym(v) for v in combo))

        formulas = [FormulaR([p]) for p in patterns("xy", 4)]
        formulas += [FormulaR(pair) for pair in itertools.combinations(patterns("xyz", 3), 2)]
        for phi in formulas:
            divided = divides_zimin(phi, 0, len(formula_vars(phi))) is not None
            assert divided == (is_reducible(phi) is not None), str(phi)

