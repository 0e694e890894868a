import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zimrev import morphisms, oracle
from zimrev.formulas import FormulaR, PatternR, Sym, parse
from zimrev.morphisms import SearchBudget, _sorted_frags, occurs
from zimrev.oracle import (
    AVOIDER_FOUND,
    BUDGET_EXHAUSTED,
    FAILED,
    TREE_EXHAUSTED,
    WITNESS_OK,
    _AnchoredMatcher,
    all_words_encounter,
    generate_power_free,
    search_avoiding_word,
    verify_witness_prefix,
)
from zimrev.words import PeriodicSpec, max_exponent, word
from zimrev.zimin import enumerate_fragments, sufficient_length


class TestSearchAvoidingWord:
    def test_square_free_ternary(self):
        report = search_avoiding_word(parse("x x"), 3, 30, SearchBudget(30, 10**6))
        assert report.mode == AVOIDER_FOUND
        assert len(report.word) == 30
        assert max_exponent(report.word) < 2

    def test_x_xmirror_avoided_by_ternary(self):
        report = search_avoiding_word(parse("x x~"), 3, 30, SearchBudget(30, 10**6))
        assert report.mode == AVOIDER_FOUND
        assert occurs(parse("x x~"), report.word, SearchBudget(30, 10**7)) is None

    def test_unavoidable_tree_exhausts_at_sufficient_length(self):
        # every binary word of length 5 encounters x y x~ (it divides the
        # two-way Zimin formula with m = n = 1)
        assert sufficient_length(1, 1, 2) == 5
        report = search_avoiding_word(parse("x y x~"), 2, 5, SearchBudget(5, 10**6))
        assert report.mode == TREE_EXHAUSTED

    def test_budget_exhaustion_reported(self):
        report = search_avoiding_word(parse("x x"), 3, 40, SearchBudget(40, 10))
        assert report.mode == BUDGET_EXHAUSTED
        assert report.nodes == 11
        assert report.word is None

    def test_found_words_reverify(self):
        # the anchored prune is exact, so every word it lets through avoids
        # phi at the image cap: an independent full search finds nothing
        for text in ["x x", "x x~", "x y x y"]:
            phi = parse(text)
            report = search_avoiding_word(phi, 3, 25, SearchBudget(25, 10**6))
            assert report.mode == AVOIDER_FOUND
            assert occurs(phi, report.word, SearchBudget(25, 10**7)) is None

    def test_multi_fragment_formula(self):
        report = search_avoiding_word(parse("x x . y y~"), 3, 20, SearchBudget(20, 10**6))
        assert report.mode == AVOIDER_FOUND

    def test_sound_bound_by_default(self):
        report = search_avoiding_word(parse("x x"), 3, 20)
        assert report.mode == AVOIDER_FOUND
        assert report.params["max_image_len"] == 20

    def test_empty_formula_has_no_avoider(self):
        report = search_avoiding_word(FormulaR(), 3, 10)
        assert report.mode == TREE_EXHAUSTED

    def test_gap_matcher_keeps_tree_and_word(self):
        # y occurs once: the anchored matcher finds its image with one str.find
        # instead of a loop over its lengths; the DFS must not change
        report = search_avoiding_word(parse("x x y x"), 3, 50, SearchBudget(50, 400_000))
        assert report.mode == AVOIDER_FOUND
        assert report.nodes == 265005
        assert "".join(report.word.letters) == "12131213121312312321323132313213213212121222311133"

    def test_exact_prune_accepts_without_occurs(self, monkeypatch):
        # while no completion runs out of budget the anchored prune is exact,
        # and accepting a word runs no full occurrence search
        def refuse(*args, **kwargs):
            raise AssertionError("occurs called on acceptance")

        monkeypatch.setattr(oracle, "occurs", refuse)
        report = search_avoiding_word(parse("x x y x"), 3, 50, SearchBudget(50, 400_000))
        assert report.nodes == 265005
        assert "".join(report.word.letters) == "12131213121312312321323132313213213212121222311133"
        report = search_avoiding_word(parse("x x . y y~"), 3, 20, SearchBudget(20, 10**6))
        assert report.mode == AVOIDER_FOUND

    def test_completion_out_of_budget_ends_the_search(self, monkeypatch):
        # a completion that runs out of budget proves nothing, so the search
        # ends as budget exhausted instead of counting it as "no occurrence"
        runs = []

        def first_run_exhausts(search):
            runs.append(search)
            raise morphisms.SearchBudgetExceeded(1)

        def refuse(*args, **kwargs):
            raise AssertionError("occurs called on the avoider path")

        monkeypatch.setattr(oracle._ConcreteSearch, "run", first_run_exhausts)
        monkeypatch.setattr(oracle, "occurs", refuse)
        report = search_avoiding_word(parse("x x . y y~"), 3, 20, SearchBudget(20, 10**6))
        assert report.mode == BUDGET_EXHAUSTED
        assert report.word is None
        # the first completion runs at node "11", where x x ends
        assert len(runs) == 1 and report.nodes == 2

    def test_completions_share_the_search_budget(self, monkeypatch):
        # every completion runs on what the earlier ones left of max_steps;
        # one that runs out is counted up to its first step over the budget
        spent = []

        class CountedSearch(oracle._ConcreteSearch):
            def run(self):
                try:
                    found = super().run()
                except morphisms.SearchBudgetExceeded as over:
                    spent.append(over.steps)
                    raise
                spent.append(self.steps)
                return found

        monkeypatch.setattr(oracle, "_ConcreteSearch", CountedSearch)
        report = search_avoiding_word(parse("x x . y y~"), 3, 50, SearchBudget(50, 2000))
        assert report.mode == BUDGET_EXHAUSTED
        assert len(spent) > 1
        assert sum(spent) <= 2000 + 1


def _anchored_scan(frags, text, cap):
    """Plain scan: is there an occurrence with images of length <= cap in
    which some fragment's image ends at the last letter of text?"""
    n = len(text)
    env = {}

    def place(fi, anchored):
        if fi == len(frags):
            return anchored
        frag = frags[fi]

        def walk(k, pos):
            if k == len(frag):
                return place(fi + 1, anchored or pos == n)
            s = frag[k]
            if s.var in env:
                seg = env[s.var][::-1] if s.mirrored else env[s.var]
                return text.startswith(seg, pos) and walk(k + 1, pos + len(seg))
            for ln in range(1, min(cap, n - pos) + 1):
                seg = text[pos : pos + ln]
                env[s.var] = seg[::-1] if s.mirrored else seg
                if walk(k + 1, pos + ln):
                    return True
                del env[s.var]
            return False

        return any(walk(0, p) for p in range(n))

    return place(0, False)


_gap_formulas = st.lists(
    # None is a fresh variable, so most formulas have once-occurring ones
    st.lists(st.tuples(st.sampled_from(["x", "y", None]), st.booleans()), min_size=1, max_size=4),
    min_size=1,
    max_size=3,
)


@settings(max_examples=400)
@given(_gap_formulas, st.text("abc", min_size=1, max_size=10))
def test_anchored_matcher_matches_plain_scan(frags, text):
    """The anchored matcher, gaps included, agrees with a plain scan on
    every prefix of text and every cap from 1 to one past its length."""
    fresh = iter(f"g{i}" for i in range(12))
    phi = FormulaR([PatternR(tuple(Sym(var or next(fresh), m) for var, m in frag)) for frag in frags])
    frags = _sorted_frags(phi)
    matcher = _AnchoredMatcher(frags, 10**7)
    for n in range(1, len(text) + 1):
        for cap in range(1, n + 2):
            expected = _anchored_scan(frags, text[:n], cap)
            assert matcher.occurrence_ending_at(text[:n], cap) == expected, (text[:n], cap)


@pytest.mark.parametrize(
    "text",
    [
        "x x . y",
        "x y . y x",
        "x y~ . y x",
        "x x . y y~",
        "x y x . z z",
        "x y x . y~",
        "x x~ . y z y",
        "x x y . y~ x",
        "x y z . z y x",
        "x y . y z . z x",
        "x y . y~ z . z x~",
        "x x . y y . z z",
    ],
)
def test_multi_fragment_avoider_is_the_least_avoiding_word(text, monkeypatch):
    """At the default image cap, the sound bound, the first avoider is the
    lexicographically least word avoiding the formula, and the tree is
    exhausted exactly when no word does; the completion of the other
    fragments runs.  The avoiding words are enumerated length by length with
    a plain scan: a word avoids the formula iff its prefix does and no
    occurrence ends at its last letter."""
    completions = []

    class CountedSearch(oracle._ConcreteSearch):
        def __init__(self, *args, **kwargs):
            completions.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(oracle, "_ConcreteSearch", CountedSearch)
    phi = parse(text)
    frags = list(phi)
    for k in (2, 3):
        avoiders = [""]
        for length in range(1, 9):
            avoiders = [w + a for w in avoiders for a in "123"[:k] if not _anchored_scan(frags, w + a, length)]
            report = search_avoiding_word(phi, k, length)
            if avoiders:
                assert report.mode == AVOIDER_FOUND
                assert "".join(report.word.letters) == min(avoiders), (k, length)
            else:
                assert report.mode == TREE_EXHAUSTED, (k, length)
    assert completions


def test_completion_variable_order_is_computed_once_per_plan(monkeypatch):
    calls = []
    completions = []
    order = morphisms._variable_order

    def counted_order(frags):
        calls.append(1)
        return order(frags)

    class CountedSearch(oracle._ConcreteSearch):
        def __init__(self, *args, **kwargs):
            completions.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(morphisms, "_variable_order", counted_order)
    monkeypatch.setattr(oracle, "_variable_order", counted_order)
    monkeypatch.setattr(oracle, "_ConcreteSearch", CountedSearch)
    frags = _sorted_frags(parse("x y x . y y~ . z x"))
    matcher = _AnchoredMatcher(frags, 10**7)
    assert len(calls) == len(frags)  # one per plan
    found = 0
    for n in range(1, 8):
        for letters in itertools.product("ab", repeat=n):
            found += matcher.occurrence_ending_at("".join(letters), n)
    assert found and completions
    assert len(calls) == len(frags)


class TestAllWordsEncounter:
    def test_z11_at_bound(self):
        assert all_words_encounter(enumerate_fragments(1, 1), 2, 5)

    def test_square_has_short_avoider(self):
        assert not all_words_encounter(parse("x x"), 2, 3)

    def test_single_variable(self):
        assert all_words_encounter(parse("x"), 2, 1)

    def test_guard(self):
        with pytest.raises(ValueError):
            all_words_encounter(parse("x"), 4, 11)


class TestGeneratePowerFree:
    # the node counts and words pin the backtracking order, lowest letter first
    def test_ternary_square_free(self):
        report = generate_power_free(3, Fraction(2), 100)
        assert report.mode == AVOIDER_FOUND
        assert max_exponent(report.word) < 2
        assert report.nodes == 227
        assert "".join(report.word.letters) == (
            "12131231321231213123132131213212312131231321231213212313213121321231213123"
            "13212321312132123121312313"
        )

    def test_four_letter_three_halves(self):
        report = generate_power_free(4, Fraction(3, 2), 200)
        assert report.mode == AVOIDER_FOUND
        assert max_exponent(report.word) < Fraction(3, 2)
        assert report.nodes == 633
        assert "".join(report.word.letters) == (
            "12314213241234214312413214231243213412314213243123413214231241342143123413"
            "24314213412314321342312413214234124314213241231432134124314234132143123421"
            "3241231421341243142341324312342143241231421324312341"
        )

    def test_five_letter_four_thirds(self):
        report = generate_power_free(5, Fraction(4, 3), 60)
        assert report.mode == AVOIDER_FOUND
        assert max_exponent(report.word) < Fraction(4, 3)
        assert report.nodes == 213
        assert "".join(report.word.letters) == "123415243125342135241532143512345213541253142351243152341253"

    def test_budget_exhaustion_reported(self):
        report = generate_power_free(3, Fraction(2), 100, 10)
        assert report.mode == BUDGET_EXHAUSTED
        assert report.nodes == 11
        assert report.word is None

    def test_binary_three_halves_exhausts(self):
        report = generate_power_free(2, Fraction(3, 2), 10)
        assert report.mode == TREE_EXHAUSTED

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_power_free(1, Fraction(2), 10)
        with pytest.raises(ValueError):
            generate_power_free(3, Fraction(1), 10)

    @settings(max_examples=10)
    @given(st.sampled_from([(3, Fraction(2)), (4, Fraction(3, 2)), (5, Fraction(4, 3))]), st.integers(20, 60))
    def test_outputs_reverify_by_exponent_scan(self, qa, length):
        q, alpha = qa
        report = generate_power_free(q, alpha, length)
        assert report.mode == AVOIDER_FOUND
        assert max_exponent(report.word) < alpha


class TestVerifyWitnessPrefix:
    def test_lemma_style_witness(self):
        phi = parse("x y~ . y z . x z")
        report = verify_witness_prefix(PeriodicSpec(word("123")), phi, 300, 30)
        assert report.mode == WITNESS_OK

    def test_two_letter_cycle_vs_xxr(self):
        report = verify_witness_prefix(PeriodicSpec(word("12")), parse("x x~"), 300, 30)
        assert report.mode == WITNESS_OK

    def test_failing_witness_carries_occurrence(self):
        report = verify_witness_prefix(PeriodicSpec(word("1")), parse("x x"), 10, 5)
        assert report.mode == FAILED
        assert report.detail["occurrence"] == {"x": "1"}

    def test_materialization_failure_raises(self):
        from zimrev.words import GeneratedSpec

        spec = GeneratedSpec(3, None, word("123"))
        with pytest.raises(ValueError):
            verify_witness_prefix(spec, parse("x x"), 10, 5)
