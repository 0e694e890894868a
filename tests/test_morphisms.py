import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zimrev import morphisms
from zimrev.formulas import FormulaR, PatternR, Sym, normalize, parse, pattern
from zimrev.morphisms import (
    ConcreteMorphism,
    SearchBudget,
    SearchBudgetExceeded,
    SymbolicMorphism,
    WordTarget,
    _ConcreteSearch,
    _sorted_frags,
    apply_concrete,
    apply_symbolic,
    compose,
    divides,
    equivalent,
    occurs,
    occurs_common_image,
    pattern_is_factor_of_formula,
)
from zimrev.oracle import generate_power_free
from zimrev.words import GLYPHS, Word, is_factor, reverse, word
from zimrev.zimin import divides_zimin, enumerate_fragments

FULL = SearchBudget(max_image_len=64, max_steps=10**7)


def test_a_fragment_that_cannot_fit_builds_no_search(monkeypatch):
    # images are nonempty, so a fragment longer than every target fragment
    # (the word, for occurs) has nowhere to start: None at 0 steps
    class NoSearch:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a search was built")

    monkeypatch.setattr(morphisms, "_SymbolicSearch", NoSearch)
    monkeypatch.setattr(morphisms, "_ConcreteSearch", NoSearch)
    assert divides_zimin(parse("x y x y"), 0, 2) is None  # Z(0, 2) = y1 y2 y1
    assert divides_zimin(parse("x x~ . y"), 1, 0, max_steps=1) is None
    assert divides(parse("x y z . x"), parse("x y . y z")) is None
    assert divides(parse("x"), FormulaR()) is None
    assert occurs(parse("x y x"), word("ab")) is None
    assert occurs_common_image(parse("x . y y y"), word("ab"), SearchBudget(1, 1)) is None
    with pytest.raises(AssertionError):  # a fragment that fits still searches
        divides(parse("x y . z"), parse("x y . y z"))
    with pytest.raises(AssertionError):
        occurs(parse("x y"), word("ab"))


def cm(**images):
    return ConcreteMorphism({k: word(v) for k, v in images.items()})


def sm(**images):
    return SymbolicMorphism({k: pattern(v) for k, v in images.items()})


class TestApply:
    def test_apply_concrete_examples(self):
        assert apply_concrete(cm(x="ab"), pattern("x x~")) == word("abba")
        assert apply_concrete(cm(x="a"), pattern("x x~")) == word("aa")
        assert apply_concrete(cm(x="ab", y="c"), pattern("x y x")) == word("abcab")

    def test_apply_concrete_unassigned(self):
        with pytest.raises(ValueError):
            apply_concrete(cm(x="a"), pattern("x y"))

    def test_apply_symbolic_examples(self):
        # the d-reversal of h(y) = y z is z~ y~
        assert apply_symbolic(sm(y="y z"), pattern("y~")) == pattern("z~ y~")
        assert apply_symbolic(sm(x="x"), pattern("x~")) == pattern("x~")
        assert apply_symbolic(sm(x="a b~"), pattern("x x~")) == pattern("a b~ b a~")

    def test_non_erasing_enforced(self):
        with pytest.raises(ValueError):
            ConcreteMorphism({"x": word("")})


class TestOccurs:
    def test_direct_witnesses(self):
        h = occurs(parse("x x"), word("abab"))
        assert h is not None and apply_concrete(h, pattern("x x")) in _factor_set(word("abab"))
        h = occurs(parse("x x~"), word("abba"))
        assert h is not None
        img = apply_concrete(h, pattern("x x~"))
        assert is_factor(img, word("abba"))

    def test_no_occurrence_in_short_word(self):
        assert occurs(parse("x y x"), word("ab")) is None

    def test_mirror_needs_reversed_image(self):
        # "ab" has no square and no reversed repeat
        assert occurs(parse("x x~"), word("ab")) is None

    def test_square_free_words_avoid_x_xmirror(self):
        # u followed by reverse(u) always welds a square at the junction
        phi = parse("x x~")
        for w in _ternary_square_free_words(10):
            assert occurs(phi, w, SearchBudget(10, 10**6)) is None

    def test_empty_formula_occurs_everywhere(self):
        h = occurs(FormulaR(), word(""))
        assert h is not None and h.assignment == {}

    def test_sound_bound_by_default(self):
        # the only repeated letters are 34 apart, so an occurrence of x y x
        # needs |x| + |y| = 34: none has both images within 16 letters
        u = word(GLYPHS[:33])
        w = u + word(GLYPHS[33]) + u
        for budget in (None, SearchBudget(max_steps=10**7)):
            h = occurs(parse("x y x"), w, budget)
            assert h.assignment == {"x": word("1"), "y": word(GLYPHS[1:34])}
        assert occurs(parse("x y x"), w, SearchBudget(16)) is None

    def test_budget_exhaustion_raises(self):
        # no cube in the word, so the search must grind through candidates
        with pytest.raises(SearchBudgetExceeded):
            occurs(parse("x x x"), word("aabbaabbaabb"), SearchBudget(12, 3))

    def test_pruned_candidates_still_cost_one_step_each(self):
        # x y x y is absent from a square-free word; the absence proof at
        # image bound 30 walks exactly 145825 candidates, pruned ones included
        square_free = generate_power_free(3, Fraction(2), 300, 10**6).word
        phi = parse("x y x y")
        assert occurs(phi, square_free, SearchBudget(30, 145825)) is None
        with pytest.raises(SearchBudgetExceeded) as info:
            occurs(phi, square_free, SearchBudget(30, 145824))
        assert info.value.steps == 145825

    def test_mirrored_sparse_absence_keeps_its_budget_edge(self):
        # x's candidates from several positions are counted in reverse
        # orientation, none of them viable: they are charged in bulk, and the
        # budget must still run out on the same step
        square_free = generate_power_free(3, Fraction(2), 30, 10**6).word
        phi = parse("x y~ x y~")
        assert occurs(phi, square_free, SearchBudget(30, 3672)) is None
        with pytest.raises(SearchBudgetExceeded) as info:
            occurs(phi, square_free, SearchBudget(30, 3671))
        assert info.value.steps == 3672
        # steps 2-125 are one charge; the raise still names the first step over
        with pytest.raises(SearchBudgetExceeded) as info:
            occurs(phi, square_free, SearchBudget(30, 100))
        assert info.value.steps == 101

    @pytest.mark.parametrize("text,steps", [("x x", 327), ("y y~ x", 303)])
    def test_self_lookahead_keeps_its_budget_edge(self, text, steps):
        # the frontier variable followed by itself: its viable ends are the
        # squares (same mark) or even palindromes (other mark) at each start,
        # of which a square-free word has none; every candidate still costs
        # one step
        square_free = generate_power_free(3, Fraction(2), 30, 10**6).word
        phi = parse(text)
        assert occurs(phi, square_free, SearchBudget(30, steps)) is None
        with pytest.raises(SearchBudgetExceeded) as info:
            occurs(phi, square_free, SearchBudget(30, steps - 1))
        assert info.value.steps == steps

    def test_step_counts_of_every_short_pattern(self):
        # every pattern of 1-4 symbols over x, x~, y, y~ against a 30-letter
        # square-free word: which occur and how many candidates the searches
        # walk, rejected ones included
        square_free = generate_power_free(3, Fraction(2), 30, 10**6).word
        text = WordTarget(square_free).text
        syms = [Sym("x"), Sym("x", True), Sym("y"), Sym("y", True)]
        found = steps = 0
        for length in range(1, 5):
            for combo in itertools.product(syms, repeat=length):
                search = _ConcreteSearch(_sorted_frags(FormulaR([PatternR(combo)])), text, 30, 10**7)
                found += search.run() is not None
                steps += search.steps
        assert (found, steps) == (52, 497978)

    def test_step_counts_of_every_short_pattern_with_squares(self):
        # the same panel against a 32-letter Thue-Morse prefix, which has
        # squares and even palindromes for the self-lookahead to list
        text = WordTarget(word("12212112211212212112122112212112")).text
        syms = [Sym("x"), Sym("x", True), Sym("y"), Sym("y", True)]
        found = steps = 0
        for length in range(1, 5):
            for combo in itertools.product(syms, repeat=length):
                search = _ConcreteSearch(_sorted_frags(FormulaR([PatternR(combo)])), text, 32, 10**7)
                found += search.run() is not None
                steps += search.steps
        assert (found, steps) == (308, 45144)


class TestOccursCommonImage:
    def test_z11_base_case(self):
        z10 = enumerate_fragments(1, 0)  # {x1, x1~}
        h = occurs_common_image(z10, word("a"))
        assert h is not None and h.assignment["x1"] == word("a")

    def test_z11_in_11011(self):
        h = occurs_common_image(enumerate_fragments(1, 1), word("11011"))
        assert h is not None
        images = {apply_concrete(h, f).letters for f in enumerate_fragments(1, 1)}
        assert len(images) == 1

    def test_images_cannot_coincide(self):
        assert occurs_common_image(parse("x y . y x"), word("ab")) is None


def _factor_set(w):
    return {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}


def _ternary_square_free_words(max_len):
    out = []

    def grow(text):
        if 0 < len(text) <= max_len:
            out.append(word(text))
        if len(text) >= max_len:
            return
        for c in "123":
            candidate = text + c
            if _is_square_free(candidate):
                grow(candidate)

    grow("")
    return out


def _is_square_free(text):
    n = len(text)
    for p in range(1, n // 2 + 1):
        run = 0
        for i in range(p, n):
            if text[i] == text[i - p]:
                run += 1
                if run >= p:
                    return False
            else:
                run = 0
    return True


class TestDivides:
    def test_sound_bound_by_default(self):
        half = " ".join("abcdefghijklmnopq")
        psi = parse(f"{half} {half}")
        assert divides(parse("x x"), psi).to_json() == {"x": half}
        assert divides(parse("x x"), psi, SearchBudget(16)) is None

    def test_worked_example(self):
        h = divides(parse("x y x . y~"), parse("x y z x y z . z~ y~ z~"))
        assert h is not None
        assert h.to_json() == {"x": "x", "y": "y z"}

    def test_reflexive(self):
        phi = parse("x y x . y~")
        assert divides(phi, phi) is not None

    def test_square_does_not_divide_xyx(self):
        assert divides(parse("x x"), parse("x y x")) is None

    def test_division_respects_d_reversal(self):
        h = divides(parse("x~ y x"), parse("x y x~"))
        assert h is not None
        psi = parse("x y x~")
        for frag in parse("x~ y x"):
            assert pattern_is_factor_of_formula(apply_symbolic(h, frag), psi)

    def test_empty_formula_divides_everything(self):
        assert divides(FormulaR(), parse("x")) is not None
        assert divides(parse("x"), FormulaR()) is None


class TestEquivalent:
    def test_normalization_is_equivalence(self):
        phi = parse("x~ y x~")
        assert equivalent(phi, normalize(phi), FULL)

    def test_renaming_is_equivalence(self):
        assert equivalent(parse("x"), parse("y"), FULL)

    def test_square_not_equivalent_to_xyx(self):
        assert not equivalent(parse("x x"), parse("x y x"), FULL)


# ---------------------------------------------------------------------------
# Properties

small_words = st.text(alphabet="ab", min_size=1, max_size=6).map(word)
vars_st = st.sampled_from(["x", "y"])
syms_st = st.builds(Sym, vars_st, st.booleans())
patterns_st = st.lists(syms_st, min_size=1, max_size=3).map(lambda s: PatternR(tuple(s)))
formulas_st = st.lists(patterns_st, min_size=1, max_size=2).map(FormulaR)

target_syms_st = st.builds(Sym, st.sampled_from(["u", "v"]), st.booleans())
images_st = st.lists(target_syms_st, min_size=1, max_size=2).map(lambda s: PatternR(tuple(s)))


@given(formulas_st, st.data())
def test_composition_transfers_occurrence(phi, data):
    """A division followed by an occurrence composes to an occurrence."""
    variables = sorted({s.var for f in phi for s in f})
    sym_images = {v: data.draw(images_st, label=f"h({v})") for v in variables}
    h = SymbolicMorphism(sym_images)
    psi = FormulaR([apply_symbolic(h, f) for f in phi])

    target_vars = sorted({s.var for f in psi for s in f})
    images = {v: data.draw(small_words, label=f"f({v})") for v in target_vars}
    f = ConcreteMorphism(images)
    w = Word(sum((apply_concrete(f, frag).letters + ("#",) for frag in psi), ()))

    hh = divides(phi, psi, FULL)
    assert hh is not None, "constructed division must be found"
    ff = occurs(psi, w, SearchBudget(len(w), 10**7))
    assert ff is not None, "constructed occurrence must be found"
    composed = compose(ff, hh)
    for frag in phi:
        assert is_factor(apply_concrete(composed, frag), w)


@given(formulas_st, small_words, small_words)
def test_occurrence_in_product_projects(phi, v, w):
    from zimrev.words import direct_product, project

    if len(v) != len(w):
        return
    prod = direct_product(v, w)
    h = occurs(phi, prod, SearchBudget(len(prod) or 1, 10**6))
    if h is None:
        return
    for side, target in ((0, v), (1, w)):
        projected = ConcreteMorphism(
            {var: project(img, side) for var, img in h.assignment.items()}
        )
        for frag in phi:
            assert is_factor(apply_concrete(projected, frag), target)


wide_syms_st = st.builds(Sym, st.sampled_from(["x", "y", "z"]), st.booleans())
wide_patterns_st = st.lists(wide_syms_st, min_size=1, max_size=4).map(lambda s: PatternR(tuple(s)))
wide_formulas_st = st.lists(wide_patterns_st, min_size=1, max_size=2).map(FormulaR)


@settings(max_examples=30)
@given(wide_formulas_st)
def test_normalize_mutual_division(phi):
    assert equivalent(phi, normalize(phi), SearchBudget(8, 10**6))


@given(formulas_st, small_words)
def test_witnesses_reverify(phi, w):
    h = occurs(phi, w, SearchBudget(len(w), 10**6))
    if h is not None:
        for frag in phi:
            assert is_factor(apply_concrete(h, frag), w)


def _naive_occurs(phi, w):
    """Brute force over all substring assignments, reversed ones included."""
    substrings = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
    candidates = sorted(substrings | {reverse(u) for u in substrings}, key=lambda u: (len(u), str(u)))
    variables = sorted({s.var for f in phi for s in f})

    def assign(idx, env):
        if idx == len(variables):
            return all(is_factor(apply_concrete(env, f), w) for f in phi)
        for u in candidates:
            env[variables[idx]] = u
            if assign(idx + 1, env):
                return True
        env.pop(variables[idx], None)
        return False

    return assign(0, {})


@pytest.mark.parametrize(
    "text",
    ["x x", "x x~", "x y x~", "x y~ x y", "x y x . y~", "x x~ . y y", "x~ x"],
)
def test_engine_matches_naive_occurrence_exhaustively(text):
    """The search engine and an independent brute-force matcher agree on
    every binary word up to length 6."""
    phi = parse(text)
    for length in range(0, 7):
        for letters in itertools.product("ab", repeat=length):
            w = Word(letters)
            engine = occurs(phi, w, SearchBudget(max(1, length), 10**7)) is not None
            assert engine == _naive_occurs(phi, w), f"{text} on {w}"


def _naive_divides(phi, psi):
    """Brute force over all sub-pattern assignments, d-reversals included."""
    from zimrev.formulas import d_reverse

    pieces = set()
    for frag in psi:
        for i in range(len(frag)):
            for j in range(i + 1, len(frag) + 1):
                piece = PatternR(frag[i:j])
                pieces.add(piece)
                pieces.add(d_reverse(piece))
    candidates = sorted(pieces, key=lambda p: (len(p), p))
    variables = sorted({s.var for f in phi for s in f})

    def assign(idx, env):
        if idx == len(variables):
            return all(pattern_is_factor_of_formula(apply_symbolic(env, f), psi) for f in phi)
        for u in candidates:
            env[variables[idx]] = u
            if assign(idx + 1, env):
                return True
        env.pop(variables[idx], None)
        return False

    return assign(0, {})


@pytest.mark.parametrize(
    "psi_text",
    ["x1 x2 x1", "x y x~", "a b . b~ a~", "u u"],
)
def test_engine_matches_naive_division_exhaustively(psi_text):
    """The division search agrees with an independent brute-force matcher
    for every small formula over two variables."""
    psi = parse(psi_text)
    syms = [Sym("x", False), Sym("x", True), Sym("y", False), Sym("y", True)]
    for length in range(1, 4):
        for combo in itertools.product(syms, repeat=length):
            phi = FormulaR([PatternR(combo)])
            engine = divides(phi, psi, FULL) is not None
            assert engine == _naive_divides(phi, psi), f"{phi} into {psi}"


def _scan_occurs(phi, text):
    """Plain scan over every assignment of factors of text to the variables
    (reversed factors for a variable that only occurs mirrored)."""
    factors = {text[i:j] for i in range(len(text)) for j in range(i + 1, len(text) + 1)}
    variables = sorted({s.var for f in phi for s in f})
    plain = {s.var for f in phi for s in f if not s.mirrored}
    choices = [sorted(factors if v in plain else {u[::-1] for u in factors}) for v in variables]
    for combo in itertools.product(*choices):
        env = dict(zip(variables, combo))
        if all("".join(env[s.var][::-1] if s.mirrored else env[s.var] for s in f) in text for f in phi):
            return True
    return False


@settings(max_examples=400)
@given(
    st.lists(wide_patterns_st, min_size=1, max_size=3).map(FormulaR),
    st.text("abc", min_size=1, max_size=8),
)
def test_occurs_matches_plain_scan(phi, text):
    """The pruned occurrence search agrees with a plain scan over 3-letter
    words with image cap |w|."""
    found = occurs(phi, word(text), SearchBudget(len(text), 10**7)) is not None
    assert found == _scan_occurs(phi, text)
