import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zimrev import formulas
from zimrev.formulas import (
    EMPTY_FORMULA,
    FormulaR,
    FormulaSyntaxError,
    PatternR,
    Sym,
    classify_vars,
    d_reverse,
    delete_vars,
    factors_of,
    flatten,
    normalize,
    parse,
    pattern,
    rename_vars,
)

syms_st = st.builds(Sym, st.sampled_from(["x", "y", "z"]), st.booleans())
patterns_st = st.lists(syms_st, min_size=1, max_size=5).map(lambda s: PatternR(tuple(s)))
formulas_st = st.lists(patterns_st, min_size=0, max_size=3).map(FormulaR)


def test_parse_basic():
    phi = parse("x y x . y~")
    assert len(phi) == 2
    assert pattern("y~") in phi
    assert pattern("x y x") in phi
    # a "~" ends its symbol
    assert parse("x~y") == parse("x~ y")


def test_parse_single_symbol():
    assert parse("x") == FormulaR([PatternR((Sym("x"),))])


def test_parse_interns_symbols():
    first = parse("x y~ x . y~ x")
    again = parse("y~ x x")
    syms = [s for phi in (first, again) for frag in phi for s in frag]
    by_key = {}
    for s in syms:
        assert by_key.setdefault((s.var, s.mirrored), s) is s
    assert len(by_key) == 2


_REF_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _reference_parse(text):
    """The character scanner parse was before its token table, kept as the
    reference for the grammar."""
    if text.strip() == "{}":
        return EMPTY_FORMULA
    if not text.strip():
        raise FormulaSyntaxError("empty formula text (write {} for the empty formula)", 0)
    fragments = []
    syms = []
    fragment_start = 0
    pos = 0
    n = len(text)

    def close_fragment(at):
        nonlocal syms
        if not syms:
            raise FormulaSyntaxError("empty fragment", at)
        fragments.append(PatternR(syms))
        syms = []

    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == ".":
            close_fragment(fragment_start)
            pos += 1
            fragment_start = pos
            continue
        match = _REF_IDENT.match(text, pos)
        if not match:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", pos)
        name = match.group()
        pos = match.end()
        mirrored = False
        if pos < n and text[pos] == "~":
            mirrored = True
            pos += 1
        syms.append(Sym(name, mirrored))
    close_fragment(fragment_start)
    return FormulaR(fragments)


def _outcome(parser, text):
    try:
        return "parsed", parser(text)
    except FormulaSyntaxError as exc:
        return "error", str(exc), exc.position


_GRAMMAR_PIECES = ["x", "y1", "x_2", "Ab", "x~", "y1~", "~", ".", " ", "\t", "\n", "\u00a0", "\u2003",
                   "\u3000", "\x1c", "\x85", "{}", "{", "}", "!", "_", "1", "9z"]
_grammar_texts = st.one_of(
    st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=12).map("".join),
    st.text(alphabet="xyzA19_~.{}! \t\u00a0\u2003\u200b", max_size=12),
)


@given(_grammar_texts)
def test_parse_matches_the_reference_scanner(text):
    # the same formula, or the same error at the same position, whether the
    # token table is empty or already holds every token of the text
    expected = _outcome(_reference_parse, text)
    saved = dict(formulas._tokens)
    formulas._tokens.clear()
    try:
        cold = _outcome(parse, text)
    finally:
        formulas._tokens.update(saved)
    warm = _outcome(parse, text)
    assert cold == expected
    assert warm == expected


def test_derived_formulas_share_the_interned_symbols():
    interned = {(s.var, s.mirrored): s for s in parse("x y z x~ y~ z~")[0]}
    phi = parse("x y~ . z~ x")
    derived = [flatten(phi), normalize(phi), FormulaR([d_reverse(frag) for frag in phi])]
    derived.append(FormulaR([flatten(frag) for frag in phi]))
    for psi in derived:
        for frag in psi:
            for s in frag:
                assert s is interned[(s.var, s.mirrored)]
    assert Sym("x").toggled() is interned[("x", True)]


def test_interned_symbols_compare_and_hash_by_value():
    parsed = parse("x~")[0][0]
    assert Sym("x", True) == parsed
    assert hash(Sym("x", True)) == hash(parsed)


def test_parse_empty_formula():
    assert parse("{}") == EMPTY_FORMULA
    assert str(EMPTY_FORMULA) == "{}"


@pytest.mark.parametrize("bad", ["x .. y", "", "   ", ". x", "x .", "x ~", "1x", "x!"])
def test_parse_errors(bad):
    with pytest.raises(FormulaSyntaxError):
        parse(bad)


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse("x .. y")
    assert info.value.position == 3


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        PatternR(())


def test_formula_set_semantics():
    assert parse("x y . x y") == parse("x y")
    assert parse("x y . y~") == parse("y~ . x y")


def test_fragments_sorted_in_format():
    assert str(parse("y . x . x~")) == "x . x~ . y"


@given(st.lists(patterns_st, max_size=4))
def test_natural_order_is_the_canonical_order(fragments):
    # a fragment sorts by its (name, mark) pairs, and a formula keeps one
    # copy of each fragment in that order
    def key(p):
        return tuple((s.var, s.mirrored) for s in p)

    phi = FormulaR(fragments)
    assert list(phi) == sorted({key(p): p for p in fragments}.values(), key=key)
    assert sorted(fragments) == sorted(fragments, key=key)


def test_formulas_are_tuples_without_instance_dicts():
    phi = parse("x y~ . x")
    for obj in (phi, phi[0], phi[0][0]):
        assert isinstance(obj, tuple) and not hasattr(obj, "__dict__")
    assert phi == (pattern("x"), pattern("x y~")) and hash(phi) == hash(tuple(phi))


@given(formulas_st)
def test_parse_format_roundtrip(phi):
    assert parse(str(phi)) == phi or not phi and str(phi) == "{}"


def test_flatten_examples():
    assert flatten(pattern("x y~ x")) == pattern("x y x")
    assert flatten(pattern("x y z")) == pattern("x y z")
    assert flatten(parse("x~ y~ . x y")) == parse("x y")


def test_d_reverse_examples():
    assert d_reverse(pattern("x y")) == pattern("y~ x~")
    assert d_reverse(pattern("x~")) == pattern("x")
    assert d_reverse(pattern("x y~ z")) == pattern("z~ y x~")


@given(patterns_st)
def test_d_reverse_involution(p):
    assert d_reverse(d_reverse(p)) == p


@given(patterns_st)
def test_flatten_commutes_with_d_reverse(p):
    # flattening the d-reversal equals reversing the flattened sequence
    lhs = flatten(d_reverse(p))
    rhs = PatternR(reversed(flatten(p)))
    assert lhs == rhs


def test_classify_examples():
    assert classify_vars(parse("x y x~")) == {"x": "two_way", "y": "one_way"}
    assert classify_vars(parse("x y x . y~")) == {"x": "one_way", "y": "two_way"}
    assert classify_vars(parse("x x~")) == {"x": "two_way"}
    assert classify_vars(EMPTY_FORMULA) == {}


def test_normalize_examples():
    assert normalize(parse("x~ y x~")) == parse("x y x")
    assert normalize(parse("x y x")) == parse("x y x")
    assert normalize(parse("x x~ y~")) == parse("x x~ y")


@given(formulas_st)
def test_normalize_preserves_shape(phi):
    norm = normalize(phi)
    assert len(norm) == len(phi)
    assert sorted(len(f) for f in norm) == sorted(len(f) for f in phi)
    tags = classify_vars(norm)
    for frag in norm:
        for s in frag:
            if tags[s.var] == "one_way":
                assert not s.mirrored


def test_factors_of_examples():
    assert factors_of(parse("x y x"), 2) == {pattern("x y"), pattern("y x")}
    assert factors_of(parse("x y~ . y z"), 2) == {pattern("x y~"), pattern("y z")}
    assert factors_of(parse("x"), 2) == set()


def test_delete_vars():
    assert delete_vars(parse("x y x"), {"y"}) == parse("x x")
    assert delete_vars(parse("x y x"), {"x"}) == parse("y")
    assert delete_vars(parse("x x~"), {"x"}) == EMPTY_FORMULA


def test_rename_vars():
    assert rename_vars(parse("x y x~"), {"x": "a", "y": "b"}) == parse("a b a~")
