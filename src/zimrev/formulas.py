"""Symbolic patterns and formulas with reversal.

A pattern is a nonempty sequence of symbols, each a variable with or without
a mirror mark (written ``x~`` in the grammar).  A formula is a finite set of
patterns, its fragments.  All three are tuples: a symbol is (variable,
mark), a pattern a tuple of symbols, and a formula the sorted, duplicate-free
tuple of its fragments, so equality, hashing and the canonical order are the
tuples' own and a formula keys memo tables as it is.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

TWO_WAY = "two_way"
ONE_WAY = "one_way"


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Sym(NamedTuple):
    """One symbol: a variable, possibly marked as the mirror image."""

    var: str
    mirrored: bool = False

    def __str__(self) -> str:
        return self.var + ("~" if self.mirrored else "")

    def toggled(self) -> "Sym":
        return _interned(self.var, not self.mirrored)


class PatternR(tuple):
    """A nonempty pattern with reversal (one formula fragment): a tuple of
    symbols, ordered as tuples."""

    __slots__ = ()

    def __new__(cls, syms: Iterable[Sym]):
        self = tuple.__new__(cls, syms)
        if not self:
            raise ValueError("patterns are nonempty; empty fragments are discarded at formula level")
        return self

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def __repr__(self) -> str:
        return f"PatternR({str(self)!r})"


class FormulaR(tuple):
    """A finite set of fragments: a tuple of them, sorted and duplicate-free,
    so equal formulas are equal tuples and the natural order is canonical."""

    __slots__ = ()

    def __new__(cls, fragments: Iterable[PatternR] = ()):
        return tuple.__new__(cls, sorted(set(fragments)))

    def __str__(self) -> str:
        if not self:
            return "{}"
        return " . ".join(map(str, self))

    def __repr__(self) -> str:
        return f"FormulaR({str(self)!r})"


EMPTY_FORMULA = FormulaR()

# Builds a PatternR or FormulaR without its constructor, for callers that
# already hold its invariant (nonempty; sorted and duplicate-free).
_new = tuple.__new__

# One Sym object per (name, mark): parse, flatten, normalize and toggled
# return these, so a batch of formulas holds one object per distinct symbol
# instead of one per occurrence.  A Sym hashes and compares as its plain
# (name, mark) tuple, which is the lookup key.
_syms: Dict[Tuple[str, bool], Sym] = {}

# The interned symbol of every token the scanner has read, by its text ("x",
# "x1~").  Only the scanner adds tokens, so every key is one grammatical
# symbol.
_tokens: Dict[str, Sym] = {}

# The interned unmarked twin of every symbol flatten or normalize has unmarked.
_unmarked: Dict[Sym, Sym] = {}


def _interned(var: str, mirrored: bool) -> Sym:
    sym = _syms.get((var, mirrored))
    if sym is None:
        sym = _syms[(var, mirrored)] = Sym(var, mirrored)
    return sym


def pattern(text: str) -> PatternR:
    """Parse a single fragment, e.g. ``"x y~ x"``."""
    formula = parse(text)
    if len(formula) != 1:
        raise ValueError(f"expected a single fragment, got {len(formula)}")
    return formula[0]


def formula(*fragment_texts: str) -> FormulaR:
    """Build a formula from fragment strings (test/scripting convenience)."""
    return FormulaR([pattern(t) for t in fragment_texts])


def parse(text: str) -> FormulaR:
    """Parse formula text: fragments separated by ".", symbols by whitespace.

    A symbol is an identifier optionally suffixed by "~" for the mirror
    image, and a "~" ends its symbol ("x~y" reads as "x~ y"); "{}" denotes
    the empty formula.  Equal symbols come back as one shared ``Sym``
    object, across fragments and across calls.

    Text whose tokens the scanner has all read before is split and looked
    up; anything else (a new token, "x~y", "{}", an empty fragment, an
    error) goes to the scanner, the only grammar.
    """
    lookup = _tokens.__getitem__
    try:
        fragments = {_new(PatternR, map(lookup, piece.split())) for piece in text.split(".")}
    except KeyError:  # a token the scanner has not read
        return _scan(text)
    if () in fragments:  # an empty fragment: the scanner reports it
        return _scan(text)
    return _new(FormulaR, sorted(fragments))


def _scan(text: str) -> FormulaR:
    """The character scanner behind ``parse``; it records each token read."""
    if text.strip() == "{}":
        return EMPTY_FORMULA
    if not text.strip():
        raise FormulaSyntaxError("empty formula text (write {} for the empty formula)", 0)

    fragments: List[PatternR] = []
    syms: List[Sym] = []
    fragment_start = 0
    pos = 0
    n = len(text)

    def close_fragment(at: int):
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
        match = _IDENT.match(text, pos)
        if not match:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", pos)
        name = match.group()
        pos = match.end()
        mirrored = False
        if pos < n and text[pos] == "~":
            mirrored = True
            pos += 1
        sym = _tokens[text[match.start() : pos]] = _interned(name, mirrored)
        syms.append(sym)
    close_fragment(fragment_start)
    return FormulaR(fragments)


def pattern_vars(p: PatternR) -> Set[str]:
    return {var for var, _ in p}


def formula_vars(phi: FormulaR) -> Set[str]:
    out: Set[str] = set()
    for frag in phi:
        out.update(pattern_vars(frag))
    return out


def flatten(obj):
    """Clear every mirror mark (patterns map to patterns, formulas to formulas)."""
    if isinstance(obj, PatternR):
        return _flat(obj)
    if isinstance(obj, FormulaR):
        return _new(FormulaR, sorted({_flat(f) for f in obj}))
    raise TypeError(f"cannot flatten {obj!r}")


def _flat(p: PatternR) -> PatternR:
    return _new(PatternR, [_unmarked.get(s) or _unmark(s) for s in p])


def _unmark(s: Sym) -> Sym:
    flat = _unmarked[s] = _interned(s.var, False)
    return flat


def d_reverse(p: PatternR) -> PatternR:
    """Reverse the symbol sequence and toggle every mirror mark (an involution)."""
    return PatternR(s.toggled() for s in reversed(p))


def _orientations(phi: FormulaR) -> Tuple[Set[str], Set[str]]:
    """The variables that occur unmirrored and those that occur mirrored."""
    plain: Set[str] = set()
    mirrored: Set[str] = set()
    for frag in phi:
        for var, mark in frag:
            (mirrored if mark else plain).add(var)
    return plain, mirrored


def classify_vars(phi: FormulaR) -> Dict[str, str]:
    """Tag each occurring variable TWO_WAY or ONE_WAY.

    A variable is two-way when both orientations appear somewhere in the
    formula; absent variables are simply not reported.
    """
    plain, mirrored = _orientations(phi)
    out: Dict[str, str] = {}
    for name in plain | mirrored:
        out[name] = TWO_WAY if (name in plain and name in mirrored) else ONE_WAY
    return out


def normalize(phi: FormulaR) -> FormulaR:
    """Flip variables that only ever appear mirrored, so every one-way
    variable appears unmirrored.  The result is equivalent to the input
    (they divide each other through the orientation swap)."""
    plain, mirrored = _orientations(phi)
    return _unmirrored(phi, mirrored - plain)


def _unmirrored(phi: FormulaR, flip: Set[str]) -> FormulaR:
    """phi with every symbol of a variable in flip unmirrored."""
    if not flip:
        return phi
    return FormulaR(
        [
            _new(PatternR, [(_unmarked.get(s) or _unmark(s)) if s.var in flip else s for s in frag])
            for frag in phi
        ]
    )


def factors_of(phi: FormulaR, length: int) -> Set[PatternR]:
    """All contiguous length-`length` subsequences of the fragments."""
    if length < 1:
        raise ValueError("factor length must be >= 1")
    out: Set[PatternR] = set()
    for frag in phi:
        for i in range(len(frag) - length + 1):
            out.add(PatternR(frag[i : i + length]))
    return out


def delete_vars(phi: FormulaR, names: Iterable[str]) -> FormulaR:
    """Remove every occurrence (either orientation) of the given variables.

    Fragments are not split at deletion points; fragments left empty are
    discarded.  Freeness is not checked here; see classic.delete for the
    reduction-step variant.
    """
    drop = set(names)
    new_fragments = []
    for frag in phi:
        kept = tuple(s for s in frag if s.var not in drop)
        if kept:
            new_fragments.append(PatternR(kept))
    return FormulaR(new_fragments)


def rename_vars(phi: FormulaR, mapping: Dict[str, str]) -> FormulaR:
    """Rename variables (used by tests for invariance checks)."""
    return FormulaR(
        [PatternR(Sym(mapping.get(s.var, s.var), s.mirrored) for s in f) for f in phi]
    )
