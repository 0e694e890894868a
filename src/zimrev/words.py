"""Concrete finite words over small alphabets.

Letters are either single printable glyphs (plain ``str``) or nested pairs of
letters, which is how direct-product alphabets are represented.  Words are
immutable values; every operation here is a pure function, and factor queries
are naive scans (inputs are desk-scale, the search kernels dominate runtime).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

Letter = Union[str, Tuple["Letter", "Letter"]]

#: Glyphs handed out for generated alphabets: alphabet(k) is the first k.
GLYPHS = "123456789abcdefghijklmnopqrstuvwxyz"


def letter_display(letter: Letter) -> str:
    """Render a letter; product letters join their components with ``|``."""
    if isinstance(letter, str):
        return letter
    left, right = letter
    return f"{letter_display(left)}|{letter_display(right)}"


def letter_key(letter: Letter):
    """Total order on letters: glyphs first (lexicographic), then pairs."""
    if isinstance(letter, str):
        return (0, letter)
    left, right = letter
    return (1, letter_key(left), letter_key(right))


@dataclass(frozen=True)
class Word:
    """An immutable finite sequence of letters (possibly empty)."""

    letters: Tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.letters[index])
        return self.letters[index]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def is_simple(self) -> bool:
        """True when every letter is a single-character glyph."""
        return all(isinstance(a, str) and len(a) == 1 for a in self.letters)

    def __str__(self) -> str:
        if self.is_simple():
            return "".join(self.letters)  # type: ignore[arg-type]
        return " ".join(letter_display(a) for a in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def word(text: str) -> Word:
    """Build a word from a string of single-character glyphs."""
    return Word(tuple(text))


def alphabet(k: int) -> Tuple[str, ...]:
    """The first k generated glyphs, lowest first."""
    if not 1 <= k <= len(GLYPHS):
        raise ValueError(f"alphabet size {k} out of range 1..{len(GLYPHS)}")
    return tuple(GLYPHS[:k])


def reverse(w: Word) -> Word:
    return Word(w.letters[::-1])


def is_factor(u: Word, w: Word) -> bool:
    """True iff w = x u y for some (possibly empty) x, y."""
    lu, lw = len(u), len(w)
    if lu == 0:
        return True
    if lu > lw:
        return False
    target = u.letters
    return any(w.letters[i : i + lu] == target for i in range(lw - lu + 1))


def factors(w: Word, max_len: Optional[int] = None) -> set:
    """All distinct nonempty factors of w with length <= max_len, as Words."""
    return {Word(t) for t in _factor_tuples(w.letters, max_len)}


def _factor_tuples(letters: Tuple[Letter, ...], max_len: Optional[int]) -> set:
    n = len(letters)
    cap = n if max_len is None else min(max_len, n)
    out = set()
    for length in range(1, cap + 1):
        for i in range(n - length + 1):
            out.add(letters[i : i + length])
    return out


def reversible_factors(w: Word, max_len: int) -> set:
    """Factors u of w, |u| <= max_len, whose reversal is also a factor of w."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    facs = _factor_tuples(w.letters, max_len)
    return {Word(t) for t in facs if t[::-1] in facs}


def direct_product(v: Word, w: Word) -> Word:
    """Position-wise pairing of two equal-length words."""
    if len(v) != len(w):
        raise ValueError(f"direct product needs equal lengths, got {len(v)} and {len(w)}")
    return Word(tuple(zip(v.letters, w.letters)))


def project(w: Word, side: int) -> Word:
    """Coordinate projection of a product word (side 0 = left, 1 = right)."""
    out = []
    for a in w.letters:
        if isinstance(a, str):
            raise ValueError("cannot project a non-product letter")
        out.append(a[side])
    return Word(tuple(out))


def periodic_prefix(period: Word, length: int) -> Word:
    """Prefix of the given length of period repeated forever."""
    if len(period) == 0:
        raise ValueError("period must be nonempty")
    if length < 0:
        raise ValueError("length must be >= 0")
    reps = length // len(period) + 1
    return Word((period.letters * reps)[:length])


def max_exponent(w: Word) -> Fraction:
    """Largest |f|/p over factors f of w and periods p of f, exactly.

    An alpha-power occurs in w iff the result is >= alpha.  Computed by a
    run-scan over periods; the test suite pins this against a naive
    all-windows/all-periods scan.
    """
    n = len(w)
    if n == 0:
        raise ValueError("max_exponent of the empty word is undefined")
    letters = w.letters
    best = Fraction(1)
    for p in range(1, n):
        run = 0
        for i in range(p, n):
            if letters[i] == letters[i - p]:
                run += 1
                cand = Fraction(run + p, p)
                if cand > best:
                    best = cand
            else:
                run = 0
    return best


# ---------------------------------------------------------------------------
# Finite descriptions of infinite witness words.


@dataclass(frozen=True)
class PeriodicSpec:
    """The omega-word period^omega."""

    period: Word

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("periodic spec needs a nonempty period")


@dataclass(frozen=True)
class ProductSpec:
    """Position-wise direct product of two omega-words."""

    left: "OmegaWordSpec"
    right: "OmegaWordSpec"


@dataclass(frozen=True)
class GeneratedSpec:
    """A generated word carrying a concrete verified prefix.

    When ``forbidden_exponent`` is set the prefix is alpha-power-free for that
    alpha; when None the prefix was produced by an avoiding-word search and
    the constraint lives in the surrounding certificate.
    """

    alphabet_size: int
    forbidden_exponent: Optional[Fraction]
    prefix: Word


OmegaWordSpec = Union[PeriodicSpec, ProductSpec, GeneratedSpec]


def materialize(spec: OmegaWordSpec, length: int) -> Word:
    """Concrete prefix of the described omega-word.

    Generated specs cannot be extended past their stored prefix; asking for
    more raises ValueError.
    """
    if isinstance(spec, PeriodicSpec):
        return periodic_prefix(spec.period, length)
    if isinstance(spec, ProductSpec):
        return direct_product(materialize(spec.left, length), materialize(spec.right, length))
    if isinstance(spec, GeneratedSpec):
        if length > len(spec.prefix):
            raise ValueError(
                f"generated spec stores a prefix of length {len(spec.prefix)}, cannot materialize {length}"
            )
        return spec.prefix[:length]
    raise TypeError(f"not an omega-word spec: {spec!r}")


# ---------------------------------------------------------------------------
# JSON forms.  Simple words serialize as glyph strings; product words as
# arrays of letter displays ("g1|g2").


def word_to_json(w: Word):
    if w.is_simple():
        return str(w)
    return [letter_display(a) for a in w.letters]


def _letter_from_display(text: str) -> Letter:
    if "|" not in text:
        return text
    left, _, right = text.rpartition("|")
    return (_letter_from_display(left), right)


def word_from_json(data) -> Word:
    if isinstance(data, str):
        return word(data)
    return Word(tuple(_letter_from_display(s) for s in data))


def spec_to_json(spec: OmegaWordSpec) -> dict:
    if isinstance(spec, PeriodicSpec):
        return {"kind": "periodic", "period": word_to_json(spec.period)}
    if isinstance(spec, ProductSpec):
        return {"kind": "direct_product", "left": spec_to_json(spec.left), "right": spec_to_json(spec.right)}
    if isinstance(spec, GeneratedSpec):
        exp = spec.forbidden_exponent
        return {
            "kind": "generated",
            "alphabet_size": spec.alphabet_size,
            "forbidden_exponent": None if exp is None else str(exp),
            "prefix": word_to_json(spec.prefix),
        }
    raise TypeError(f"not an omega-word spec: {spec!r}")


def spec_from_json(data: dict) -> OmegaWordSpec:
    kind = data.get("kind")
    if kind == "periodic":
        return PeriodicSpec(word_from_json(data["period"]))
    if kind == "direct_product":
        return ProductSpec(spec_from_json(data["left"]), spec_from_json(data["right"]))
    if kind == "generated":
        exp = data.get("forbidden_exponent")
        return GeneratedSpec(
            int(data["alphabet_size"]),
            None if exp is None else Fraction(exp),
            word_from_json(data["prefix"]),
        )
    raise ValueError(f"unknown omega-word spec kind: {kind!r}")
