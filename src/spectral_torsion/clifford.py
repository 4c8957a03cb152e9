"""Exact complexified Clifford algebra Cl(R^n).

Generators g^1..g^n obey g^a g^b + g^b g^a = 2 delta^{ab}.  Elements are kept
in the canonical basis of strictly increasing index words, with coefficients in
any ring that supports +, *, QQi scalar action, trace() and truthiness (QQi
itself, exact matrices, ...).  The normalized trace is Tr(1) = 2^m with
m = n/2 for even n and m = (n+1)/2 for odd n; the odd case is the trace of the
doubled representation g -> diag(g, -g), under which every odd-length word
(epsilon-type words included) has trace zero, so the even-n pairing rule holds
verbatim in all dimensions.

Products read each pair of canonical words from one shared table of
reduce_word results, and the factors' shapes pick the path.  An empty factor
gives the empty product.  A one-word factor multiplies through its word: a
fixed canonical word permutes the canonical words, so each output word is hit
once and needs no sum, and a QQi +-1 coefficient reuses the other factor's
coefficients, unchanged or negated, in every ring.  Otherwise, when every
coefficient of both factors is a QQi, one integer kernel accumulates a
Gaussian-integer numerator over one denominator per output word and reduces
it once; any other ring (MatrixQQ, or QQi times MatrixQQ) takes the generic
path, one ring multiplication and addition per pair of words.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import QQi, ScalarLike, _reduced

IndexWord = Tuple[int, ...]


def _check_indices(indices: Sequence[int], dim: int) -> None:
    for a in indices:
        if not isinstance(a, int) or not (1 <= a <= dim):
            raise ValueError(f"gamma index {a!r} outside 1..{dim}")


def reduce_word(indices: Sequence[int]) -> Tuple[int, IndexWord]:
    """Reduce a gamma word to (sign, strictly increasing word).

    Repeated indices contract with delta = +1; each transposition flips the
    sign.  Pure index combinatorics, no coefficients.
    """
    out: list[int] = []
    sign = 1
    for x in indices:
        p = bisect_left(out, x)
        if p < len(out) and out[p] == x:
            # move x left until adjacent to its twin, then g g = 1
            if (len(out) - (p + 1)) % 2:
                sign = -sign
            out.pop(p)
        else:
            if (len(out) - p) % 2:
                sign = -sign
            out.insert(p, x)
    return sign, tuple(out)


# (w1, w2) -> reduce_word(w1 + w2) for canonical words, filled on first use.
# The product of two canonical words does not depend on the dimension or the
# coefficient ring, so one table serves every Multivector; it holds at most
# 4^n pairs for the largest n reached.
_WORD_PRODUCTS: Dict[Tuple[IndexWord, IndexWord], Tuple[int, IndexWord]] = {}


def _word_product(pair: Tuple[IndexWord, IndexWord]) -> Tuple[int, IndexWord]:
    """Fill and return the entry a product misses.  An entry (sign, word) is
    always truthy, hence `table.get(pair) or _word_product(pair)`; reduce_word
    is read as a module global, so a replaced one (a call counter) takes."""
    product = _WORD_PRODUCTS[pair] = reduce_word(pair[0] + pair[1])
    return product


_QQiTerms = List[Tuple[IndexWord, int, int, int]]


def _qqi_terms(terms: Dict[IndexWord, object]) -> Optional[_QQiTerms]:
    """[(word, a, b, d)] with each coefficient (a + b*i)/d, or None unless every
    coefficient is a QQi."""
    out = []
    for word, c in terms.items():
        if type(c) is not QQi:
            return None
        out.append((word, c._a, c._b, c._d))
    return out


def _mul_qqi(left: _QQiTerms, right: _QQiTerms) -> Dict[IndexWord, QQi]:
    """The product's terms over QQi, from two _qqi_terms lists.

    Each output word accumulates one Gaussian-integer numerator over one
    denominator, rescaled only when a contribution's denominator differs;
    each sum is reduced once at the end and zero sums are dropped."""
    table = _WORD_PRODUCTS
    acc: Dict[IndexWord, list] = {}
    for w1, a1, b1, d1 in left:
        for w2, a2, b2, d2 in right:
            sign, word = table.get((w1, w2)) or _word_product((w1, w2))
            re, im, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
            if sign < 0:
                re, im = -re, -im
            slot = acc.get(word)
            if slot is None:
                acc[word] = [re, im, d]
            elif slot[2] == d:
                slot[0] += re
                slot[1] += im
            else:
                e = slot[2]
                g = gcd(d, e)
                s, t = d // g, e // g
                slot[0] = slot[0] * s + re * t
                slot[1] = slot[1] * s + im * t
                slot[2] = e * s
    return {w: _reduced(re, im, d) for w, (re, im, d) in acc.items() if re or im}


def _mul_word(left: Dict[IndexWord, object], right: Dict[IndexWord, object],
              word_on_left: bool) -> Dict[IndexWord, object]:
    """The product's terms when one factor holds a single word.

    The other factor's words map one to one onto the output words, so each
    product is stored as it is formed; only a ring with zero divisors
    (MatrixQQ) can make one vanish."""
    table = _WORD_PRODUCTS
    ((w, c),) = (left if word_on_left else right).items()
    unit = c._a if type(c) is QQi and c._d == 1 and not c._b and c._a in (1, -1) else 0
    out: Dict[IndexWord, object] = {}
    for v, e in (right if word_on_left else left).items():
        pair = (w, v) if word_on_left else (v, w)
        sign, word = table.get(pair) or _word_product(pair)
        if unit:
            out[word] = e if sign == unit else -e
        else:
            coeff = c * e if word_on_left else e * c
            if coeff:
                out[word] = coeff if sign > 0 else -coeff
    return out


def _mul_generic(left: Dict[IndexWord, object],
                 right: Dict[IndexWord, object]) -> Dict[IndexWord, object]:
    """The product's terms for any coefficient ring, one ring operation per pair."""
    out: Dict[IndexWord, object] = {}
    table = _WORD_PRODUCTS
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            sign, word = table.get((w1, w2)) or _word_product((w1, w2))
            coeff = c1 * c2
            if sign < 0:
                coeff = -coeff
            acc = out.get(word)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[word] = acc
            else:
                out.pop(word, None)
    return out


@dataclass(frozen=True)
class GammaWord:
    """A scalar multiple of a product g^{a_1} ... g^{a_k}, not yet reduced."""

    indices: Tuple[int, ...]
    scalar: QQi = field(default_factory=lambda: QQi(Fraction(1)))

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "scalar", QQi.coerce(self.scalar))


class Multivector:
    """Finite sum of canonical words with ring coefficients.

    terms maps strictly increasing index tuples to nonzero coefficients; the
    empty tuple is the scalar slot.  Coefficients commute with the gammas
    (they act on an auxiliary space), so products multiply coefficients in
    encounter order and reduce words independently.  Only constructors write
    terms, and a Multivector, like its QQi and MatrixQQ coefficients, is never
    mutated afterwards, so results may share coefficient objects.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Dict[IndexWord, object] | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.terms: Dict[IndexWord, object] = {}
        if terms:
            for word, coeff in terms.items():
                _check_indices(word, dim)
                if list(word) != sorted(set(word)):
                    raise ValueError(f"non-canonical word {word}")
                if coeff:
                    self.terms[word] = coeff

    # constructors ---------------------------------------------------------
    @staticmethod
    def scalar(dim: int, value: ScalarLike | object) -> "Multivector":
        v = QQi.coerce(value) if isinstance(value, (int, Fraction, QQi)) else value
        return Multivector(dim, {(): v} if v else {})

    @staticmethod
    def gamma(dim: int, a: int) -> "Multivector":
        _check_indices([a], dim)
        return Multivector(dim, {(a,): QQi(Fraction(1))})

    # ring structure -------------------------------------------------------
    def _same_dim(self, other: "Multivector") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._same_dim(other)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = out.get(word)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[word] = acc
            else:
                out.pop(word, None)
        r = Multivector(self.dim)
        r.terms = out
        return r

    def __neg__(self) -> "Multivector":
        r = Multivector(self.dim)
        r.terms = {w: -c for w, c in self.terms.items()}
        return r

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._same_dim(other)
            r = Multivector(self.dim)
            # most block products of the doubled space have an empty factor
            if not self.terms or not other.terms:
                return r
            if len(self.terms) == 1 or len(other.terms) == 1:
                r.terms = _mul_word(self.terms, other.terms, len(self.terms) == 1)
                return r
            left = _qqi_terms(self.terms)
            right = _qqi_terms(other.terms) if left is not None else None
            r.terms = (_mul_generic(self.terms, other.terms) if right is None
                       else _mul_qqi(left, right))
            return r
        if isinstance(other, (int, Fraction, QQi)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            # QQi scalars commute with everything in sight
            return self.scale(other)
        return NotImplemented

    def scale(self, s: ScalarLike) -> "Multivector":
        s = QQi.coerce(s)
        if s == -1:
            return -self   # negation forms no coefficient product
        r = Multivector(self.dim)
        if s:
            r.terms = {w: v for w, v in ((w, s * c) for w, c in self.terms.items()) if v}
        return r

    # queries ----------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Multivector):
            return self.dim == other.dim and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def scalar_part(self) -> object:
        return self.terms.get((), QQi())

    def grade(self, k: int) -> "Multivector":
        r = Multivector(self.dim)
        r.terms = {w: c for w, c in self.terms.items() if len(w) == k}
        return r

    def max_grade(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[word]
            name = "".join(f"g{a}" for a in word) or "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

    __repr__ = __str__


def canonicalize(word: GammaWord, dim: int) -> Multivector:
    """Reduce a raw gamma word to canonical multivector form."""
    _check_indices(word.indices, dim)
    sign, canon = reduce_word(word.indices)
    coeff = word.scalar if sign > 0 else -word.scalar
    return Multivector(dim, {canon: coeff} if coeff else {})


def trace_power(dim: int) -> int:
    """m with Tr(1) = 2^m: n/2 for even n, (n+1)/2 (doubled rep) for odd n."""
    return (dim + 1) // 2


def clifford_trace(x: Multivector) -> object:
    """Normalized trace: 2^m times the trace of the scalar-slot coefficient.

    Words of grade >= 1 are traceless (for odd n this is the doubled
    representation's trace), so only the empty word contributes.
    """
    return (2 ** trace_power(x.dim)) * x.scalar_part().trace()


def chirality(dim: int) -> Multivector:
    """(-i)^{n/2} g^1 ... g^n for even n; squares to +1."""
    if dim % 2:
        raise ValueError("chirality requires even dimension")
    phase = QQi(Fraction(1))
    minus_i = QQi(Fraction(0), Fraction(-1))
    for _ in range(dim // 2):
        phase = phase * minus_i
    return Multivector(dim, {tuple(range(1, dim + 1)): phase})


def clifford_action(components: Sequence[ScalarLike], dim: int) -> Multivector:
    """One-form action: sum_a u_a g^a, components listed for a = 1..n."""
    if len(components) != dim:
        raise ValueError(f"expected {dim} components, got {len(components)}")
    terms: Dict[IndexWord, object] = {}
    for a, ua in enumerate(components, start=1):
        c = QQi.coerce(ua) if isinstance(ua, (int, Fraction, QQi)) else ua
        if c:
            terms[(a,)] = c
    return Multivector(dim, terms)
