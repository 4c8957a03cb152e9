"""Pseudodifferential symbol calculus at a point, in normal coordinates.

A homogeneous symbol of degree d is a finite sum of terms

    coeff * xi^alpha * ||xi||^rho * (1 or x_j)      with |alpha| + rho = d,

where coeff is a Multivector (Clifford element with ring coefficients), alpha
is an exponent multi-index and rho an integer power of the Euclidean norm.
x-dependence is kept as a jet of order 1: a term either has no x factor or a
single linear factor x_j.  Products of two x-linear terms leave the truncated
class and are dropped; since evaluation happens at x = 0 and curvature enters
the metric only at x-order 2, the truncation is exact for the TRACKED = 2 top
degrees kept here, which are all the residue functionals read.

Composition follows sigma(AB) = sum_alpha (1/alpha!) d_xi^alpha A . (-i d_x)^alpha B;
with order-1 jets only |alpha| <= 1 contributes, exactly.  That rule is one
generator of factor pairs per degree (_factor_pairs).  compose multiplies every
pair; integrate_product, the sphere integral at x = 0 of the degree -n part of
a product, walks the same pairs and multiplies only the term pairs that are
free of x and have an even exponent sum, the only ones with a nonzero moment.

Powers are closed forms.  When the leading part L of a is c ||xi||^p times the
unit with no x factor, and S is the next component, a^e = L^e + e L^(e-1) S on
the TRACKED = 2 degrees: every composition correction involving L
differentiates it in x, which gives zero, or lands two degrees below the top.  parametrix
(e = -1), negative_power (the m-th power of the parametrix) and sqrt_symbol
(e = 1/2) write that form down and form no product.  L is read only in the
spellings compose and the powers write, c ||xi||^p and sum_j c xi_j^2 ||xi||^(p-2)
(or a sum of the two); any other spelling is refused, so the calculus never
has to decide whether two spellings are the same function.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .clifford import Multivector
from .scalars import QQi

TermKey = Tuple[Tuple[int, ...], int, int]   # (alpha, rho, xj); xj = 0 means none
MINUS_I = QQi(Fraction(0), Fraction(-1))
TRACKED = 2   # homogeneous degrees kept, counting down from the leading one


def _check_key(key: TermKey, dim: int) -> None:
    alpha, rho, xj = key
    if len(alpha) != dim or any(a < 0 for a in alpha):
        raise ValueError(f"bad exponent multi-index {alpha}")
    if not (0 <= xj <= dim):
        raise ValueError(f"bad x index {xj}")
    del rho


class HomogeneousSymbol:
    """Single homogeneity component; terms maps TermKey -> Multivector."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int,
                 terms: Optional[Mapping[TermKey, Multivector]] = None):
        self.dim = dim
        self.degree = degree
        self.terms: Dict[TermKey, Multivector] = {}
        if terms:
            for key, mv in terms.items():
                _check_key(key, dim)
                alpha, rho, _ = key
                if sum(alpha) + rho != degree:
                    raise ValueError(f"term {key} is not homogeneous of degree {degree}")
                if mv.dim != dim:
                    raise ValueError("coefficient dimension mismatch")
                if mv:
                    self.terms[key] = mv

    @staticmethod
    def radial(dim: int, rho: int, coeff: Multivector) -> "HomogeneousSymbol":
        """coeff * ||xi||^rho."""
        return HomogeneousSymbol(dim, rho, {((0,) * dim, rho, 0): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _merge(self, key: TermKey, mv: Multivector) -> None:
        acc = self.terms.get(key)
        acc = mv if acc is None else acc + mv
        if acc:
            self.terms[key] = acc
        else:
            self.terms.pop(key, None)

    def __add__(self, other: "HomogeneousSymbol") -> "HomogeneousSymbol":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("cannot add symbols of different degree or dimension")
        out = HomogeneousSymbol(self.dim, self.degree, self.terms)
        for key, mv in other.terms.items():
            out._merge(key, mv)
        return out

    def __neg__(self) -> "HomogeneousSymbol":
        out = HomogeneousSymbol(self.dim, self.degree)
        out.terms = {k: -mv for k, mv in self.terms.items()}
        return out

    def __sub__(self, other: "HomogeneousSymbol") -> "HomogeneousSymbol":
        return self + (-other)

    def scale(self, s) -> "HomogeneousSymbol":
        out = HomogeneousSymbol(self.dim, self.degree)
        out.terms = {k: v for k, v in ((k, mv.scale(s)) for k, mv in self.terms.items()) if v}
        return out


def _is_unit(mv: Multivector) -> bool:
    """True when mv is the unit word with the QQi one as coefficient."""
    c = mv.terms.get(())
    return len(mv.terms) == 1 and type(c) is QQi and c == 1


def _radial_unit_power(h: HomogeneousSymbol) -> Optional[int]:
    """r when h is the single term ||xi||^r with the QQi unit as coefficient."""
    if len(h.terms) != 1:
        return None
    ((alpha, rho, xj), mv), = h.terms.items()
    return None if xj or any(alpha) or not _is_unit(mv) else rho


def hs_mul(a: HomogeneousSymbol, b: HomogeneousSymbol) -> HomogeneousSymbol:
    """Pointwise product (the |alpha| = 0 part of composition)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = HomogeneousSymbol(a.dim, a.degree + b.degree)
    # a radial unit ||xi||^r only shifts the other factor's norm powers
    for unit, other in ((a, b), (b, a)):
        r = _radial_unit_power(unit)
        if r is not None:
            out.terms = {(al, rho + r, xj): mv for (al, rho, xj), mv in other.terms.items()}
            return out
    for (al1, r1, x1), m1 in a.terms.items():
        for (al2, r2, x2), m2 in b.terms.items():
            if x1 and x2:
                continue  # x^2 exceeds the jet order
            key = (tuple(p + q for p, q in zip(al1, al2)), r1 + r2, x1 or x2)
            out._merge(key, m1 * m2)
    return out


def hs_dxi(h: HomogeneousSymbol, l: int) -> HomogeneousSymbol:
    """d/d xi_l; degree drops by one.  l is 1-based."""
    out = HomogeneousSymbol(h.dim, h.degree - 1)
    i = l - 1
    for (alpha, rho, xj), mv in h.terms.items():
        if alpha[i]:
            down = list(alpha)
            down[i] -= 1
            out._merge((tuple(down), rho, xj), mv.scale(alpha[i]))
        if rho:
            up = list(alpha)
            up[i] += 1
            out._merge((tuple(up), rho - 2, xj), mv.scale(rho))
    return out


def hs_dx(h: HomogeneousSymbol, l: int) -> HomogeneousSymbol:
    """d/d x_l on the order-1 jet; same xi-degree, x factor consumed."""
    out = HomogeneousSymbol(h.dim, h.degree)
    for (alpha, rho, xj), mv in h.terms.items():
        if xj == l:
            out._merge((alpha, rho, 0), mv)
    return out


class SymbolSum:
    """Asymptotic expansion: homogeneous components for the top TRACKED degrees.

    parts maps degree -> HomogeneousSymbol.  Degrees below
    leading_degree - TRACKED + 1 are not tracked and carry no meaning.
    """

    __slots__ = ("dim", "parts")

    def __init__(self, dim: int, parts: Mapping[int, HomogeneousSymbol]):
        self.dim = dim
        self.parts: Dict[int, HomogeneousSymbol] = {}
        for deg, hs in parts.items():
            if hs.dim != dim or hs.degree != deg:
                raise ValueError("component mismatch")
            if hs:
                self.parts[deg] = hs

    @property
    def leading_degree(self) -> int:
        if not self.parts:
            raise ValueError("zero symbol has no leading degree")
        return max(self.parts)

    def component(self, degree: int) -> HomogeneousSymbol:
        return self.parts.get(degree, HomogeneousSymbol(self.dim, degree))


def _factor_pairs(a: SymbolSum, b: SymbolSum, lead_a: int, d: int):
    """The composition rule: (x, y, s) for each pair of homogeneous factors whose
    pointwise product x y, times s (None for 1), compose sums into degree d."""
    for da in range(lead_a, lead_a - TRACKED, -1):
        ha = a.parts.get(da)
        if ha is None:
            continue
        if d - da in b.parts:
            yield ha, b.parts[d - da], None
        # first-order correction: d_xi A at degree da lands at da - 1,
        # over the x indices that B's part carries
        bb = b.parts.get(d + 1 - da)
        if bb is not None:
            for l in sorted({xj for (_, _, xj) in bb.terms if xj}):
                dxa = hs_dxi(ha, l)
                if dxa:
                    yield dxa, hs_dx(bb, l), MINUS_I


def compose(a: SymbolSum, b: SymbolSum) -> SymbolSum:
    """Symbol of the operator product, valid for the top TRACKED degrees."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not a.parts or not b.parts:
        return SymbolSum(a.dim, {})
    lead_a = a.leading_degree
    lead = lead_a + b.leading_degree
    parts: Dict[int, HomogeneousSymbol] = {}
    for d in range(lead, lead - TRACKED, -1):
        acc = HomogeneousSymbol(a.dim, d)
        for x, y, s in _factor_pairs(a, b, lead_a, d):
            for key, mv in hs_mul(x, y).terms.items():
                acc._merge(key, mv if s is None else mv.scale(s))
        if acc:
            parts[d] = acc
    return SymbolSum(a.dim, parts)


def _unit_scalar(mv: Multivector):
    """Split a Multivector of the form c * unit-word * ring-one into (c, one)."""
    coeff = mv.terms.get(())
    if coeff is None or len(mv.terms) != 1:
        raise ValueError("leading coefficient is not a multiple of the unit")
    if isinstance(coeff, QQi):
        diag, one = coeff, QQi(Fraction(1))
    else:
        # matrix-like coefficient: must be c * identity
        diag, one = coeff.entry(0, 0), type(coeff).identity(coeff.size)
        if coeff != diag * one:
            raise ValueError("leading coefficient is not a multiple of the unit")
    if not diag:
        raise ValueError("non-invertible leading term")
    return diag, one


def _radial_spelling(hs: HomogeneousSymbol) -> Optional[Multivector]:
    """C0 + C1 when hs is C0 ||xi||^p + sum_j C1 xi_j^2 ||xi||^(p-2), either part
    alone or both, C1 shared by every j and no x factor; None for any other
    spelling.  These are the two spellings compositions produce."""
    c0 = c1 = None
    squares = 0
    for (alpha, _, xj), mv in hs.terms.items():
        if xj:
            return None
        if not any(alpha):
            c0 = mv
            continue
        if sum(alpha) != 2 or 2 not in alpha or (c1 is not None and mv != c1):
            return None
        c1 = mv
        squares += 1
    if c1 is None:
        return c0
    if squares != hs.dim:
        return None
    return c1 if c0 is None else c0 + c1


def _leading_scalar(hs: HomogeneousSymbol):
    """Require the leading part to be c * ||xi||^p * unit; return (p, c, one).

    c is the invertible QQi factor and `one` the ring identity coefficient it
    multiplies (QQi one, or an identity matrix for matrix coefficients).  Only
    the spellings compose and the powers write are read, in one pass by
    _radial_spelling: C0 ||xi||^p, sum_j C1 xi_j^2 ||xi||^(p-2), or both.  Any
    other spelling is refused, even one equal to c ||xi||^p as a function.
    """
    cand = _radial_spelling(hs)
    if cand is None:
        raise ValueError("leading term is not a radial scalar")
    c, one = _unit_scalar(cand)
    return hs.degree, c, one


def _power(a: SymbolSum, lead, e) -> SymbolSum:
    """a^e = L^e + e L^(e-1) S (see the module docstring), for lead = (p, c, one)
    of L, S = a.component(p - 1), and e an integer or c = 1."""
    p, c, one = lead
    ce1, k = QQi(Fraction(1)), (0 if c == 1 else int(e) - 1)   # c^(e-1)
    for _ in range(abs(k)):
        ce1 = ce1 * c if k > 0 else ce1 / c
    top = int(p * e)
    sub = HomogeneousSymbol(a.dim, top - 1)
    sub.terms = {(alpha, rho + top - p, xj): mv for (alpha, rho, xj), mv
                 in a.component(p - 1).scale(ce1 * e).terms.items()}
    return SymbolSum(a.dim, {top: HomogeneousSymbol.radial(
        a.dim, top, Multivector.scalar(a.dim, one).scale(ce1 * c)), top - 1: sub})


def parametrix(a: SymbolSum) -> SymbolSum:
    """Right-inverse expansion: compose(parametrix(a), a) = 1 on the tracked degrees."""
    return _power(a, _leading_scalar(a.component(a.leading_degree)), -1)


def negative_power(a: SymbolSum, m: int) -> SymbolSum:
    """Symbol of a^{-m}: the m-th power of the parametrix."""
    if m < 1:
        raise ValueError("power must be >= 1")
    b = parametrix(a)
    return _power(b, _leading_scalar(b.component(b.leading_degree)), m)


def sqrt_symbol(a: SymbolSum) -> SymbolSum:
    """Square root, compose(s, s) = a on the tracked degrees, of a leading ||xi||^2."""
    p, c, one = _leading_scalar(a.component(a.leading_degree))
    if p != 2 or c != QQi(Fraction(1)):
        raise ValueError("sqrt requires leading term ||xi||^2 times the unit")
    return _power(a, (p, c, one), Fraction(1, 2))


# sphere integration ---------------------------------------------------------

def _double_factorial(k: int) -> int:
    if k <= 0:
        return 1
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def moment(alpha: Iterable[int], dim: int) -> Fraction:
    """int_{S^{n-1}} xi^alpha dS in units of V(S^{n-1}).

    Zero for odd exponents; otherwise prod (alpha_l - 1)!! / prod_{i<k} (n + 2i)
    with 2k = |alpha|.
    """
    alpha = tuple(alpha)
    if any(x % 2 for x in alpha):
        return Fraction(0)
    k = sum(alpha) // 2
    num = 1
    for x in alpha:
        num *= _double_factorial(x - 1)
    den = 1
    for i in range(k):
        den *= dim + 2 * i
    return Fraction(num, den)


def _add_scaled(acc: Dict[Tuple[int, ...], object], c: QQi, mv: Multivector) -> None:
    """acc += c * mv, word by word, dropping words that cancel."""
    for word, coeff in mv.terms.items():
        s = acc.get(word)
        s = c * coeff if s is None else s + c * coeff
        if s:
            acc[word] = s
        else:
            acc.pop(word, None)


def sphere_integrate(h: HomogeneousSymbol) -> Multivector:
    """Integrate over ||xi|| = 1 at x = 0; result is in units of V(S^{n-1})."""
    acc: Dict[Tuple[int, ...], object] = {}
    for (alpha, _rho, xj), mv in h.terms.items():
        if xj:
            continue  # x = 0 at the base point
        c = moment(alpha, h.dim)
        if c:
            _add_scaled(acc, QQi.coerce(c), mv)
    out = Multivector(h.dim)
    out.terms = acc
    return out


def _check_tracked(lead: int, degree: int) -> None:
    """Reject a degree outside the window of a symbol with leading degree lead."""
    if not lead >= degree > lead - TRACKED:
        raise ValueError(f"degree {degree} component not tracked (leading {lead}, "
                         f"tracked {TRACKED})")


def integrate_product(a: SymbolSum, b: SymbolSum) -> Multivector:
    """sphere_integrate(compose(a, b).component(-n)), n = a.dim, in one pass.

    Walks compose's factor pairs (_factor_pairs) and multiplies only the term
    pairs the integral keeps: both terms free of x (x = 0 at the base point)
    and an even exponent sum (odd sphere moments vanish); a QQi unit factor
    is not multiplied, as in hs_mul.  Rejects a product whose tracked window
    misses -n.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    dim = a.dim
    out = Multivector(dim)
    if not a.parts or not b.parts:
        return out
    lead_a = a.leading_degree
    _check_tracked(lead_a + b.leading_degree, -dim)
    for x, y, s in _factor_pairs(a, b, lead_a, -dim):
        ys = [(al, mv, _is_unit(mv)) for (al, _, xj), mv in y.terms.items() if not xj]
        for (al1, _, x1), m1 in x.terms.items():
            if x1:
                continue
            unit1 = _is_unit(m1)
            for al2, m2, unit2 in ys:
                alpha = tuple(p + q for p, q in zip(al1, al2))
                if any(e % 2 for e in alpha):
                    continue
                c = QQi.coerce(moment(alpha, dim))
                _add_scaled(out.terms, c if s is None else c * s,
                            m2 if unit1 else m1 if unit2 else m1 * m2)
    return out


@dataclass(frozen=True)
class PiValue:
    """Exact value rational * pi^pipow."""

    rational: Fraction
    pipow: int


def sphere_volume(dim: int) -> PiValue:
    """V(S^{n-1}) = 2 pi^{n/2} / Gamma(n/2), kept exact as rational * pi^k."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim % 2 == 0:
        return PiValue(Fraction(2, factorial(dim // 2 - 1)), dim // 2)
    return PiValue(Fraction(2 ** ((dim + 1) // 2), _double_factorial(dim - 2)),
                   (dim - 1) // 2)
