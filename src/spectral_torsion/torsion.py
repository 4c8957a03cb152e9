"""Spectral torsion functionals via exact symbol calculus.

The central object is T(u, v, w) = W(u^ v^ w^ D_T |D_T|^{-n}): Clifford-act
three one-forms, multiply by the torsion Dirac operator, normalize by
|D_T|^{-n} and take the Wodzicki residue, i.e. integrate the degree -n symbol
over the unit cosphere and trace.  Everything is exact: Gaussian-rational
coefficients, symbolic sphere moments, the volume V(S^{n-1}) carried as a
unit.  Results are densities at the base point ("per unit volume"): the
global residue is this density integrated over the manifold.

The Dirac operator with torsion acts as D_T = D - i*kappa T_{jkl} g^j g^k g^l
for a totally antisymmetric torsion tensor T, with kappa = TORSION_KAPPA = 1/8,
giving the full symbol sigma(D_T) = -g^j xi_j - i*kappa T_{jkl} g^j g^k g^l.
The residue is linear in kappa.  The symbol calculus keeps x-linear terms
(first_order_symbol takes them), but no functional here builds one: a
connection term linear in x never reaches the residue, which the tests prove
with a curvature jet of their own.

The pipeline: dirac_symbol writes the potential -6i*kappa T_abc g^abc;
inverse_power_symbol writes D^2 down from the word table, with no product, and
takes one closed-form power of it to |D|^{-n}; sphere_average integrates the
degree -n part of D |D|^{-n} over the sphere in one pass from the two factors
(symcalc.integrate_product), without composing them; lead_residue checks its
window, cuts the lead to the words the average holds, the only ones the trace
can read, multiplies and traces.  torsion_functional forms its lead u^ v^ w^
only on those words, all of grade 3 (the grade law), from 3x3 minors.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import ClassVar, Dict, Iterable, List, Mapping, Set, Tuple

from .clifford import (Multivector, _word_product, chirality, clifford_action,
                       clifford_trace, trace_power)
from .scalars import QQi, ScalarLike, _frac, _reduced, qi
from .symcalc import (HomogeneousSymbol, SymbolSum, _check_tracked, compose,
                      integrate_product, negative_power, sphere_integrate, sphere_volume,
                      sqrt_symbol)

# kappa in D_T = D - i*kappa T_{jkl} g^j g^k g^l
TORSION_KAPPA = Fraction(1, 8)


@dataclass(frozen=True)
class _Tensor3:
    """A 3-tensor of Fractions, antisymmetric in the index positions _ANTI
    (all three, the last two or the first two).

    Entries are stored on keys in 1..dim that increase strictly along _ANTI;
    zero values are dropped.  A subclass states _ANTI and its _KEY_ERROR,
    formatted with the offending key and the dimension."""

    dim: int
    entries: Mapping[Tuple[int, int, int], Fraction]
    _ANTI: ClassVar[Tuple[int, ...]]
    _KEY_ERROR: ClassVar[str]

    def __post_init__(self) -> None:
        dim, first, last = self.dim, 0 in self._ANTI, 2 in self._ANTI
        clean: Dict[Tuple[int, int, int], Fraction] = {}
        for (i, j, k), v in self.entries.items():
            # type, not isinstance: a bool is an int but no index
            if not (all(type(x) is int for x in (i, j, k))
                    and 0 < i <= dim and 0 < j <= dim and 0 < k <= dim
                    and (i < j or not first) and (j < k or not last)):
                raise ValueError(self._KEY_ERROR.format((i, j, k), dim))
            v = _frac(v)
            if v:
                clean[(i, j, k)] = v
        object.__setattr__(self, "entries", clean)

    def get(self, i: int, j: int, k: int) -> Fraction:
        """The component at any index order: the stored value times the sign of
        the permutation that sorts the _ANTI positions, 0 on a repeated index there."""
        key, sign = [i, j, k], 1
        pairs = tuple(zip(self._ANTI, self._ANTI[1:]))
        # bubble sort by compare-exchange; on three positions it compares every pair
        for p, q in pairs + pairs[:-1]:
            if key[p] == key[q]:
                return Fraction(0)
            if key[p] > key[q]:
                key[p], key[q], sign = key[q], key[p], -sign
        v = self.entries.get(tuple(key), Fraction(0))
        return v if sign > 0 else -v


class TorsionTensor(_Tensor3):
    """Totally antisymmetric 3-tensor; entries stored on strictly increasing keys."""

    _ANTI = (0, 1, 2)
    _KEY_ERROR = "torsion key {} not strictly increasing in 1..{}"

    @staticmethod
    def zero(dim: int) -> "TorsionTensor":
        return TorsionTensor(dim, {})

    def is_zero(self) -> bool:
        return not self.entries


class ContorsionTensor(_Tensor3):
    """3-tensor antisymmetric in the last two indices: t_{ijk} = -t_{ikj}.

    Also serves for frame-connection rotation coefficients, which share this
    symmetry.  Entries stored with j < k.
    """

    _ANTI = (1, 2)
    _KEY_ERROR = "contorsion key {} must have 1 <= j < k <= {}"


def contorsion_from_torsion(t: TorsionTensor) -> ContorsionTensor:
    """tau_{ijk} = (T_{ijk} + T_{kij} + T_{kji}) / 2, which is T_{ijk} / 2 for a
    totally antisymmetric T: each stored T_abc gives the three keys j < k."""
    entries: Dict[Tuple[int, int, int], Fraction] = {}
    for (a, b, c), v in t.entries.items():
        entries[(a, b, c)] = entries[(c, a, b)] = v / 2
        entries[(b, a, c)] = -v / 2
    return ContorsionTensor(t.dim, entries)


def torsion_from_contorsion(tau: ContorsionTensor) -> TorsionTensor:
    """Recover the totally antisymmetric torsion; rejects contorsions that
    do not come from one.

    The half-cyclic sum inverts T_{ijk} = tau_{ijk} - tau_{jik} on tensors
    antisymmetric in one index pair, so T_abc = tau_abc - tau_bac on the keys
    a < b < c is the only candidate, and tau is accepted exactly when it maps back."""
    t = TorsionTensor(tau.dim, {(a, b, c): tau.get(a, b, c) - tau.get(b, a, c)
                                for a, b, c in combinations(range(1, tau.dim + 1), 3)})
    if contorsion_from_torsion(t) != tau:
        raise ValueError("contorsion does not yield a totally antisymmetric torsion")
    return t


@dataclass(frozen=True)
class OneForm:
    """Scalar one-form at the base point: components u_a for a = 1..n."""

    dim: int
    components: Tuple[QQi, ...]

    def __post_init__(self) -> None:
        comps = tuple(QQi.coerce(x) for x in self.components)
        if len(comps) != self.dim:
            raise ValueError(f"expected {self.dim} components")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def frame(dim: int, a: int) -> "OneForm":
        if not (1 <= a <= dim):
            raise ValueError(f"frame index {a} outside 1..{dim}")
        return OneForm(dim, tuple(QQi(Fraction(int(i == a))) for i in range(1, dim + 1)))

    def action(self) -> Multivector:
        return clifford_action(self.components, self.dim)


@dataclass(frozen=True)
class ResidueValue:
    """Exact residue density mult * V(S^{n-1}), mult a Gaussian rational.

    vpow, the power of V, is always 1.  Equality and hashing read (mult, dim):
    V(S^{n-1}) is nonzero and fixed by n."""

    mult: QQi
    dim: int
    vpow: ClassVar[int] = 1

    def pi_form(self) -> Tuple[QQi, int]:
        """Normalize to (Gaussian rational, pi power)."""
        v = sphere_volume(self.dim)
        return self.mult * v.rational, v.pipow

    def is_zero(self) -> bool:
        return not self.mult

    def __add__(self, other: "ResidueValue") -> "ResidueValue":
        if self.dim != other.dim:
            raise ValueError("incompatible residue values")
        return ResidueValue(self.mult + other.mult, self.dim)

    def scale(self, s: ScalarLike) -> "ResidueValue":
        return ResidueValue(self.mult * QQi.coerce(s), self.dim)

    def to_complex(self) -> complex:
        from math import pi
        coeff, pipow = self.pi_form()
        # scale each part on its own: a complex product would form inf * 0 = nan
        # from a part that saturated to inf
        z, scale = coeff.to_complex(), pi ** pipow
        return complex(z.real * scale, z.imag * scale)

    def __str__(self) -> str:
        coeff, pipow = self.pi_form()
        unit = "" if pipow == 0 else ("*pi" if pipow == 1 else f"*pi^{pipow}")
        return f"({self.mult})*V(S^{self.dim - 1}) = ({coeff}){unit} ~ {self.to_complex():.12g}"


# Dirac symbol and the residue pipeline --------------------------------------

def first_order_symbol(dim: int, one, potential: Mapping[int, Multivector]) -> SymbolSum:
    """-g^j xi_j (x) one + sum_s potential[s] x_s, with x_0 = 1 for the x-free part.

    one is the identity of the coefficient ring (QQi one, or an identity
    matrix); every Dirac operator examined here has this form.
    """
    deg1 = HomogeneousSymbol(dim, 1, {
        (tuple(int(l == j) for l in range(1, dim + 1)), 0, 0): Multivector(dim, {(j,): -one})
        for j in range(1, dim + 1)})
    deg0 = HomogeneousSymbol(dim, 0, {((0,) * dim, 0, s): mv for s, mv in potential.items()})
    return SymbolSum(dim, {1: deg1, 0: deg0})


def dirac_symbol(t: TorsionTensor, dim: int) -> SymbolSum:
    """Full symbol of D_T in normal coordinates at the base point.

    Degree 1: -g^j xi_j.  Degree 0: -i*kappa T_{jkl} g^j g^k g^l with
    kappa = TORSION_KAPPA, free of x, written as -6i*kappa T_abc on each stored
    a < b < c: T is totally antisymmetric and distinct gammas anticommute, so
    the six orderings of g^a g^b g^c agree.  An x-linear connection term cannot
    change the residue; the tests build one with first_order_symbol and prove so.
    """
    if t.dim != dim:
        raise ValueError("torsion dimension mismatch")
    k = -6 * TORSION_KAPPA
    cube = Multivector(dim)   # T's stored keys are canonical words, its entries nonzero
    cube.terms = {abc: _reduced(0, k.numerator * v.numerator, k.denominator * v.denominator)
                  for abc, v in t.entries.items()}
    return first_order_symbol(dim, QQi(Fraction(1)), {0: cube})


def _dirac_square(d: SymbolSum) -> SymbolSum:
    """D^2 on its two tracked degrees, written down for the spelling
    first_order_symbol writes, D = -g^j xi_j (x) one + sum_s V_s x_s:

        D^2 = ||xi||^2 one + sum_{j,s} xi_j x_s (-(g^j V_s + V_s g^j)).

    The cross terms g^j g^k cancel in pairs, and the first-order correction
    d_xi D . d_x D lands at degree 0, below the tracked ones.  For a word w,
    g^j w + w g^j is 2 g^j w when w holds j and has odd length or holds no j
    and has even length, and 0 otherwise.  One pass sorts each potential word
    to the j it keeps (its letters at odd grade, the others at even grade) and
    writes -2 g^j w from the word table, with no product; g^j permutes the
    words, so each is written once.  The result equals compose(d, d), with
    ||xi||^2 spelled sum_j xi_j^2 as compose spells it.  Any other spelling of d is refused.
    """
    dim = d.dim
    if set(d.parts) - {0, 1} or 1 not in d.parts:
        raise ValueError("symbol is not first order with a zero-order potential")
    lead = d.parts[1].terms
    # the ring is read off one coefficient; every term must then be -g^j xi_j (x) one
    c = next(iter(next(iter(lead.values())).terms.values()))
    one = QQi(Fraction(1)) if isinstance(c, QQi) else type(c).identity(c.size)
    minus_one = -one
    units = {tuple(int(l == j) for l in range(1, dim + 1)): j for j in range(1, dim + 1)}
    axes: Dict[int, Tuple[int, ...]] = {}
    for (alpha, _, xj), mv in lead.items():
        j = units.get(alpha)
        if xj or mv.terms != {(j,): minus_one}:
            raise ValueError("leading part is not -g^j xi_j times the ring one")
        axes[j] = alpha
    if len(axes) != dim:
        raise ValueError("leading part is not -g^j xi_j times the ring one")
    potential = d.component(0).terms
    if any(any(alpha) for alpha, _, _ in potential):
        raise ValueError("degree-0 term depends on xi")
    two, minus_two = QQi(2), QQi(-2)
    deg1: Dict[Tuple[Tuple[int, ...], int, int], Multivector] = {}
    for (_, _, s), v in potential.items():
        rows: Dict[int, Dict[Tuple[int, ...], object]] = {}
        for w, m in v.terms.items():
            for j in (w if len(w) % 2 else [k for k in axes if k not in w]):
                sign, word = _word_product(((j,), w))
                rows.setdefault(j, {})[word] = m * (minus_two if sign > 0 else two)
        for j, terms in rows.items():
            deg1[(axes[j], 0, s)] = row = Multivector(dim)
            row.terms = terms
    square = Multivector.scalar(dim, one)
    return SymbolSum(dim, {
        2: HomogeneousSymbol(dim, 2, {(tuple(2 * a for a in alpha), 0, 0): square
                                      for alpha in axes.values()}),
        1: HomogeneousSymbol(dim, 1, deg1)})


def inverse_power_symbol(d: SymbolSum) -> SymbolSum:
    """Symbol of |D|^{-n} to two leading degrees, from the symbol d of D; n = d.dim.

    D^2 is written down (_dirac_square).  Even n: its (n/2)-th negative power.
    Odd n: the n-th negative power of sqrt(D^2).  Either is one closed form
    (symcalc._power), with no compose.
    """
    dim = d.dim
    d2 = _dirac_square(d)
    if dim % 2 == 0:
        return negative_power(d2, dim // 2)
    return negative_power(sqrt_symbol(d2), dim)


def _zero_order_symbol(mv: Multivector) -> SymbolSum:
    return SymbolSum(mv.dim, {0: HomogeneousSymbol(mv.dim, 0, {((0,) * mv.dim, 0, 0): mv})})


def residue_of_symbol(sym: SymbolSum, dim: int) -> ResidueValue:
    """Wodzicki residue density: integrate and trace the degree -n component.
    No window check: a product whose top degree cancelled no longer shows the
    degree compose computed it from, so lead_residue checks the factors."""
    mult = clifford_trace(sphere_integrate(sym.component(-dim)))
    if not isinstance(mult, QQi):
        raise TypeError("residue trace did not reduce to a scalar")
    return ResidueValue(mult, dim)


def sphere_average(a: SymbolSum, b: SymbolSum) -> SymbolSum:
    """The radial symbol A' ||xi||^{-n}, A' the sphere integral of the degree -n
    part of the operator a b, n = a.dim (symcalc.integrate_product).

    Its own sphere integral is A', so for every zero-order lead P that depends
    on neither xi nor x, W(P a b) = W(P A' ||xi||^{-n}): the degree -n part of
    sigma(P a b) is exactly P times that of a b (the first-order correction
    needs d_xi P = 0), and integration is linear.  Rejects a b if its tracked
    window misses -n.
    """
    dim = a.dim
    return SymbolSum(dim, {-dim: HomogeneousSymbol.radial(dim, -dim, integrate_product(a, b))})


def _dirac_average(d: SymbolSum) -> SymbolSum:
    """sphere_average of D |D|^{-n}, from the symbol d of D."""
    return sphere_average(d, inverse_power_symbol(d))


def _held_words(averaged: SymbolSum) -> Set[Tuple[int, ...]]:
    """The words held by some term of any part of averaged."""
    return {w for h in averaged.parts.values() for mv in h.terms.values() for w in mv.terms}


def lead_residue(lead: Multivector, averaged: SymbolSum) -> ResidueValue:
    """W(P a b) for a constant zero-order lead P, given averaged = sphere_average(a, b).

    Rejects an averaged whose tracked window misses -n, which for a degree-0 P
    is the product's window (integrate_product checks its factors alike).  P
    is cut to the words that some term of averaged holds before it is
    composed.  This is exact: P is free of xi and x, so each term of the
    product is P times a term of averaged, and the trace reads only the unit
    word, which two canonical words reach only when they are equal.  The cut
    lead keeps P's dimension, so a mismatch is still refused by compose.  An
    empty averaged (a torsion-free D, every EYM model) leaves P whole: there
    is nothing to save, as compose returns at once on an empty factor, and
    perfbench's tracer times the lead step only as a compose whose left
    factor is a nonempty zero-order symbol.
    """
    if averaged.parts:
        _check_tracked(averaged.leading_degree, -averaged.dim)
    held = _held_words(averaged)
    if held:
        cut = Multivector(lead.dim)
        cut.terms = {w: c for w, c in lead.terms.items() if w in held}
        lead = cut
    return residue_of_symbol(compose(_zero_order_symbol(lead), averaged), averaged.dim)


def _integer_parts(f: OneForm) -> Tuple[int, List[Tuple[int, List[int]]]]:
    """(den, parts): den is the common denominator of f's components, and parts
    lists (k, vector) for the integer numerator vectors re (k = 0) and im
    (k = 1) with f = (re + i im) / den, leaving out a vector of zeros.  Each
    vector is padded with a zero at index 0, so a gamma index reads it directly."""
    den = lcm(*(c._d for c in f.components))
    re = [0] + [c._a * (den // c._d) for c in f.components]
    im = [0] + [c._b * (den // c._d) for c in f.components]
    return den, [(k, part) for k, part in ((0, re), (1, im)) if any(part)]


def _lead_on_words(u: OneForm, v: OneForm, w: OneForm,
                   words: Iterable[Tuple[int, ...]]) -> Multivector:
    """The terms of u^ v^ w^ on the given canonical words of grade 3, formed
    from the one-forms without a Clifford product; other grades are refused.

    The coefficient of g^abc (a < b < c) in u v w is the 3x3 minor of
    (u, v, w) on rows a, b, c.  No other grade is read: the average of a
    potential of grades 1 and 3 holds grade 3 only (the grade law: c_1 = 0).
    The minor is trilinear: it is summed over the real and imaginary integer
    parts of the three forms (_integer_parts) with the matching power of i,
    and reduced once over the three denominators.
    """
    acc = {word: [0, 0] for word in words}
    if any(len(word) != 3 for word in acc):
        raise ValueError("the lead is formed on grade-3 words only")
    (du, us), (dv, vs), (dw, ws) = _integer_parts(u), _integer_parts(v), _integer_parts(w)
    for ku, x in us:
        for kv, y in vs:
            for kw, z in ws:
                k = ku + kv + kw
                slot, sign = k % 2, (1 if k < 2 else -1)   # i^k
                for (a, b, c), parts in acc.items():
                    parts[slot] += sign * (x[a] * (y[b] * z[c] - y[c] * z[b])
                                           - x[b] * (y[a] * z[c] - y[c] * z[a])
                                           + x[c] * (y[a] * z[b] - y[b] * z[a]))
    den = du * dv * dw
    out = Multivector(u.dim)
    out.terms = {word: _reduced(re, im, den) for word, (re, im) in acc.items() if re or im}
    return out


def torsion_functional(u: OneForm, v: OneForm, w: OneForm, t: TorsionTensor,
                       dim: int) -> ResidueValue:
    """W(u^ v^ w^ D_T |D_T|^{-n}) as an exact density, full symbol pipeline.

    The lead is formed only on the words the averaged symbol holds
    (_lead_on_words), the only ones lead_residue keeps."""
    if not (u.dim == v.dim == w.dim == t.dim == dim):
        raise ValueError("dimension mismatch among inputs")
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    averaged = _dirac_average(dirac_symbol(t, dim))
    return lead_residue(_lead_on_words(u, v, w, _held_words(averaged)), averaged)


def torsion_contraction(u: OneForm, v: OneForm, w: OneForm, t: TorsionTensor) -> QQi:
    """sum_{abc} u_a v_b w_c T_{abc}, exact: by total antisymmetry, the sum over the
    stored a < b < c of T_abc times the 3x3 minor of (u, v, w) on rows a, b, c,
    which is the coefficient of g^abc in u v w (_lead_on_words)."""
    minors = _lead_on_words(u, v, w, t.entries).terms
    out = QQi()
    for abc, tv in t.entries.items():
        if abc in minors:
            out = out + minors[abc] * tv
    return out


def closed_form_torsion(u: OneForm, v: OneForm, w: OneForm, t: TorsionTensor,
                        dim: int) -> ResidueValue:
    """The closed-form candidate -2^m i V(S^{n-1}) sum u_a v_b w_c T_{abc}.

    Note: this constant does NOT reproduce the symbol pipeline; the calculus
    yields pipeline_coefficient(dim) = -3 * 2^(m-1) i, a factor 3/2 larger in
    magnitude (see README).  Kept as stated so the discrepancy is visible.
    """
    mult = qi(0, -(2 ** trace_power(dim))) * torsion_contraction(u, v, w, t)
    return ResidueValue(mult, dim)


def pipeline_coefficient(dim: int) -> QQi:
    """Constant c(n) with torsion_functional = c(n) * contraction * V(S^{n-1}).

    The symbol pipeline produces c(n) = -3 * 2^(m-1) * i (m as in Tr(1) = 2^m)
    for every n >= 3; the unit tests pin this against independent gamma-matrix
    oracles.  It differs from closed_form_torsion's -2^m i by a factor 3/2.
    """
    return qi(0, Fraction(-3 * 2 ** (trace_power(dim) - 1)))


def chirality_functional(u: OneForm, t: TorsionTensor) -> ResidueValue:
    """W(chi u^ D_T |D_T|^{-4}) with chi the chirality element; n = 4 only."""
    if u.dim != 4 or t.dim != 4:
        raise ValueError("chirality functional is defined for n = 4")
    return lead_residue(chirality(4) * u.action(), _dirac_average(dirac_symbol(t, 4)))


def spectral_closedness_check(p: Multivector) -> ResidueValue:
    """W(P D |D|^{-n}) for a zero-order P and the torsion-free D, n = p.dim; exactly 0."""
    return lead_residue(p, _dirac_average(dirac_symbol(TorsionTensor.zero(p.dim), p.dim)))


def _free_average(p: Multivector) -> SymbolSum:
    """sphere_average of a zero-order P times |D|^{-n}, for the torsion-free D, n = p.dim."""
    return sphere_average(_zero_order_symbol(p),
                          inverse_power_symbol(dirac_symbol(TorsionTensor.zero(p.dim), p.dim)))


def metric_functional(u: OneForm, v: OneForm, dim: int) -> ResidueValue:
    """W(u^ v^ D^{-n}) for even n: equals 2^m V(S^{n-1}) u.v."""
    if dim % 2:
        raise ValueError("metric functional requires even dimension")
    if u.dim != dim or v.dim != dim:
        raise ValueError("dimension mismatch among inputs")
    return lead_residue(u.action() * v.action(),
                        _free_average(Multivector.scalar(dim, QQi(1))))


def volume_functional(f: ScalarLike, dim: int) -> ResidueValue:
    """W(f D^{-n}) for even n and a scalar f: equals 2^m V(S^{n-1}) f."""
    if dim % 2:
        raise ValueError("volume functional requires even dimension")
    return lead_residue(Multivector.scalar(dim, QQi.coerce(f)),
                        _free_average(Multivector.scalar(dim, QQi(1))))
