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
giving the full symbol sigma(D_T) = -g^j xi_j - i*kappa T_{jkl} g^j g^k g^l
(plus an optional x-linear Levi-Civita term used by the curvature-independence
tests).  The residue is linear in kappa.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Dict, Mapping, Optional, Tuple

from .clifford import (Multivector, chirality, clifford_action, clifford_trace,
                       trace_power)
from .scalars import QQi, ScalarLike, _frac, qi
from .symcalc import (TRACKED, HomogeneousSymbol, SymbolSum, compose, negative_power,
                      parametrix, sphere_integrate, sphere_volume, sqrt_symbol)

OmegaJet = Mapping[Tuple[int, int, int, int], Fraction]

# kappa in D_T = D - i*kappa T_{jkl} g^j g^k g^l
TORSION_KAPPA = Fraction(1, 8)


def _clean_entries(tensor, admissible: Callable[[int, int, int], bool], error: str) -> None:
    """Validate a 3-tensor's keys, coerce its values to Fraction, drop zeros.

    error is formatted with the offending key and the dimension."""
    clean: Dict[Tuple[int, int, int], Fraction] = {}
    for (i, j, k), v in tensor.entries.items():
        if not admissible(i, j, k):
            raise ValueError(error.format((i, j, k), tensor.dim))
        v = _frac(v)
        if v:
            clean[(i, j, k)] = v
    object.__setattr__(tensor, "entries", clean)


@dataclass(frozen=True)
class TorsionTensor:
    """Totally antisymmetric 3-tensor; entries stored on strictly increasing keys."""

    dim: int
    entries: Mapping[Tuple[int, int, int], Fraction]

    def __post_init__(self) -> None:
        _clean_entries(self, lambda a, b, c: 1 <= a < b < c <= self.dim,
                       "torsion key {} not strictly increasing in 1..{}")

    @staticmethod
    def zero(dim: int) -> "TorsionTensor":
        return TorsionTensor(dim, {})

    def get(self, i: int, j: int, k: int) -> Fraction:
        if len({i, j, k}) < 3:
            return Fraction(0)
        order = tuple(sorted((i, j, k)))
        base = self.entries.get(order, Fraction(0))
        if not base:
            return base
        # parity of the permutation taking sorted order to (i, j, k)
        perm = [order.index(x) for x in (i, j, k)]
        sign = 1
        for p in range(3):
            for q in range(p + 1, 3):
                if perm[p] > perm[q]:
                    sign = -sign
        return base if sign > 0 else -base

    def is_zero(self) -> bool:
        return not self.entries


@dataclass(frozen=True)
class ContorsionTensor:
    """3-tensor antisymmetric in the last two indices: t_{ijk} = -t_{ikj}.

    Also serves for frame-connection rotation coefficients, which share this
    symmetry.  Entries stored with j < k.
    """

    dim: int
    entries: Mapping[Tuple[int, int, int], Fraction]

    def __post_init__(self) -> None:
        _clean_entries(self, lambda i, j, k: 1 <= min(i, j, k) and max(i, j, k) <= self.dim
                       and j < k,
                       "contorsion key {} must have 1 <= j < k <= {}")

    def get(self, i: int, j: int, k: int) -> Fraction:
        if j == k:
            return Fraction(0)
        if j < k:
            return self.entries.get((i, j, k), Fraction(0))
        return -self.entries.get((i, k, j), Fraction(0))


@dataclass(frozen=True)
class FrameConnection:
    """Structure constants c_{ijk} of a frame: [e_i, e_j] = c_{ijk} e_k.

    Antisymmetric in the first two indices; entries stored with i < j.
    """

    dim: int
    entries: Mapping[Tuple[int, int, int], Fraction]

    def __post_init__(self) -> None:
        _clean_entries(self, lambda i, j, k: 1 <= min(i, j, k) and max(i, j, k) <= self.dim
                       and i < j,
                       "structure key {} must have 1 <= i < j <= {}")

    def get(self, i: int, j: int, k: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if i < j:
            return self.entries.get((i, j, k), Fraction(0))
        return -self.entries.get((j, i, k), Fraction(0))


def _half_cyclic_sum(x) -> ContorsionTensor:
    """(x_{ijk} + x_{kij} + x_{kji}) / 2 for a 3-tensor x with .dim and .get."""
    entries: Dict[Tuple[int, int, int], Fraction] = {}
    rng = range(1, x.dim + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                if j < k:
                    v = (x.get(i, j, k) + x.get(k, i, j) + x.get(k, j, i)) / 2
                    if v:
                        entries[(i, j, k)] = v
    return ContorsionTensor(x.dim, entries)


def contorsion_from_torsion(t: TorsionTensor) -> ContorsionTensor:
    """tau_{ijk} = (T_{ijk} + T_{kij} + T_{kji}) / 2."""
    return _half_cyclic_sum(t)


def torsion_components_from_contorsion(tau: ContorsionTensor) -> Dict[Tuple[int, int, int], Fraction]:
    """All components of T_{ijk} = tau_{ijk} - tau_{jik}.

    The result is antisymmetric in the first two indices for every admissible
    tau; it is totally antisymmetric exactly when tau arises from a totally
    antisymmetric torsion.
    """
    out: Dict[Tuple[int, int, int], Fraction] = {}
    rng = range(1, tau.dim + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                v = tau.get(i, j, k) - tau.get(j, i, k)
                if v:
                    out[(i, j, k)] = v
    return out


def torsion_from_contorsion(tau: ContorsionTensor) -> TorsionTensor:
    """Recover the totally antisymmetric torsion; rejects contorsions that
    do not come from one."""
    comp = torsion_components_from_contorsion(tau)
    entries: Dict[Tuple[int, int, int], Fraction] = {}
    for (i, j, k), v in comp.items():
        if len({i, j, k}) < 3:
            if v:
                raise ValueError("contorsion does not yield a totally antisymmetric torsion")
            continue
        if i < j < k:
            entries[(i, j, k)] = v
    t = TorsionTensor(tau.dim, entries)
    for key, v in comp.items():
        if t.get(*key) != v:
            raise ValueError("contorsion does not yield a totally antisymmetric torsion")
    return t


def levi_civita_from_structure(c: FrameConnection) -> ContorsionTensor:
    """Levi-Civita rotation coefficients omega_{ijk} = (c_{ijk} + c_{kij} + c_{kji}) / 2."""
    return _half_cyclic_sum(c)


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

def torsion_form_multivector(t: TorsionTensor) -> Multivector:
    """sum_{jkl} T_{jkl} g^j g^k g^l = sum_{a<b<c} 6 T_abc g^abc as a canonical multivector:
    T is totally antisymmetric and distinct gammas anticommute, so all six orderings agree."""
    return Multivector(t.dim, {abc: QQi(6 * v) for abc, v in t.entries.items()})


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


def dirac_symbol(t: TorsionTensor, dim: int,
                 omega_jet: Optional[OmegaJet] = None) -> SymbolSum:
    """Full symbol of D_T in normal coordinates at the base point.

    Degree 1: -g^j xi_j.  Degree 0: -i*kappa T_{jkl} g^j g^k g^l with
    kappa = TORSION_KAPPA, plus the x-linear Levi-Civita part
    -(i/4) omega_{jkl;s} g^j g^k g^l x_s when a connection jet is supplied (it
    cannot change the residue; tests prove so).
    """
    if t.dim != dim:
        raise ValueError("torsion dimension mismatch")
    potential = {0: torsion_form_multivector(t).scale(qi(0, -TORSION_KAPPA))}
    for (j, k, l, s), v in (omega_jet or {}).items():
        if not all(1 <= x <= dim for x in (j, k, l, s)):
            raise ValueError(f"connection jet index {(j, k, l, s)} outside 1..{dim}")
        word = (Multivector.gamma(dim, j) * Multivector.gamma(dim, k)
                * Multivector.gamma(dim, l)).scale(qi(0, Fraction(-1, 4)) * _frac(v))
        potential[s] = potential.get(s, Multivector(dim)) + word
    return first_order_symbol(dim, QQi(Fraction(1)), potential)


def inverse_power_symbol(d: SymbolSum) -> SymbolSum:
    """Symbol of |D|^{-n} to two leading degrees, from the symbol d of D; n = d.dim.

    Even n: the (n/2)-fold composed parametrix of D^2.  Odd n: the
    ((n-1)/2)-power composed with the parametrix of sqrt(D^2).
    """
    dim = d.dim
    d2 = compose(d, d)
    if dim % 2 == 0:
        return negative_power(d2, dim // 2)
    inv_sqrt = parametrix(sqrt_symbol(d2))
    if dim == 1:
        return inv_sqrt
    return compose(negative_power(d2, (dim - 1) // 2), inv_sqrt)


def dirac_power(d: SymbolSum) -> SymbolSum:
    """Symbol of D |D|^{-n} to two leading degrees, from the symbol d of D."""
    return compose(d, inverse_power_symbol(d))


def _zero_order_symbol(mv: Multivector) -> SymbolSum:
    return SymbolSum(mv.dim, {0: HomogeneousSymbol(mv.dim, 0, {((0,) * mv.dim, 0, 0): mv})})


def _residue_component(sym: SymbolSum, dim: int) -> HomogeneousSymbol:
    """The degree -n component; rejects symbols whose tracked window misses -n."""
    if sym.parts:
        lead = sym.leading_degree
        if not (lead >= -dim > lead - TRACKED):
            raise ValueError(f"degree -{dim} component not tracked (leading {lead}, "
                             f"tracked {TRACKED})")
    return sym.component(-dim)


def residue_of_symbol(sym: SymbolSum, dim: int) -> ResidueValue:
    """Wodzicki residue density of an order >= -n symbol: integrate and trace
    the degree -n component.  Rejects symbols whose tracked window misses -n."""
    integrated = sphere_integrate(_residue_component(sym, dim))
    mult = clifford_trace(integrated)
    if not isinstance(mult, QQi):
        raise TypeError("residue trace did not reduce to a scalar")
    return ResidueValue(mult, dim)


def sphere_average(op: SymbolSum, dim: int) -> SymbolSum:
    """The radial symbol A' ||xi||^{-n}, A' the sphere integral of op's degree -n part.

    Its own sphere integral is A', so for every zero-order lead P that depends
    on neither xi nor x, W(P op) = W(P A' ||xi||^{-n}): the degree -n part of
    sigma(P op) is exactly P times that of op (the first-order correction needs
    d_xi P = 0), and integration is linear.  Rejects op if its tracked window
    misses -n.
    """
    avg = sphere_integrate(_residue_component(op, dim))
    return SymbolSum(dim, {-dim: HomogeneousSymbol.radial(dim, -dim, avg)})


def lead_residue(lead: Multivector, averaged: SymbolSum) -> ResidueValue:
    """W(P op) for a constant zero-order lead P, given averaged = sphere_average(op, n)."""
    return residue_of_symbol(compose(_zero_order_symbol(lead), averaged), averaged.dim)


def torsion_functional(u: OneForm, v: OneForm, w: OneForm, t: TorsionTensor,
                       dim: int, omega_jet: Optional[OmegaJet] = None) -> ResidueValue:
    """W(u^ v^ w^ D_T |D_T|^{-n}) as an exact density, full symbol pipeline."""
    if not (u.dim == v.dim == w.dim == t.dim == dim):
        raise ValueError("dimension mismatch among inputs")
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return lead_residue(u.action() * v.action() * w.action(),
                        sphere_average(dirac_power(dirac_symbol(t, dim, omega_jet)), dim))


def torsion_contraction(u: OneForm, v: OneForm, w: OneForm, t: TorsionTensor) -> QQi:
    """sum_{abc} u_a v_b w_c T_{abc}, exact: by total antisymmetry, the sum over the
    stored a < b < c of T_abc times the 3x3 minor of (u, v, w) on rows a, b, c."""
    out = QQi()
    for (a, b, c), tv in t.entries.items():
        ua, ub, uc = (u.components[i - 1] for i in (a, b, c))
        va, vb, vc = (v.components[i - 1] for i in (a, b, c))
        wa, wb, wc = (w.components[i - 1] for i in (a, b, c))
        minor = (ua * (vb * wc - vc * wb) - ub * (va * wc - vc * wa)
                 + uc * (va * wb - vb * wa))
        out = out + minor * tv
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


def chirality_functional(u: OneForm, t: TorsionTensor, dim: int = 4) -> ResidueValue:
    """W(chi u^ D_T |D_T|^{-4}) with chi the chirality element; n = 4 only."""
    if dim != 4:
        raise ValueError("chirality functional is defined for n = 4")
    if u.dim != 4 or t.dim != 4:
        raise ValueError("dimension mismatch among inputs")
    return lead_residue(chirality(dim) * u.action(),
                        sphere_average(dirac_power(dirac_symbol(t, dim)), dim))


def spectral_closedness_check(p: Multivector, dim: int) -> ResidueValue:
    """W(P D |D|^{-n}) for a zero-order P and the torsion-free D; exactly 0."""
    if p.dim != dim:
        raise ValueError("dimension mismatch")
    d = dirac_symbol(TorsionTensor.zero(dim), dim)
    return lead_residue(p, sphere_average(dirac_power(d), dim))


def metric_functional(u: OneForm, v: OneForm, dim: int) -> ResidueValue:
    """W(u^ v^ D^{-n}) for even n: equals 2^m V(S^{n-1}) u.v."""
    if dim % 2:
        raise ValueError("metric functional requires even dimension")
    if u.dim != dim or v.dim != dim:
        raise ValueError("dimension mismatch among inputs")
    pw = inverse_power_symbol(dirac_symbol(TorsionTensor.zero(dim), dim))
    return lead_residue(u.action() * v.action(), sphere_average(pw, dim))


def volume_functional(f: ScalarLike, dim: int) -> ResidueValue:
    """W(f D^{-n}) for even n and a scalar f: equals 2^m V(S^{n-1}) f."""
    if dim % 2:
        raise ValueError("volume functional requires even dimension")
    pw = inverse_power_symbol(dirac_symbol(TorsionTensor.zero(dim), dim))
    return lead_residue(Multivector.scalar(dim, QQi.coerce(f)), sphere_average(pw, dim))
