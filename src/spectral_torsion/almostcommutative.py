"""Almost-commutative models: Yang-Mills coefficients and the two-sheeted space.

Einstein-Yang-Mills: the algebra C(M) x M_N(C), Dirac operator fluctuated by
i g^a ad_{X_a} with anti-hermitian traceless X_a.  One-forms carry M_N(C)
coefficients acting by left multiplication on M_N, so symbol coefficients live
in End(M_N) ~ M_{N^2}; the torsion density W(u v w D~ |D~|^{-n}) is computed
by the same exact pipeline and vanishes identically: after sphere integration
the two degree -n contributions cancel at the symbol level.

Two-sheeted space: H + H with D_doubled = [[D, chi Phi], [chi Phi*, D]] for a
complex parameter Phi and chi the chirality of the even base.  One-forms are
2x2 blocks [[w+, Phi chi f+], [Phi* chi f-, w-]]; block products are simplified
in the Clifford algebra before any trace, so every diagonal/off-diagonal
parity pattern is handled uniformly.  The diagonal blocks of the lead meet D,
which is spectrally closed (exactly 0), so only the off-diagonal blocks are
formed, and each gives a residue against chi |D|^{-n}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .clifford import Multivector, chirality, clifford_action
from .matrices import MatrixQQ
from .scalars import QQi, ScalarLike, qi
from .symcalc import SymbolSum
from .torsion import (OneForm, ResidueValue, _dirac_average, _free_average,
                      first_order_symbol, lead_residue)


def left_mult_matrix(a: MatrixQQ) -> MatrixQQ:
    """L_A acting on M_N by left multiplication, on the basis E_{alpha beta}
    flattened row-major: entries A_{r alpha} d_{t beta}, i.e. A (x) 1."""
    return a.kron(MatrixQQ.identity(a.size))


def adjoint_matrix(x: MatrixQQ) -> MatrixQQ:
    """ad_X = L_X - R_X on M_N: entries X_{r alpha} d_{beta t} - d_{r alpha} X_{beta t},
    i.e. X (x) 1 - 1 (x) X^T."""
    one = MatrixQQ.identity(x.size)
    return x.kron(one) - one.kron(x.transpose())


def adjoint_trace(x: MatrixQQ) -> QQi:
    """Trace of ad_X on M_N; identically zero (N Tr X - Tr X N)."""
    return adjoint_matrix(x).trace()


@dataclass(frozen=True)
class EymModel:
    """Even-dimensional base, gauge coefficients X_a (anti-hermitian, traceless)."""

    dim: int
    size: int
    gauge: Tuple[MatrixQQ, ...]

    def __post_init__(self) -> None:
        if self.dim % 2 or self.dim < 2:
            raise ValueError("even base dimension required")
        gauge = tuple(self.gauge)
        if len(gauge) != self.dim:
            raise ValueError(f"expected {self.dim} gauge coefficients")
        for x in gauge:
            if x.size != self.size:
                raise ValueError("gauge coefficient size mismatch")
            if not x.is_anti_hermitian():
                raise ValueError("gauge coefficients must be anti-hermitian")
            if x.trace():
                raise ValueError("gauge coefficients must be traceless")
        object.__setattr__(self, "gauge", gauge)


@dataclass(frozen=True)
class MatrixOneForm:
    """One-form g^a u_a with M_N(C) coefficients (left multiplication)."""

    dim: int
    components: Tuple[MatrixQQ, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) != self.dim:
            raise ValueError(f"expected {self.dim} components")
        sizes = {m.size for m in comps}
        if len(sizes) != 1:
            raise ValueError("component size mismatch")
        object.__setattr__(self, "components", comps)

    @property
    def size(self) -> int:
        return self.components[0].size

    def action(self) -> Multivector:
        """Multivector over End(M_N): sum_a g^a (x) L_{u_a}."""
        terms: Dict[Tuple[int, ...], MatrixQQ] = {}
        for a, ua in enumerate(self.components, start=1):
            lm = left_mult_matrix(ua)
            if lm:
                terms[(a,)] = lm
        return Multivector(self.dim, terms)


def eym_dirac_symbol(model: EymModel) -> SymbolSum:
    """sigma(D~) = -g^j xi_j (x) 1 + g^a (x) (i ad_{X_a})."""
    i_unit = qi(0, 1)
    potential = Multivector(model.dim, {(a,): i_unit * adjoint_matrix(x)
                                        for a, x in enumerate(model.gauge, start=1)})
    return first_order_symbol(model.dim, MatrixQQ.identity(model.size ** 2), {0: potential})


def _eym_lead(model: EymModel, u: MatrixOneForm, v: MatrixOneForm,
              w: MatrixOneForm) -> Multivector:
    if not (u.dim == v.dim == w.dim == model.dim):
        raise ValueError("dimension mismatch among inputs")
    if not (u.size == v.size == w.size == model.size):
        raise ValueError("coefficient size mismatch")
    # L is an algebra map (L_A L_B = L_AB, L_A + L_B = L_{A+B}), so multiply
    # over M_N and lift each coefficient of the product once
    uvw = (clifford_action(u.components, u.dim) * clifford_action(v.components, v.dim)
           * clifford_action(w.components, w.dim))
    return Multivector(model.dim, {word: left_mult_matrix(c) for word, c in uvw.terms.items()})


def eym_torsion_density(model: EymModel, u: MatrixOneForm, v: MatrixOneForm,
                        w: MatrixOneForm) -> ResidueValue:
    """W(u v w D~ |D~|^{-n}) for the Yang-Mills fluctuation; identically zero."""
    lead = _eym_lead(model, u, v, w)
    return lead_residue(lead, _dirac_average(eym_dirac_symbol(model)))


# two-sheeted space -----------------------------------------------------------

@dataclass(frozen=True)
class DoubledOneForm:
    """2x2 block one-form [[w+, Phi chi f+], [Phi* chi f-, w-]] on H + H."""

    dim: int
    wplus: OneForm
    wminus: OneForm
    fplus: QQi
    fminus: QQi
    phi: QQi
    blocks: Tuple[Tuple[Multivector, Multivector], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim % 2 or self.dim < 2:
            raise ValueError("even base dimension required")
        if self.wplus.dim != self.dim or self.wminus.dim != self.dim:
            raise ValueError("one-form dimension mismatch")
        for name in ("fplus", "fminus", "phi"):
            object.__setattr__(self, name, QQi.coerce(getattr(self, name)))
        # built once: a doubled scan reads each form's blocks in every triple holding it
        chi = chirality(self.dim)
        object.__setattr__(self, "blocks", (
            (self.wplus.action(), chi.scale(self.phi * self.fplus)),
            (chi.scale(self.phi.conj() * self.fminus), self.wminus.action())))

    @staticmethod
    def diagonal(wplus: OneForm, wminus: OneForm, phi: ScalarLike) -> "DoubledOneForm":
        return DoubledOneForm(wplus.dim, wplus, wminus, 0, 0, phi)

    @staticmethod
    def off_diagonal(dim: int, fplus: ScalarLike, fminus: ScalarLike,
                     phi: ScalarLike) -> "DoubledOneForm":
        zero = OneForm(dim, (0,) * dim)
        return DoubledOneForm(dim, zero, zero, fplus, fminus, phi)


def _block_entry(a, b, i: int, j: int, dim: int) -> Multivector:
    """Block (i, j) of the 2x2 block product a b; most blocks of a spanning scan
    are empty, and a pair holding one is skipped rather than multiplied."""
    parts = [a[i][k] * b[k][j] for k in (0, 1) if a[i][k] and b[k][j]]
    if not parts:
        return Multivector(dim)
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]


class DoubledEvaluator:
    """Caches the sphere-averaged base symbol chi |D|^{-n} for repeated doubled residues."""

    def __init__(self, dim: int):
        if dim % 2 or dim < 2:
            raise ValueError("even base dimension required")
        self.dim = dim
        self.chi_power = _free_average(chirality(dim))

    def residue(self, o1: DoubledOneForm, o2: DoubledOneForm,
                o3: DoubledOneForm) -> ResidueValue:
        """W(o1 o2 o3 D_doubled |D_doubled|^{-n}), exact.

        |D_doubled|^{-n} differs from |D|^{-n} (x) 1 only below the tracked degrees
        (D_doubled^2 = D^2 + |Phi|^2 adds a degree-0 term, first visible at degree
        -n-2), so the base-space power symbol is exact here.  With P = o1 o2 o3,
        (P D_doubled)_{ii} = P_{ii} D + P_{i,other} chi Phi^{(*)}.  The diagonal
        leg W(P_{ii} D |D|^{-n}) is zero for every P_{ii}: the torsion-free D is
        spectrally closed, as the sphere average of D |D|^{-n} is empty.  So only
        the two off-diagonal blocks of P are formed, each as at most two block
        products of o1 o2 with o3.
        """
        if not (o1.dim == o2.dim == o3.dim == self.dim):
            raise ValueError("dimension mismatch among inputs")
        if not (o1.phi == o2.phi == o3.phi):
            raise ValueError("one-forms built over different Phi")
        phi, dim = o1.phi, self.dim
        b1, b2, b3 = o1.blocks, o2.blocks, o3.blocks
        total = ResidueValue(QQi(), dim)
        for i, phase in ((0, phi.conj()), (1, phi)):
            j = 1 - i
            # row i of o1 o2, formed only where it meets a nonempty block of o3
            row = [_block_entry(b1, b2, i, k, dim) if b3[k][j] else Multivector(dim)
                   for k in (0, 1)]
            lead = _block_entry((row,), b3, 0, j, dim).scale(phase)
            if lead:
                total = total + lead_residue(lead, self.chi_power)
        return total


def doubled_spanning_forms(dim: int, phi: ScalarLike) -> List[DoubledOneForm]:
    """Spanning set: each frame one-form on either sheet, each off-diagonal unit."""
    zero = OneForm(dim, (0,) * dim)
    out: List[DoubledOneForm] = []
    for a in range(1, dim + 1):
        e = OneForm.frame(dim, a)
        out.append(DoubledOneForm.diagonal(e, zero, phi))
        out.append(DoubledOneForm.diagonal(zero, e, phi))
    out.append(DoubledOneForm.off_diagonal(dim, 1, 0, phi))
    out.append(DoubledOneForm.off_diagonal(dim, 0, 1, phi))
    return out


def doubled_torsion_free_test(ev: DoubledEvaluator, phi: ScalarLike) -> bool:
    """True iff the doubled geometry is torsion-free: every residue over the
    spanning one-form triples of ev's dimension vanishes.  Happens exactly when
    Phi = 0."""
    span = doubled_spanning_forms(ev.dim, phi)
    for o1 in span:
        for o2 in span:
            for o3 in span:
                if not ev.residue(o1, o2, o3).is_zero():
                    return False
    return True
