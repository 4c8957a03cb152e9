"""Independent oracles the tests compare against: explicit gamma matrices via
Pauli tensor products, Monte-Carlo sphere averages, a direct first-order
expansion of the torsion residue that bypasses the parametrix machinery, the
dense matrix product over QQi entries, the Clifford product one word pair at a
time, the noncommutative-torus product one pair of modes at a time, symbol
composition and sphere integration with a fresh sum per term, the iterative
parametrix, negative power and square root that compose and subtract, the
polynomial zero test that decides whether two spellings of a symbol are the same
function, the dense truncated quantum-disc representation, the grade law
for the sphere average of a potential, the symbol of D |D|^{-n} composed
in full (D^2, the odd-n power and D times the power by compose), and the lead
residue with the whole lead composed.  It also holds the constructions only the
tests build with: raw gamma words (GammaWord, canonicalize), frame structure
constants (FrameConnection, levi_civita_from_structure), rational frame
changes (rotate, signed_permutation, cayley_rotation), random contorsions,
curvature jets (CurvatureJet) and the torsion functional of a Dirac symbol
with an x-linear connection jet (jet_torsion_functional)."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from random import Random
from typing import Dict, Mapping, Tuple

import cmath
import math

import numpy as np

from spectral_torsion import (ContorsionTensor, EymModel, HomogeneousSymbol, MatrixOneForm,
                              MatrixQQ, Multivector, OneForm, QQi, QuantumDiscElement,
                              ResidueValue, SymbolSum, TorsionTensor, TorusElement,
                              clifford_trace, eym_dirac_symbol, lead_residue, moment,
                              negative_power, parametrix, qi, random_fraction, reduce_word,
                              sqrt_symbol)
from spectral_torsion.almostcommutative import _eym_lead
from spectral_torsion.clifford import _check_indices
from spectral_torsion.scalars import _frac
from spectral_torsion.symcalc import (MINUS_I, TRACKED, _leading_scalar, compose, hs_dx,
                                      hs_dxi, hs_mul)
from spectral_torsion.torsion import (TORSION_KAPPA, _dirac_average, _Tensor3,
                                      _zero_order_symbol, first_order_symbol,
                                      residue_of_symbol)

ID2 = MatrixQQ.identity(2)
PAULI = (
    MatrixQQ.from_rows([[qi(0), qi(1)], [qi(1), qi(0)]]),
    MatrixQQ.from_rows([[qi(0), qi(0, -1)], [qi(0, 1), qi(0)]]),
    MatrixQQ.from_rows([[qi(1), qi(0)], [qi(0), qi(-1)]]),
)


def dense_matrix_product(a: MatrixQQ, b: MatrixQQ) -> MatrixQQ:
    """sum_k a_ik b_kj as a QQi sum over every k, zero entries included."""
    cols = tuple(zip(*b.rows))
    return MatrixQQ(tuple(tuple(sum((x * y for x, y in zip(row, col)), QQi())
                                for col in cols)
                          for row in a.rows))


def kron(a: MatrixQQ, b: MatrixQQ) -> MatrixQQ:
    sa, sb = a.size, b.size
    rows = [[a.entry(i // sb, j // sb) * b.entry(i % sb, j % sb)
             for j in range(sa * sb)] for i in range(sa * sb)]
    return MatrixQQ.from_rows(rows)


@lru_cache(maxsize=None)
def gamma_matrices(dim: int):
    """Hermitian gammas with {g_a, g_b} = 2 delta_ab, size 2^((dim+1)//2).

    Built for the even dimension 2m >= dim and truncated to the first dim
    matrices; every non-scalar word then has exact trace zero.
    """
    m = (dim + 1) // 2
    gammas = []
    for j in range(1, m + 1):
        for sigma in (PAULI[0], PAULI[1]):
            g = sigma if j == 1 else PAULI[2]
            if j > 1:
                for _ in range(j - 2):
                    g = kron(g, PAULI[2])
                g = kron(g, sigma)
            for _ in range(m - j):
                g = kron(g, ID2)
            gammas.append(g)
    return tuple(gammas[:dim])


def word_matrix(dim: int, word) -> MatrixQQ:
    gam = gamma_matrices(dim)
    out = MatrixQQ.identity(2 ** ((dim + 1) // 2))
    for a in word:
        out = out * gam[a - 1]
    return out


def multivector_matrix(mv: Multivector) -> MatrixQQ:
    out = MatrixQQ.zero(2 ** ((mv.dim + 1) // 2))
    for word, coeff in mv.terms.items():
        out = out + word_matrix(mv.dim, word) * coeff
    return out


def matrix_trace(mv: Multivector) -> QQi:
    return multivector_matrix(mv).trace()


def reference_product(a: Multivector, b: Multivector) -> Multivector:
    """a * b one word pair at a time: reduce_word on the joined words and plain
    ring arithmetic on the coefficients (QQi, MatrixQQ or one of each), with no
    word table and no integer kernel."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            sign, word = reduce_word(w1 + w2)
            term = c1 * c2 * qi(sign)
            out[word] = out[word] + term if word in out else term
    return Multivector(a.dim, out)


def reference_hs_mul(a: HomogeneousSymbol, b: HomogeneousSymbol) -> HomogeneousSymbol:
    """Pointwise symbol product, every pair of terms through reference_product."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out = HomogeneousSymbol(a.dim, a.degree + b.degree)
    for (al1, r1, x1), m1 in a.terms.items():
        for (al2, r2, x2), m2 in b.terms.items():
            if x1 and x2:
                continue  # x^2 exceeds the jet order
            key = (tuple(p + q for p, q in zip(al1, al2)), r1 + r2, x1 or x2)
            out._merge(key, reference_product(m1, m2))
    return out


def reference_compose(a: SymbolSum, b: SymbolSum) -> SymbolSum:
    """Symbol composition as a copy-per-sum: each product is added to a fresh
    accumulator, and the first-order correction runs over every x index."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not a.parts or not b.parts:
        return SymbolSum(a.dim, {})
    lead_a = a.leading_degree
    lead = lead_a + b.leading_degree
    parts = {}
    for d in range(lead, lead - TRACKED, -1):
        acc = HomogeneousSymbol(a.dim, d)
        for da in range(lead_a, lead_a - TRACKED, -1):
            db = d - da
            if db in b.parts and da in a.parts:
                acc = acc + reference_hs_mul(a.parts[da], b.parts[db])
            # first-order correction: d_xi A at degree da lands at da - 1
            dbc = d + 1 - da
            if da in a.parts and dbc in b.parts:
                bb = b.parts[dbc]
                for l in range(1, a.dim + 1):
                    dxb = hs_dx(bb, l)
                    if dxb:
                        dxa = hs_dxi(a.parts[da], l)
                        if dxa:
                            acc = acc + reference_hs_mul(dxa, dxb).scale(MINUS_I)
        if acc:
            parts[d] = acc
    return SymbolSum(a.dim, parts)


def reference_sphere_integrate(h: HomogeneousSymbol) -> Multivector:
    """Sphere integral at x = 0 as one Multivector sum per term."""
    out = Multivector(h.dim)
    for (alpha, _rho, xj), mv in h.terms.items():
        if xj:
            continue  # x = 0 at the base point
        c = moment(alpha, h.dim)
        if c:
            out = out + mv.scale(c)
    return out


def _norm2_power(dim: int, k: int) -> Dict[Tuple[int, ...], int]:
    """Expansion of (xi_1^2 + ... + xi_n^2)^k into monomial exponents."""
    acc: Dict[Tuple[int, ...], int] = {(0,) * dim: 1}
    for _ in range(k):
        nxt: Dict[Tuple[int, ...], int] = {}
        for alpha, c in acc.items():
            for l in range(dim):
                up = list(alpha)
                up[l] += 2
                key = tuple(up)
                nxt[key] = nxt.get(key, 0) + c
        acc = nxt
    return acc


def hs_is_zero(h: HomogeneousSymbol) -> bool:
    """Decide vanishing as a function on R^n \\ {0} x (jet in x).

    Within each parity class of rho, factor out the lowest norm power and
    expand the rest into polynomials; ||xi|| times a nonzero rational function
    is never rational, so the two classes must vanish separately.
    """
    for parity in (0, 1):
        terms = {k: mv for k, mv in h.terms.items() if k[1] % 2 == parity % 2}
        if not terms:
            continue
        rho_min = min(k[1] for k in terms)
        poly: Dict[Tuple[Tuple[int, ...], int], Multivector] = {}
        for (alpha, rho, xj), mv in terms.items():
            for beta, c in _norm2_power(h.dim, (rho - rho_min) // 2).items():
                key = (tuple(p + q for p, q in zip(alpha, beta)), xj)
                acc = poly.get(key)
                acc = mv.scale(c) if acc is None else acc + mv.scale(c)
                if acc:
                    poly[key] = acc
                else:
                    poly.pop(key, None)
        if poly:
            return False
    return True


# The iterative symbol powers symcalc used before its closed forms, kept
# verbatim apart from their names and a subtraction taken one degree at a
# time: each correction term is solved for by composing and subtracting.

def reference_parametrix(a: SymbolSum) -> SymbolSum:
    """Right-inverse expansion: compose(parametrix(a), a) = 1 on the tracked degrees."""
    p, c, one = _leading_scalar(a.component(a.leading_degree))
    dim = a.dim
    inv_scale = QQi(Fraction(1)) / c
    inv_lead = HomogeneousSymbol.radial(dim, -p, Multivector.scalar(dim, one).scale(inv_scale))
    b = SymbolSum(dim, {-p: inv_lead})
    # identity in the same coefficient ring as a's leading term
    ident = SymbolSum(dim, {0: HomogeneousSymbol.radial(dim, 0, Multivector.scalar(dim, one))})
    for step in range(1, TRACKED):
        err = compose(b, a).component(-step) - ident.component(-step)
        if err:
            b.parts[-p - step] = hs_mul(err, inv_lead).scale(QQi(Fraction(-1)))
    return b


def reference_negative_power(a: SymbolSum, m: int) -> SymbolSum:
    """Symbol of a^{-m} as an m-fold composition of the parametrix."""
    if m < 1:
        raise ValueError("power must be >= 1")
    p = reference_parametrix(a)
    out = p
    for _ in range(m - 1):
        out = compose(out, p)
    return out


def reference_sqrt_symbol(a: SymbolSum) -> SymbolSum:
    """Square-root expansion of a second-order symbol with leading ||xi||^2.

    Fixed by the binding property compose(s, s) = a on the tracked degrees; the
    degree 1-k component solves s_1 s_{1-k} + s_{1-k} s_1 = (remainder), and
    the scalar leading term makes that division exact.
    """
    p, c, one = _leading_scalar(a.component(a.leading_degree))
    if p != 2 or c != QQi(Fraction(1)):
        raise ValueError("sqrt requires leading term ||xi||^2 times the unit")
    dim = a.dim
    half_inv = HomogeneousSymbol.radial(
        dim, -1, Multivector.scalar(dim, one).scale(QQi(Fraction(1, 2))))
    s = SymbolSum(dim, {1: HomogeneousSymbol.radial(dim, 1, Multivector.scalar(dim, one))})
    for k in range(1, TRACKED):
        err = a.component(2 - k) - compose(s, s).component(2 - k)
        if err:
            s.parts[1 - k] = hs_mul(err, half_inv)
    return s


def torsion_cube(t: TorsionTensor) -> Multivector:
    """sum_{jkl} T_jkl g^j g^k g^l, one gamma triple product per ordered triple."""
    out = Multivector(t.dim)
    for (a, b, c) in t.entries:
        for p in permutations((a, b, c)):
            out = out + (Multivector.gamma(t.dim, p[0]) * Multivector.gamma(t.dim, p[1])
                         * Multivector.gamma(t.dim, p[2])).scale(t.get(*p))
    return out


Rotation = Tuple[Tuple[Fraction, ...], ...]   # rows of a rational orthogonal matrix


def _det3(r: Rotation, rows, cols) -> Fraction:
    """The 3x3 minor of r on the given 1-based rows and columns."""
    (a, b, c), (i, j, k) = (x - 1 for x in rows), (x - 1 for x in cols)
    return (r[a][i] * (r[b][j] * r[c][k] - r[b][k] * r[c][j])
            - r[a][j] * (r[b][i] * r[c][k] - r[b][k] * r[c][i])
            + r[a][k] * (r[b][i] * r[c][j] - r[b][j] * r[c][i]))


def rotate(r: Rotation, x):
    """The frame change R on a OneForm, (R u)_a = R_ab u_b, or on a
    TorsionTensor, (R T)_abc = R_ai R_bj R_ck T_ijk.  By total antisymmetry the
    latter is the sum over the stored i < j < k of T_ijk times the 3x3 minor of
    R on rows a, b, c and columns i, j, k."""
    dim = len(r)
    if isinstance(x, OneForm):
        return OneForm(dim, tuple(sum((c * QQi(r[a][b]) for b, c in enumerate(x.components)),
                                      QQi()) for a in range(dim)))
    return TorsionTensor(dim, {abc: sum((v * _det3(r, abc, ijk) for ijk, v in x.entries.items()),
                                        Fraction(0))
                               for abc in combinations(range(1, dim + 1), 3)})


def signed_permutation(perm, signs) -> Rotation:
    """R with R_{a, perm[a]} = signs[a] (0-based), every other entry 0."""
    return tuple(tuple(Fraction(s if b == p else 0) for b in range(len(perm)))
                 for p, s in zip(perm, signs))


def cayley_rotation(a) -> Rotation:
    """R = (1 - A)(1 + A)^{-1} for a rational antisymmetric A: a rotation with
    rational entries (1 + A is invertible, its eigenvalues are 1 + i lambda).
    The inverse is taken by Gauss-Jordan elimination over Fractions."""
    n = len(a)
    aug = [[Fraction(i == j) + a[i][j] for j in range(n)] + [Fraction(i == j) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    minus = [[Fraction(i == j) - a[i][j] for j in range(n)] for i in range(n)]
    return tuple(tuple(sum((minus[i][k] * inv[k][j] for k in range(n)), Fraction(0))
                       for j in range(n)) for i in range(n))


def torus_product(a: TorusElement, b: TorusElement) -> TorusElement:
    """sum_{p,q} a_p b_q exp(-i pi p.theta.q) U^{p+q}, one cmath.exp per pair
    of modes, accumulated in a dict that drops exact zeros as it goes."""
    out = {}
    for p, cp in a.coeffs.items():
        for q, cq in b.coeffs.items():
            s = 0.0
            for i, p_i in enumerate(p):
                if p_i:
                    row = a.theta[i]
                    s += p_i * sum(row[j] * q_j for j, q_j in enumerate(q) if q_j)
            r = tuple(x + y for x, y in zip(p, q))
            v = out.get(r, 0) + cp * cq * cmath.exp(-1j * math.pi * s)
            if v:
                out[r] = v
            else:
                out.pop(r, None)
    return TorusElement(a.theta, out)


def disc_represent(x: QuantumDiscElement, n_trunc: int) -> np.ndarray:
    """Truncated representation on span(e_0..e_N): pi(z) e_k = sqrt(1-q^{2(k+1)}) e_{k+1}.

    Operators are multiplied on an enlarged space and cut down afterwards, so
    entries inside the window are exactly those of the infinite representation.
    """
    q = x.q
    big = n_trunc + max((a + c for a, c in x.coeffs), default=0) + 2
    z_mat = np.zeros((big, big), dtype=complex)
    for k in range(big - 1):
        z_mat[k + 1, k] = math.sqrt(1.0 - q ** (2 * (k + 1)))
    zs_mat = z_mat.conj().T
    out = np.zeros((big, big), dtype=complex)
    for (a, c), v in x.coeffs.items():
        m = np.eye(big, dtype=complex)
        for _ in range(a):
            m = m @ z_mat
        for _ in range(c):
            m = m @ zs_mat
        out += v * m
    return out[:n_trunc + 1, :n_trunc + 1]


def averaged_potential(v: Multivector, n: int) -> Multivector:
    """The grade law: sum_k c_k(n) V_k with c_k(n) = 1 - (n + (-1)^k (n - 2k)) / 2.

    For D = -g.xi + V, the degree -n part of sigma(D |D|^{-n}) averages over the
    sphere to this, by linearity in V, <xi_a xi_b> = delta_ab / n and
    sum_a g^a V_k g^a = (-1)^k (n - 2k) V_k on the grade-k part V_k.
    """
    out = {}
    for word, coeff in v.terms.items():
        k = len(word)
        c = 1 - Fraction(n + (-1) ** k * (n - 2 * k), 2)
        if c:
            out[word] = coeff * QQi.coerce(c)
    return Multivector(n, out)


def perturbation_residue(u: OneForm, v: OneForm, w: OneForm,
                         t: TorsionTensor, dim: int) -> ResidueValue:
    """First-order-in-T residue from the explicit symbol expansion.

    With B = -(i/8) T_jkl g^j g^k g^l the degree -n symbol component of
    D_T |D_T|^{-n} is B r^{-n} + (n/2)(g.xi){g.xi, -B} r^{-n-2}; multiplying
    by U = u^ v^ w^ and integrating with the pairing moments r^{-n} -> V and
    xi_a xi_b -> V delta_ab / n gives
        V * tr( -U Theta + (1/2) sum_a U g^a {g^a, Theta} ),
    Theta = (i/8) T_jkl g^j g^k g^l.  No parametrix or composition enters.
    """
    theta = torsion_cube(t).scale(qi(0, Fraction(1, 8)))
    big_u = u.action() * v.action() * w.action()
    acc = (big_u * theta).scale(qi(-1))
    for a in range(1, dim + 1):
        g = Multivector.gamma(dim, a)
        anti = g * theta + theta * g
        acc = acc + (big_u * g * anti).scale(qi(Fraction(1, 2)))
    return ResidueValue(clifford_trace(acc), dim)


def sphere_batch(dim: int, points: int, seed: int) -> np.ndarray:
    """Uniform points on S^{dim-1}, one row each."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((points, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def mc_sphere_average(batch: np.ndarray, alpha) -> float:
    """Monte-Carlo estimate of the sphere average of xi^alpha (moment / V)."""
    vals = np.ones(batch.shape[0])
    for l, e in enumerate(alpha):
        if e:
            vals = vals * batch[:, l] ** e
    return float(vals.mean())


def composed_inverse_power(d: SymbolSum) -> SymbolSum:
    """Symbol of |D|^{-n} from the symbol d of D, every product by compose:
    D^2 = compose(d, d); even n its (n/2)-th negative power, odd n the
    ((n-1)/2)-th one composed with the parametrix of sqrt(D^2)."""
    dim = d.dim
    d2 = compose(d, d)
    if dim % 2 == 0:
        return negative_power(d2, dim // 2)
    power = parametrix(sqrt_symbol(d2))
    if dim > 1:
        power = compose(negative_power(d2, (dim - 1) // 2), power)
    return power


def dirac_power(d: SymbolSum) -> SymbolSum:
    """Symbol of D |D|^{-n} from the symbol d of D, every product by compose:
    compose(d, .) of composed_inverse_power(d)."""
    return compose(d, composed_inverse_power(d))


def reference_lead_residue(lead: Multivector, averaged: SymbolSum) -> ResidueValue:
    """W(P a b) for a constant zero-order lead P with the whole lead composed,
    given averaged = sphere_average(a, b)."""
    return residue_of_symbol(compose(_zero_order_symbol(lead), averaged), averaged.dim)


def eym_sigma_component(model: EymModel, u: MatrixOneForm, v: MatrixOneForm,
                        w: MatrixOneForm) -> HomogeneousSymbol:
    """Degree -n component of sigma(u v w D~ |D~|^{-n}) before integration and
    trace, composed in full, so linearity in the ad operators can be checked
    term by term."""
    lead = _zero_order_symbol(_eym_lead(model, u, v, w))
    return compose(lead, dirac_power(eym_dirac_symbol(model))).component(-model.dim)


# Constructions the tests build inputs and references with, which the package
# itself never computes with: raw gamma words, frame structure constants,
# random contorsions, curvature jets, and the Dirac symbol with an x-linear
# connection jet.

@dataclass(frozen=True)
class GammaWord:
    """A scalar multiple of a product g^{a_1} ... g^{a_k}, not yet reduced."""

    indices: Tuple[int, ...]
    scalar: QQi = field(default_factory=lambda: QQi(Fraction(1)))

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "scalar", QQi.coerce(self.scalar))


def canonicalize(word: GammaWord, dim: int) -> Multivector:
    """Reduce a raw gamma word to canonical multivector form."""
    _check_indices(word.indices, dim)
    sign, canon = reduce_word(word.indices)
    coeff = word.scalar if sign > 0 else -word.scalar
    return Multivector(dim, {canon: coeff} if coeff else {})


class FrameConnection(_Tensor3):
    """Structure constants c_{ijk} of a frame: [e_i, e_j] = c_{ijk} e_k.

    Antisymmetric in the first two indices; entries stored with i < j.
    """

    _ANTI = (0, 1)
    _KEY_ERROR = "structure key {} must have 1 <= i < j <= {}"


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


def levi_civita_from_structure(c: FrameConnection) -> ContorsionTensor:
    """Levi-Civita rotation coefficients omega_{ijk} = (c_{ijk} + c_{kij} + c_{kji}) / 2."""
    return _half_cyclic_sum(c)


def random_contorsion(rng: Random, dim: int, sparsity: float = 0.7) -> ContorsionTensor:
    entries = {}
    for i in range(1, dim + 1):
        for j, k in combinations(range(1, dim + 1), 2):
            if rng.random() < sparsity:
                f = random_fraction(rng)
                if f:
                    entries[(i, j, k)] = f
    return ContorsionTensor(dim, entries)


class CurvatureJet:
    """Normal-coordinate curvature data at the base point.

    riemann maps (a,b,c,d) to exact rational R_{abcd}; entries not stored are
    zero.  Validated: antisymmetry in (a,b) and (c,d), pair symmetry, first
    Bianchi identity.  ricci is the (1,3) contraction Ric_{cd} = sum_a R_{acad}.
    """

    def __init__(self, dim: int, riemann: Mapping[Tuple[int, int, int, int], Fraction]):
        self.dim = dim
        R: Dict[Tuple[int, int, int, int], Fraction] = {}
        for key, val in riemann.items():
            if len(key) != 4 or not all(1 <= i <= dim for i in key):
                raise ValueError(f"bad riemann index {key}")
            v = _frac(val)
            if v:
                R[key] = v
        self.riemann = R
        self._validate()

    def r(self, a: int, b: int, c: int, d: int) -> Fraction:
        return self.riemann.get((a, b, c, d), Fraction(0))

    def _validate(self) -> None:
        rng = range(1, self.dim + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        v = self.r(a, b, c, d)
                        if v != -self.r(b, a, c, d):
                            raise ValueError("riemann not antisymmetric in first pair")
                        if v != -self.r(a, b, d, c):
                            raise ValueError("riemann not antisymmetric in second pair")
                        if v != self.r(c, d, a, b):
                            raise ValueError("riemann not pair symmetric")
                        bianchi = v + self.r(a, c, d, b) + self.r(a, d, b, c)
                        if bianchi:
                            raise ValueError("riemann violates first Bianchi identity")

    def ricci(self, c: int, d: int) -> Fraction:
        return sum((self.r(a, c, a, d) for a in range(1, self.dim + 1)), Fraction(0))

    def spin_connection_linear(self) -> Dict[Tuple[int, int, int, int], Fraction]:
        """omega_{jkl}(x) = sum_s w[(j,k,l,s)] x_s, one standard normal-coordinate jet."""
        out: Dict[Tuple[int, int, int, int], Fraction] = {}
        for (a, b, c, d), v in self.riemann.items():
            # omega_{j k l ; s} = -1/2 R_{k l j s}
            key = (c, a, b, d)
            out[key] = out.get(key, Fraction(0)) - v / 2
        return {k: v for k, v in out.items() if v}


def connection_jet_potential(dim: int, omega_jet: Mapping[Tuple[int, int, int, int], Fraction]
                             ) -> Dict[int, Multivector]:
    """The x-linear Levi-Civita part -(i/4) omega_{jkl;s} g^j g^k g^l x_s of the
    Dirac symbol, as first_order_symbol's potential: s -> the coefficient of x_s.
    Rejects an index outside 1..dim and a value that is not an exact rational."""
    potential: Dict[int, Multivector] = {}
    for (j, k, l, s), v in omega_jet.items():
        if not all(1 <= x <= dim for x in (j, k, l, s)):
            raise ValueError(f"connection jet index {(j, k, l, s)} outside 1..{dim}")
        word = (Multivector.gamma(dim, j) * Multivector.gamma(dim, k)
                * Multivector.gamma(dim, l)).scale(qi(0, Fraction(-1, 4)) * _frac(v))
        potential[s] = potential.get(s, Multivector(dim)) + word
    return potential


def jet_dirac_symbol(t: TorsionTensor, dim: int,
                     omega_jet: Mapping[Tuple[int, int, int, int], Fraction]) -> SymbolSum:
    """dirac_symbol(t, dim) with the connection jet's x-linear terms added."""
    potential = {0: torsion_cube(t).scale(qi(0, -TORSION_KAPPA)),
                 **connection_jet_potential(dim, omega_jet)}
    return first_order_symbol(dim, QQi(Fraction(1)), potential)


def jet_torsion_functional(u: OneForm, v: OneForm, w: OneForm, t: TorsionTensor, dim: int,
                           omega_jet: Mapping[Tuple[int, int, int, int], Fraction]
                           ) -> ResidueValue:
    """W(u^ v^ w^ D |D|^{-n}) for D = jet_dirac_symbol(t, dim, omega_jet), by the
    package's residue path."""
    return lead_residue(u.action() * v.action() * w.action(),
                        _dirac_average(jet_dirac_symbol(t, dim, omega_jet)))
