"""Independent oracles the tests compare against: explicit gamma matrices via
Pauli tensor products, Monte-Carlo sphere averages, a direct first-order
expansion of the torsion residue that bypasses the parametrix machinery, the
dense matrix product over QQi entries, the Clifford product one word pair at a
time, the noncommutative-torus product one pair of modes at a time, symbol
composition and sphere integration with a fresh sum per term, the iterative
parametrix, negative power and square root that compose and subtract, the
polynomial zero test that decides whether two spellings of a symbol are the same
function, the dense truncated quantum-disc representation, the grade law
for the sphere average of a potential, and the symbol of D |D|^{-n} composed
in full (D^2 and D times the power by compose)."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Dict, Tuple

import cmath
import math

import numpy as np

from spectral_torsion import (EymModel, HomogeneousSymbol, MatrixOneForm, MatrixQQ,
                              Multivector, OneForm, QQi, QuantumDiscElement,
                              ResidueValue, SymbolSum, TorsionTensor, TorusElement,
                              clifford_trace, eym_dirac_symbol, moment, negative_power,
                              parametrix, qi, reduce_word, sqrt_symbol)
from spectral_torsion.almostcommutative import _eym_lead
from spectral_torsion.symcalc import (MINUS_I, TRACKED, _leading_scalar, compose, hs_dx,
                                      hs_dxi, hs_mul)
from spectral_torsion.torsion import _zero_order_symbol

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
    big = n_trunc + x.total_degree() + 2
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


def dirac_power(d: SymbolSum) -> SymbolSum:
    """Symbol of D |D|^{-n} from the symbol d of D, every product by compose:
    D^2 = compose(d, d), its powers as inverse_power_symbol takes them, and
    compose(d, .) of the result."""
    dim = d.dim
    d2 = compose(d, d)
    if dim % 2 == 0:
        power = negative_power(d2, dim // 2)
    else:
        power = parametrix(sqrt_symbol(d2))
        if dim > 1:
            power = compose(negative_power(d2, (dim - 1) // 2), power)
    return compose(d, power)


def eym_sigma_component(model: EymModel, u: MatrixOneForm, v: MatrixOneForm,
                        w: MatrixOneForm) -> HomogeneousSymbol:
    """Degree -n component of sigma(u v w D~ |D~|^{-n}) before integration and
    trace, composed in full, so linearity in the ad operators can be checked
    term by term."""
    lead = _zero_order_symbol(_eym_lead(model, u, v, w))
    return compose(lead, dirac_power(eym_dirac_symbol(model))).component(-model.dim)
