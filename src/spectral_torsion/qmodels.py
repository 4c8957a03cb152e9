"""Quantum models: noncommutative torus traces and the quantum-disc boundary.

This module is numeric by design (irrational deformation parameters, spectral
truncations); every check here carries an explicit tolerance, in contrast to
the exact symbol pipeline.

Torus: Weyl unitaries U^p, p in Z^n, with U^p U^q = exp(-i pi p.theta q) U^{p+q}
for an antisymmetric theta.  The canonical trace tau picks the p = 0
coefficient and is tracial because p.theta.p = 0; derivations act by
delta_j U^p = i p_j U^p.  The trace identity tau(k^alpha delta_j(k) k^beta) = 0
holds order by order in t for k = exp(t h), which is how it is tested.
Products are array operations: all Weyl phases of a list of element pairs at
once, summed by output mode in one reduction.  The final product with
k^beta is never formed; its trace is read as the pairing
sum_p X[p] k^beta[-p].

Quantum disc: generators z, z* with z* z = q^2 z z* + (1 - q^2), represented
by the weighted shift pi(z) e_k = sqrt(1 - q^{2(k+1)}) e_{k+1}.  tau_1 is the
circle-symbol integral; tau_0 arises as the finite part of truncated traces
against two different eigenvalue-counting offsets (N + 3/2 and N + 1/2) whose
difference cancels against tau_1 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Dict, List, Optional, Tuple


class ConvergenceError(RuntimeError):
    """Successive truncations disagree beyond tolerance."""


# noncommutative torus ---------------------------------------------------------

Mode = Tuple[int, ...]
_MODE_BOUND = 2 ** 31


def antisymmetric_theta(entries) -> Tuple[Tuple[float, ...], ...]:
    th = tuple(tuple(float(x) for x in row) for row in entries)
    n = len(th)
    for row in th:
        if len(row) != n:
            raise ValueError("theta must be square")
        if not all(map(isfinite, row)):
            raise ValueError("theta entries must be finite")
    for i in range(n):
        for j in range(n):
            if abs(th[i][j] + th[j][i]) > 1e-14:
                raise ValueError("theta must be antisymmetric")
    return th


class TorusElement:
    """Finite combination sum_p c_p U^p on the n-torus with deformation theta.

    Mode components are Python ints below 2**31 in absolute value: products
    add modes in 64-bit arrays, which this bound keeps from wrapping.
    """

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta, coeffs: Optional[Dict[Mode, complex]] = None):
        self.theta = antisymmetric_theta(theta)
        self.coeffs: Dict[Mode, complex] = {}
        n = len(self.theta)
        if coeffs:
            for p, c in coeffs.items():
                if len(p) != n or not all(isinstance(x, int) and abs(x) < _MODE_BOUND
                                          for x in p):
                    raise ValueError(f"bad mode {p}")
                c = complex(c)
                if c != 0:
                    self.coeffs[tuple(p)] = c

    @staticmethod
    def _make(theta, coeffs: Dict[Mode, complex]) -> "TorusElement":
        """An element from a checked theta and valid modes with nonzero
        coefficients, skipping __init__'s validation."""
        x = object.__new__(TorusElement)
        x.theta = theta
        x.coeffs = coeffs
        return x

    @property
    def dim(self) -> int:
        return len(self.theta)

    @staticmethod
    def weyl(theta, p: Mode, c: complex = 1.0) -> "TorusElement":
        return TorusElement(theta, {tuple(p): complex(c)})

    def __add__(self, other: "TorusElement") -> "TorusElement":
        theta = _common_theta((self, other))
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            v = out.get(p, 0) + c
            if v:
                out[p] = v
            else:
                out.pop(p, None)
        return TorusElement._make(theta, out)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + other.scale(-1)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        return _weyl_sum(_common_theta((self, other)), ((self, other),))

    def scale(self, s: complex) -> "TorusElement":
        return TorusElement._make(self.theta, {p: v for p, c in self.coeffs.items()
                                               if (v := s * c)})

    def adjoint(self) -> "TorusElement":
        # (U^p)* = U^{-p}: the Weyl phase exp(i pi p.theta.p) is 1 by antisymmetry
        return TorusElement._make(self.theta,
                                  {tuple(-x for x in p): c.conjugate()
                                   for p, c in self.coeffs.items()})

    def trace(self) -> complex:
        return self.coeffs.get((0,) * self.dim, 0j)

    def derive(self, j: int) -> "TorusElement":
        """delta_j: U^p -> i p_j U^p; j is 1-based."""
        if not (1 <= j <= self.dim):
            raise ValueError(f"derivation index {j} outside 1..{self.dim}")
        return TorusElement._make(self.theta,
                                  {p: v for p, c in self.coeffs.items()
                                   if (v := 1j * p[j - 1] * c)})

    def norm1(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def distance(self, other: "TorusElement") -> float:
        return (self - other).norm1()

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        return self.distance(self.adjoint()) <= tol


def _common_theta(elements) -> Tuple[Tuple[float, ...], ...]:
    """The deformation parameter the given torus elements share; mixing two is an error."""
    theta = elements[0].theta
    for x in elements[1:]:
        if x.theta != theta:
            raise ValueError("mixing different deformation parameters")
    return theta


def _weyl_sum(theta, pairs) -> TorusElement:
    """sum of a * b over the (a, b) element pairs, as array operations.

    Per pair, every phase exp(-i pi P theta Q^T) at once, times the outer
    product of the coefficients; then one sort over all pairs' terms groups
    them by output mode p + q, one reduction sums each group, and exact
    zeros are dropped.  NumPy is imported here, at the first torus product,
    so that importing the package loads only the standard library.
    """
    import numpy as np

    th = np.array(theta)
    modes, vals = [], []
    for a, b in pairs:
        if not (a.coeffs and b.coeffs):
            continue
        p = np.array(list(a.coeffs), dtype=np.int64)
        q = np.array(list(b.coeffs), dtype=np.int64)
        phase = np.exp(-1j * np.pi * (p @ th @ q.T))
        vals.append((phase * np.outer(list(a.coeffs.values()),
                                      list(b.coeffs.values()))).ravel())
        modes.append((p[:, None, :] + q[None, :, :]).reshape(-1, p.shape[1]))
    if not modes:
        return TorusElement._make(theta, {})
    r = np.concatenate(modes)
    order = np.lexsort(r.T)
    r = r[order]
    first = np.ones(len(r), dtype=bool)
    np.any(r[1:] != r[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    s = np.add.reduceat(np.concatenate(vals)[order], starts)
    keep = s != 0
    return TorusElement._make(theta, dict(zip(map(tuple, r[starts[keep]].tolist()),
                                              s[keep].tolist())))


class FormalSeries:
    """Polynomial in a formal parameter t with TorusElement coefficients."""

    __slots__ = ("orders",)

    def __init__(self, orders: List[TorusElement]):
        if not orders:
            raise ValueError("need at least the constant order")
        self.orders = list(orders)

    @property
    def truncation(self) -> int:
        return len(self.orders) - 1

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        # one order at a time, so only that order's pairs are held in memory
        k = min(self.truncation, other.truncation)
        theta = _common_theta(self.orders + other.orders)
        return FormalSeries([_weyl_sum(theta, [(self.orders[i], other.orders[m - i])
                                               for i in range(m + 1)])
                             for m in range(k + 1)])

    def derive(self, j: int) -> "FormalSeries":
        return FormalSeries([a.derive(j) for a in self.orders])


def torus_exp(h: TorusElement, scale: float, truncation: int) -> FormalSeries:
    """exp(scale * t * h) as a series in t up to the given order."""
    theta = h.theta
    one = TorusElement.weyl(theta, (0,) * h.dim, 1.0)
    orders = [one]
    term = one
    for k in range(1, truncation + 1):
        term = (term * h).scale(scale / k)
        orders.append(term)
    return FormalSeries(orders)


def _paired_traces(x: FormalSeries, y: FormalSeries) -> List[complex]:
    """tau((x * y)_m) for every order m, without forming the product.

    tau((x y)_m) = sum_{i+j=m} sum_p x_i[p] y_j[-p]: only U^p U^{-p} reaches
    the constant mode, and its Weyl phase exp(i pi p.theta.p) is 1 by
    antisymmetry.
    """
    k = min(x.truncation, y.truncation)
    flipped = [{tuple(-c for c in p): v for p, v in b.coeffs.items()}
               for b in y.orders[:k + 1]]
    return [sum((c * flipped[m - i].get(p, 0)
                 for i in range(m + 1) for p, c in x.orders[i].coeffs.items()), 0j)
            for m in range(k + 1)]


def torus_trace_identity(h: TorusElement, alpha: int, beta: int, j: int,
                         truncation: int, tol: float = 1e-12) -> float:
    """Residual of tau(k^alpha delta_j(k) k^beta) = 0, k = exp(t h), order by order.

    Returns the largest |tau| over t-orders 0..truncation, or a non-finite
    |tau| when an order overflowed; h must be self-adjoint so that k is a
    positive invertible element.  The powers of h are formed once: order m of
    k^alpha = exp(alpha t h) is alpha^m times order m of k.  The last product
    with k^beta is only ever traced, so it is read as a pairing.
    """
    if not h.is_self_adjoint(tol):
        raise ValueError("h must be self-adjoint")
    k = torus_exp(h, 1.0, truncation)
    ka, kb = (FormalSeries([o.scale(float(s) ** m) for m, o in enumerate(k.orders)])
              for s in (alpha, beta))
    residuals = [abs(t) for t in _paired_traces(ka * k.derive(j), kb)]
    # max() skips NaN, which would let an overflowed order read as 0
    return next((r for r in residuals if not isfinite(r)), max(residuals))


# quantum disc / SU_q(2) boundary ----------------------------------------------

def _swap(q: float, c: int, a: int, memo: Optional[Dict] = None
          ) -> Tuple[Tuple[Tuple[int, int], complex], ...]:
    """Normal form of z*^c z^a as sum of z^{a'} z*^{c'} monomials.

    memo keeps the forms already built at this q for the length of one
    product; a cache shared across calls would grow with every new q.
    """
    if c == 0 or a == 0:
        return (((a, c), 1.0 + 0j),)
    if memo is None:
        memo = {}
    done = memo.get((c, a))
    if done is not None:
        return done
    out: Dict[Tuple[int, int], complex] = {}
    q2 = q * q
    # z*^c z^a = q^2 z*^{c-1} z (z* z^{a-1}) + (1 - q^2) z*^{c-1} z^{a-1}
    for (a2, c2), w in _swap(q, 1, a - 1, memo):
        for (a3, c3), w2 in _swap(q, c - 1, a2 + 1, memo):
            key = (a3, c3 + c2)
            out[key] = out.get(key, 0) + q2 * w * w2
    for (a4, c4), w in _swap(q, c - 1, a - 1, memo):
        key = (a4, c4)
        out[key] = out.get(key, 0) + (1 - q2) * w
    done = memo[(c, a)] = tuple(sorted(out.items()))
    return done


class QuantumDiscElement:
    """Polynomial in z, z* modulo z* z = q^2 z z* + (1 - q^2).

    Stored on the normal-form basis z^a z*^c (the (z*z)^b factor of the
    z^a (z*z)^b z*^c normal form expanded onto it).
    """

    __slots__ = ("q", "coeffs")

    def __init__(self, q: float, coeffs: Optional[Dict[Tuple[int, int], complex]] = None):
        if not (0 < q < 1):
            raise ValueError("q must lie in (0, 1)")
        self.q = float(q)
        self.coeffs: Dict[Tuple[int, int], complex] = {}
        if coeffs:
            for (a, c), v in coeffs.items():
                if a < 0 or c < 0:
                    raise ValueError(f"bad monomial {(a, c)}")
                v = complex(v)
                if v != 0:
                    self.coeffs[(a, c)] = v

    @staticmethod
    def one(q: float) -> "QuantumDiscElement":
        return QuantumDiscElement(q, {(0, 0): 1.0})

    @staticmethod
    def z(q: float) -> "QuantumDiscElement":
        return QuantumDiscElement(q, {(1, 0): 1.0})

    @staticmethod
    def zstar(q: float) -> "QuantumDiscElement":
        return QuantumDiscElement(q, {(0, 1): 1.0})

    def __add__(self, other: "QuantumDiscElement") -> "QuantumDiscElement":
        self._same(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QuantumDiscElement(self.q, out)

    def __sub__(self, other: "QuantumDiscElement") -> "QuantumDiscElement":
        return self + other.scale(-1)

    def __mul__(self, other: "QuantumDiscElement") -> "QuantumDiscElement":
        self._same(other)
        out: Dict[Tuple[int, int], complex] = {}
        memo: Dict = {}
        for (a1, c1), v1 in self.coeffs.items():
            for (a2, c2), v2 in other.coeffs.items():
                for (am, cm), w in _swap(self.q, c1, a2, memo):
                    key = (a1 + am, cm + c2)
                    s = out.get(key, 0) + v1 * v2 * w
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return QuantumDiscElement(self.q, out)

    def power(self, k: int) -> "QuantumDiscElement":
        out = QuantumDiscElement.one(self.q)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, s: complex) -> "QuantumDiscElement":
        return QuantumDiscElement(self.q, {k: s * v for k, v in self.coeffs.items()})

    def adjoint(self) -> "QuantumDiscElement":
        return QuantumDiscElement(self.q,
                                  {(c, a): v.conjugate()
                                   for (a, c), v in self.coeffs.items()})

    def distance(self, other: "QuantumDiscElement") -> float:
        d = self - other
        return sum(abs(v) for v in d.coeffs.values())

    def _same(self, other: "QuantumDiscElement") -> None:
        if abs(self.q - other.q) > 0:
            raise ValueError("mixing different deformation parameters")


def zstar_z(q: float) -> QuantumDiscElement:
    return QuantumDiscElement.zstar(q) * QuantumDiscElement.z(q)


def _diag_weight(a: int, k: int, q: float) -> float:
    """<e_k| pi(z^a z*^a) |e_k> = prod_{i=0}^{a-1} (1 - q^{2(k-i)})."""
    w = 1.0
    for i in range(a):
        f = 1.0 - q ** (2 * (k - i))
        if f == 0.0:
            return 0.0
        w *= f
    return w


def disc_truncated_trace(x: QuantumDiscElement, n_trunc: int) -> complex:
    """Tr over e_0..e_N of the represented element; only z^a z*^a terms hit the
    diagonal.  Matches the trace of the dense truncation
    tests/oracle.py:disc_represent(x, N) exactly."""
    total = 0j
    for (a, c), v in x.coeffs.items():
        if a != c:
            continue
        total += v * sum(_diag_weight(a, k, x.q) for k in range(n_trunc + 1))
    return total


def tau1(x: QuantumDiscElement) -> complex:
    """Circle-symbol trace: sigma(z) is the unimodular coordinate, sigma(z*z) = 1,
    so (1/2pi) int sigma(z^a z*^c) = delta_{ac}."""
    return sum(v for (a, c), v in x.coeffs.items() if a == c)


@dataclass(frozen=True)
class CancellationReport:
    tau1: complex
    tau0_up: complex
    tau0_dn: complex

    @property
    def residual(self) -> float:
        """|tau0_up - tau0_dn + tau1|; zero in exact arithmetic for every N."""
        return abs(self.tau0_up - self.tau0_dn + self.tau1)


def suq2_residue_cancellation(x: QuantumDiscElement, n_trunc: int,
                              tol: float = 1e-8) -> CancellationReport:
    """The boundary cancellation tau0_up - tau0_dn = -tau1 at truncation N.

    tau0_up = lim_N [Tr_N pi(x) - (N + 3/2) tau1(x)], and tau0_dn the same
    finite part with offset N + 1/2; the offsets are the Dirac eigenvalues
    |lambda| at 2j = N (Suq2DiracSpec).  The one check that can fail compares
    the truncations N and N//2: the offsets shift both by the same multiple of
    tau1, so it tests either offset, while tau0_up - tau0_dn + tau1 is
    (1/2 - 3/2 + 1) tau1 = 0 by algebra, whatever the truncated trace returns.
    """
    t1 = tau1(x)
    full = disc_truncated_trace(x, n_trunc)
    half = disc_truncated_trace(x, n_trunc // 2)
    gap = abs((full - n_trunc * t1) - (half - (n_trunc // 2) * t1))
    if gap > tol:
        raise ConvergenceError(
            f"tau0 truncations at N={n_trunc} and N={n_trunc // 2} differ by "
            f"{gap:.3e} (tol {tol:.1e})")
    return CancellationReport(t1, full - Suq2DiracSpec.eigen_up(n_trunc) * t1,
                              full - abs(Suq2DiracSpec.eigen_dn(n_trunc)) * t1)


def suq2_paired_combination(rx: CancellationReport, ry: CancellationReport) -> float:
    """|(tau1 (x) Delta - Delta (x) tau1)(x (x) y)| with Delta = tau0_up - tau0_dn,
    read from the cancellation reports of x and y."""
    return abs(rx.tau1 * (ry.tau0_up - ry.tau0_dn) - (rx.tau0_up - rx.tau0_dn) * ry.tau1)


class Suq2DiracSpec:
    """Eigenvalue data of the SU_q(2) Dirac operator: for half-integer j,
    up eigenvalue 2j + 3/2 with multiplicity (2j+1)(2j+2) and down eigenvalue
    -(2j + 1/2) with multiplicity (2j+1)(2j)."""

    @staticmethod
    def eigen_up(two_j: int) -> float:
        return two_j + 1.5

    @staticmethod
    def mult_up(two_j: int) -> int:
        return (two_j + 1) * (two_j + 2)

    @staticmethod
    def eigen_dn(two_j: int) -> float:
        return -(two_j + 0.5)

    @staticmethod
    def mult_dn(two_j: int) -> int:
        return (two_j + 1) * two_j

    @staticmethod
    def partial_zeta(s: float, j_max: float) -> float:
        """sum |lambda|^{-s} with multiplicities over j <= j_max."""
        total = 0.0
        for two_j in range(0, int(2 * j_max) + 1):
            total += Suq2DiracSpec.mult_up(two_j) * Suq2DiracSpec.eigen_up(two_j) ** (-s)
            if two_j >= 1:
                total += Suq2DiracSpec.mult_dn(two_j) * abs(Suq2DiracSpec.eigen_dn(two_j)) ** (-s)
        return total
