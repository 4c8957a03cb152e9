"""Noncommutative torus traces and the quantum-disc boundary cancellation."""
from __future__ import annotations

from random import Random

import cmath
import math

import numpy as np
import pytest

from spectral_torsion import (
    ConvergenceError,
    QuantumDiscElement,
    Suq2DiracSpec,
    TorusElement,
    antisymmetric_theta,
    disc_truncated_trace,
    random_theta,
    random_torus_h,
    suq2_paired_combination,
    suq2_residue_cancellation,
    tau1,
    torus_exp,
    torus_trace_identity,
    zstar_z,
)
from spectral_torsion import qmodels
from spectral_torsion.qmodels import FormalSeries, _paired_traces, _swap

from oracle import disc_represent, torus_product


THETA2 = ((0.0, 0.35), (-0.35, 0.0))


def _random_torus(rng: Random, theta, modes: int = 3) -> TorusElement:
    n = len(theta)
    x = TorusElement(theta)
    for _ in range(modes):
        p = tuple(rng.randint(-2, 2) for _ in range(n))
        x = x + TorusElement.weyl(theta, p,
                                  complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return x


class TestTorusAlgebra:
    def test_theta_must_be_square_and_antisymmetric(self):
        with pytest.raises(ValueError):
            antisymmetric_theta(((0.0, 1.0),))
        with pytest.raises(ValueError):
            antisymmetric_theta(((0.0, 1.0), (1.0, 0.0)))
        assert antisymmetric_theta(THETA2) == THETA2

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_theta_must_be_finite(self, x):
        # NaN + NaN and inf - inf both pass the antisymmetry comparison
        with pytest.raises(ValueError, match="theta entries must be finite"):
            antisymmetric_theta(((0.0, x), (-x, 0.0)))
        with pytest.raises(ValueError, match="theta entries must be finite"):
            TorusElement.weyl(((0.0, x), (-x, 0.0)), (1, 0))

    def test_weyl_relation_matches_phase_formula(self):
        p, q = (1, -2), (3, 1)
        up = TorusElement.weyl(THETA2, p)
        uq = TorusElement.weyl(THETA2, q)
        prod = up * uq
        s = sum(p[i] * THETA2[i][j] * q[j] for i in range(2) for j in range(2))
        want = cmath.exp(-1j * math.pi * s)
        assert set(prod.coeffs) == {(4, -1)}
        assert abs(prod.coeffs[(4, -1)] - want) < 1e-15

    def test_product_matches_pairwise_oracle(self):
        rng = Random(15)
        for dim in (2, 3, 4, 5):
            theta = random_theta(rng, dim)
            for _ in range(10):
                a = _random_torus(rng, theta, modes=6)
                b = _random_torus(rng, theta, modes=6)
                got, want = a * b, torus_product(a, b)
                assert set(got.coeffs) == set(want.coeffs)
                assert all(type(x) is int for p in got.coeffs for x in p)
                for p, c in want.coeffs.items():
                    assert abs(got.coeffs[p] - c) < 1e-12

    def test_series_product_matches_pairwise_oracle(self):
        rng = Random(16)
        for dim in (2, 3, 4, 5):
            theta = random_theta(rng, dim)
            s = FormalSeries([_random_torus(rng, theta) for _ in range(4)])
            t = FormalSeries([_random_torus(rng, theta) for _ in range(5)])
            got = s * t
            assert got.truncation == 3
            for m in range(4):
                want = TorusElement(theta)
                for i in range(m + 1):
                    want = want + torus_product(s.orders[i], t.orders[m - i])
                assert set(got.orders[m].coeffs) == set(want.coeffs)
                assert got.orders[m].distance(want) < 1e-12

    def test_modes_must_fit_the_product_arrays(self):
        for bad in ((2 ** 31, 0), (0, -2 ** 31), (np.int64(1), 0), (1.0, 0)):
            with pytest.raises(ValueError):
                TorusElement(THETA2, {bad: 1.0})
        TorusElement(THETA2, {(2 ** 31 - 1, -2 ** 31 + 1): 1.0})

    def test_trace_picks_constant_mode(self):
        x = (TorusElement.weyl(THETA2, (0, 0), 2.5)
             + TorusElement.weyl(THETA2, (1, 0), 7.0))
        assert x.trace() == 2.5
        assert TorusElement.weyl(THETA2, (1, -1)).trace() == 0

    def test_trace_is_tracial(self):
        rng = Random(7)
        for _ in range(20):
            theta = random_theta(rng, rng.choice((2, 3)))
            a = _random_torus(rng, theta)
            b = _random_torus(rng, theta)
            assert abs((a * b).trace() - (b * a).trace()) < 1e-13

    def test_adjoint_is_an_anti_involution(self):
        rng = Random(8)
        for _ in range(20):
            theta = random_theta(rng, 2)
            a = _random_torus(rng, theta)
            b = _random_torus(rng, theta)
            assert (a * b).adjoint().distance(b.adjoint() * a.adjoint()) < 1e-13
            assert a.adjoint().adjoint().distance(a) < 1e-15

    def test_derivations_satisfy_leibniz(self):
        rng = Random(9)
        for _ in range(20):
            dim = rng.choice((2, 3))
            theta = random_theta(rng, dim)
            a = _random_torus(rng, theta)
            b = _random_torus(rng, theta)
            for j in range(1, dim + 1):
                lhs = (a * b).derive(j)
                rhs = a.derive(j) * b + a * b.derive(j)
                assert lhs.distance(rhs) < 1e-12

    def test_derivation_index_validated(self):
        x = TorusElement.weyl(THETA2, (1, 0))
        with pytest.raises(ValueError):
            x.derive(0)
        with pytest.raises(ValueError):
            x.derive(3)

    def test_exp_series_inverts_order_by_order(self):
        rng = Random(10)
        theta = random_theta(rng, 2)
        h = random_torus_h(rng, theta)
        prod = torus_exp(h, 1.0, 6) * torus_exp(h, -1.0, 6)
        one = TorusElement.weyl(theta, (0, 0))
        assert prod.orders[0].distance(one) < 1e-12
        for term in prod.orders[1:]:
            assert term.norm1() < 1e-10

    def test_formal_series_truncates_to_shorter_factor(self):
        one = TorusElement.weyl(THETA2, (0, 0))
        s = FormalSeries([one, one])
        t = FormalSeries([one, one, one, one])
        assert (s * t).truncation == 1
        with pytest.raises(ValueError):
            FormalSeries([])

    def test_distinct_deformation_parameters_rejected(self):
        a = TorusElement.weyl(((0.0, 0.3), (-0.3, 0.0)), (1, 0))
        b = TorusElement.weyl(((0.0, 0.7), (-0.7, 0.0)), (0, 1))
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ValueError, match="mixing different deformation parameters"):
                op(a, b)
        same = TorusElement.weyl(a.theta, (0, 1))
        assert (a * same).coeffs == {(1, 1): pytest.approx(cmath.exp(-0.3j * math.pi))}
        with pytest.raises(ValueError, match="mixing different deformation parameters"):
            FormalSeries([a, a]) * FormalSeries([b, b])
        # a series whose later order carries another theta is mixed too
        with pytest.raises(ValueError, match="mixing different deformation parameters"):
            FormalSeries([a, b]) * FormalSeries([same, same])


class TestTorusTraceIdentity:
    def test_requires_self_adjoint_argument(self):
        h = TorusElement.weyl(THETA2, (1, 0), 1j)
        with pytest.raises(ValueError):
            torus_trace_identity(h, 2, 1, 1, 4)

    def test_residual_small_for_random_self_adjoint(self):
        rng = Random(11)
        for _ in range(6):
            dim = rng.choice((2, 3))
            theta = random_theta(rng, dim)
            h = random_torus_h(rng, theta, max_modes=3)
            for alpha, beta in ((0, 1), (2, 1), (1, 2), (3, 2)):
                j = rng.randint(1, dim)
                assert torus_trace_identity(h, alpha, beta, j, 6) < 1e-12

    def test_overflowed_order_fails_the_check(self):
        # h^2 overflows at t-order 2; max() alone skipped the NaN traces and read 0
        theta = ((0.0, 0.3), (-0.3, 0.0))
        h = TorusElement.weyl(theta, (1, 0), 1e200) + TorusElement.weyl(theta, (-1, 0), 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            got = torus_trace_identity(h, 1, 1, 1, 6)
        assert not math.isfinite(got)
        assert not got < 1e-12

    def test_nonzero_without_the_derivation(self):
        # tau(k^a k^b) has a nonzero constant order, so the bound is real
        rng = Random(12)
        theta = random_theta(rng, 2)
        h = random_torus_h(rng, theta)
        prod = torus_exp(h, 2.0, 4) * torus_exp(h, 1.0, 4)
        assert max(abs(t.trace()) for t in prod.orders) > 0.5

    def test_shared_powers_match_three_exponentials(self, monkeypatch):
        # the identity forms k = exp(t h) once and scales its orders into k^alpha
        # and k^beta; here each of k^alpha, k and k^beta is its own exponential
        seen = []

        def spy(x, y):
            seen.append((x, y))
            return _paired_traces(x, y)
        monkeypatch.setattr(qmodels, "_paired_traces", spy)
        rng = Random(13)
        for dim in (2, 3, 4):
            theta = random_theta(rng, dim)
            h = random_torus_h(rng, theta)   # drawn as `examples nctorus` draws it
            for alpha, beta in ((0, 1), (2, -1), (3, 2)):
                j = rng.randint(1, dim)
                got = torus_trace_identity(h, alpha, beta, j, 9)
                x_want = torus_exp(h, alpha, 9) * torus_exp(h, 1.0, 9).derive(j)
                kb_want = torus_exp(h, beta, 9)
                x_got, kb_got = seen.pop()
                for a, b in zip(x_got.orders + kb_got.orders,
                                x_want.orders + kb_want.orders, strict=True):
                    assert a.distance(b) <= 1e-12 * max(1.0, b.norm1())
                want = max(abs(t) for t in _paired_traces(x_want, kb_want))
                assert abs(got - want) < 1e-12


class TestPairedTraces:
    @staticmethod
    def _draw(seed: int, dim: int):
        rng = Random(seed)
        theta = random_theta(rng, dim)
        h = random_torus_h(rng, theta, max_modes=3)
        return h, rng.randint(1, dim)

    def test_pairing_equals_trace_of_the_full_product(self):
        for seed, dim in ((17, 2), (18, 3), (19, 4)):
            h, j = self._draw(seed, dim)
            for alpha, beta in ((2, -1), (-1, -1), (1, 2)):
                x = torus_exp(h, alpha, 6) * torus_exp(h, 1.0, 6).derive(j)
                kb = torus_exp(h, beta, 6)
                paired = _paired_traces(x, kb)
                full = x * kb
                assert len(paired) == len(full.orders) == 7
                for m, term in enumerate(full.orders):
                    assert abs(paired[m] - term.trace()) < 1e-12

    def test_pairing_is_not_vacuous(self):
        # tau(k^a k^b) = tau(k^(a+b)) is nonzero, so an always-zero pairing fails here
        seen = 0.0
        for seed, dim in ((20, 2), (21, 3)):
            h, _ = self._draw(seed, dim)
            for alpha, beta in ((2, 1), (1, 1), (-1, 3)):
                ka, kb = torus_exp(h, alpha, 5), torus_exp(h, beta, 5)
                paired = _paired_traces(ka, kb)
                for m, term in enumerate((ka * kb).orders):
                    assert abs(paired[m] - term.trace()) < 1e-12
                seen = max(seen, max(abs(v) for v in paired))
        assert seen > 0.1


class TestQuantumDisc:
    Q = 0.5

    def test_defining_relation_holds_in_normal_form(self):
        q = self.Q
        z = QuantumDiscElement.z(q)
        zs = QuantumDiscElement.zstar(q)
        lhs = zs * z
        rhs = (z * zs).scale(q * q) + QuantumDiscElement.one(q).scale(1 - q * q)
        assert lhs.distance(rhs) == 0.0

    def test_swap_base_case(self):
        q = self.Q
        got = dict(_swap(q, 1, 1))
        assert abs(got[(1, 1)] - q * q) < 1e-15
        assert abs(got[(0, 0)] - (1 - q * q)) < 1e-15

    def test_defining_relation_holds_in_representation(self):
        q = self.Q
        z = QuantumDiscElement.z(q)
        zs = QuantumDiscElement.zstar(q)
        lhs = disc_represent(zs * z, 8)
        rhs = disc_represent(z * zs, 8) * q * q + np.eye(9) * (1 - q * q)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_adjoint_is_an_anti_involution(self):
        rng = Random(13)
        q = self.Q
        for _ in range(10):
            x = _random_disc(rng, q)
            y = _random_disc(rng, q)
            assert (x * y).adjoint().distance(y.adjoint() * x.adjoint()) < 1e-12
            m = disc_represent(x.adjoint(), 6)
            assert np.max(np.abs(m - disc_represent(x, 6).conj().T)) < 1e-12

    def test_truncated_trace_matches_matrix_trace(self):
        rng = Random(14)
        q = self.Q
        for n_trunc in (5, 17):
            for _ in range(8):
                x = _random_disc(rng, q)
                want = disc_represent(x, n_trunc).trace()
                assert abs(disc_truncated_trace(x, n_trunc) - want) < 1e-11

    def test_distinct_deformation_parameters_rejected(self):
        with pytest.raises(ValueError):
            QuantumDiscElement.z(0.5) * QuantumDiscElement.z(0.6)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                QuantumDiscElement.one(bad)


class TestBoundaryTraces:
    Q = 0.5
    N = 2000

    def test_tau1_is_the_circle_integral(self):
        q = self.Q
        z = QuantumDiscElement.z(q)
        assert tau1(z) == 0
        assert tau1(z * z.adjoint()) == 1
        assert tau1(zstar_z(q)) == 1
        assert tau1(QuantumDiscElement.one(q)) == 1

    def test_tau0_anchors_on_the_identity(self):
        report = suq2_residue_cancellation(QuantumDiscElement.one(self.Q), self.N)
        assert abs(report.tau0_up - (-0.5)) < 1e-12
        assert abs(report.tau0_dn - 0.5) < 1e-12

    def test_tau0_geometric_anchor(self):
        # 1 - z*z = q^2 (1 - z z*) is trace class with trace q^2 / (1 - q^2)
        q = self.Q
        x = QuantumDiscElement.one(q) - zstar_z(q)
        assert tau1(x) == 0
        want = q * q / (1 - q * q)
        report = suq2_residue_cancellation(x, self.N)
        assert abs(report.tau0_up - want) < 1e-12
        assert abs(report.tau0_dn - want) < 1e-12

    def test_tau0_flags_unconverged_truncation(self):
        q = self.Q
        w = QuantumDiscElement.z(q) * QuantumDiscElement.zstar(q)
        with pytest.raises(ConvergenceError):
            suq2_residue_cancellation(w, 10)

    def test_cancellation_flags_unconverged_trace(self, monkeypatch):
        # the residual is 0 by algebra for any trace value, so only the
        # N-versus-N//2 check can catch a trace that has not converged
        exact = qmodels.disc_truncated_trace
        monkeypatch.setattr(qmodels, "disc_truncated_trace",
                            lambda x, n: exact(x, n) + 1e-3 / n)
        with pytest.raises(ConvergenceError):
            suq2_residue_cancellation(zstar_z(self.Q), self.N)
        with pytest.raises(ConvergenceError):
            suq2_paired_combination(suq2_residue_cancellation(zstar_z(self.Q), self.N),
                                    suq2_residue_cancellation(QuantumDiscElement.one(self.Q),
                                                              self.N))
        report = suq2_residue_cancellation(zstar_z(self.Q), self.N, tol=1e-3)
        assert report.residual < 1e-8

    def test_cancellation_residual_vanishes(self):
        q = self.Q
        samples = [QuantumDiscElement.one(q),
                   QuantumDiscElement.z(q),
                   zstar_z(q),
                   zstar_z(q).power(2),
                   zstar_z(q).power(3)]
        for x in samples:
            report = suq2_residue_cancellation(x, self.N)
            assert report.residual < 1e-8

    def test_cancellation_is_exact_in_floats_for_these_samples(self):
        # tau0_up - tau0_dn differs from -tau1 only through the counting
        # offsets, which subtract exactly
        report = suq2_residue_cancellation(zstar_z(self.Q), self.N)
        assert report.residual == 0.0

    def test_paired_combination_vanishes(self):
        q = self.Q
        xs = [QuantumDiscElement.one(q), zstar_z(q), zstar_z(q).power(2)]
        reports = [suq2_residue_cancellation(x, self.N) for x in xs]
        for rx in reports:
            for ry in reports:
                assert suq2_paired_combination(rx, ry) < 1e-8


def _random_disc(rng: Random, q: float) -> QuantumDiscElement:
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, 3), rng.randint(0, 3))
        coeffs[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return QuantumDiscElement(q, coeffs)


class TestDiracSpectrum:
    def test_lowest_levels(self):
        assert Suq2DiracSpec.eigen_up(0) == 1.5
        assert Suq2DiracSpec.mult_up(0) == 2
        assert Suq2DiracSpec.eigen_dn(1) == -1.5
        assert Suq2DiracSpec.mult_dn(1) == 2
        assert Suq2DiracSpec.mult_dn(0) == 0

    def test_zeta_converges_above_dimension(self):
        s100 = Suq2DiracSpec.partial_zeta(3.5, 100)
        s200 = Suq2DiracSpec.partial_zeta(3.5, 200)
        assert s200 / s100 - 1 < 0.05

    def test_zeta_diverges_below_dimension(self):
        s100 = Suq2DiracSpec.partial_zeta(2.5, 100)
        s200 = Suq2DiracSpec.partial_zeta(2.5, 200)
        assert s200 / s100 > 1.3
