from __future__ import annotations

import math
from fractions import Fraction

import pytest

from spectral_torsion import (CurvatureJet, HomogeneousSymbol, MatrixQQ,
                              Multivector, PiValue, SymbolSum, compose, moment,
                              negative_power, parametrix, qi, sphere_integrate,
                              sphere_volume, sqrt_symbol)
from spectral_torsion.symcalc import hs_dx, hs_dxi, hs_is_zero, hs_mul
from spectral_torsion.torsion import dirac_symbol
from spectral_torsion.torsion import TorsionTensor

from oracle import mc_sphere_average, sphere_batch


def _sym(dim: int, degree: int, entries) -> HomogeneousSymbol:
    """entries: list of (alpha, rho, xj, Multivector)."""
    h = HomogeneousSymbol(dim, degree)
    for alpha, rho, xj, mv in entries:
        h._merge((tuple(alpha), rho, xj), mv)
    return h


def _sum_is_zero(s: SymbolSum) -> bool:
    return all(hs_is_zero(h) for h in s.parts.values())


def _sums_equal(a: SymbolSum, b: SymbolSum) -> bool:
    return _sum_is_zero(a - b)


class TestHomogeneous:
    def test_radial_identity_recognized(self):
        # sum_j xi_j^2  ==  ||xi||^2
        dim = 3
        poly = _sym(dim, 2, [((2, 0, 0), 0, 0, Multivector.unit(dim)),
                             ((0, 2, 0), 0, 0, Multivector.unit(dim)),
                             ((0, 0, 2), 0, 0, Multivector.unit(dim))])
        radial = HomogeneousSymbol.radial(dim, 2, Multivector.unit(dim))
        assert hs_is_zero(poly - radial)
        assert not hs_is_zero(poly.scale(qi(2)) - radial)

    def test_monomial_is_not_radial(self):
        dim = 2
        xi1sq = _sym(dim, 2, [((2, 0), 0, 0, Multivector.unit(dim))])
        radial = HomogeneousSymbol.radial(dim, 2, Multivector.unit(dim))
        assert not hs_is_zero(xi1sq - radial)

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            HomogeneousSymbol(2, 1, {((2, 0), 0, 0): Multivector.unit(2)})

    def test_derivatives(self):
        dim = 2
        # d/dxi_1 (xi_1^2 ||xi||^-1) = 2 xi_1 ||xi||^-1 - xi_1^3 ||xi||^-3
        h = _sym(dim, 1, [((2, 0), -1, 0, Multivector.unit(dim))])
        want = _sym(dim, 0, [((1, 0), -1, 0, Multivector.unit(dim).scale(qi(2))),
                             ((3, 0), -3, 0, Multivector.unit(dim).scale(qi(-1)))])
        assert hs_is_zero(hs_dxi(h, 1) - want)

    def test_x_derivative_drops_jet(self):
        dim = 2
        h = _sym(dim, 0, [((0, 0), 0, 1, Multivector.unit(dim))])  # x_1 * 1
        got = hs_dx(h, 1)
        want = _sym(dim, 0, [((0, 0), 0, 0, Multivector.unit(dim))])
        assert hs_is_zero(got - want)
        assert not hs_dx(h, 2)


class TestCompose:
    def test_product_only_when_x_free(self):
        d = dirac_symbol(TorsionTensor.zero(3), 3)
        direct = hs_mul(d.component(1), d.component(1))
        composed = compose(d, d).component(2)
        assert hs_is_zero(direct - composed)

    def test_first_order_correction(self):
        # A = xi_1 (the operator -i d/dx_1), B = x_1 xi_1.  Composing the
        # operators gives -i d/dx_1 (x_1 (-i d/dx_1)) = x_1 xi_1^2 - i xi_1,
        # so the degree-1 component of A#B must be -i xi_1.
        dim = 2
        one = Multivector.unit(dim)
        a = SymbolSum(dim, {1: _sym(dim, 1, [((1, 0), 0, 0, one)])})
        b = SymbolSum(dim, {1: _sym(dim, 1, [((1, 0), 0, 1, one)])})
        got = compose(a, b)
        lead = _sym(dim, 2, [((2, 0), 0, 1, one)])
        corr = _sym(dim, 1, [((1, 0), 0, 0, one.scale(qi(0, -1)))])
        assert hs_is_zero(got.component(2) - lead)
        assert hs_is_zero(got.component(1) - corr)


class TestParametrix:
    def test_right_inverse_of_dirac_square(self):
        for dim in (3, 4):
            t = TorsionTensor(dim, {(1, 2, 3): Fraction(1, 2)})
            d = dirac_symbol(t, dim)
            d2 = compose(d, d)
            p = parametrix(d2)
            unit = SymbolSum(dim, {0: HomogeneousSymbol.radial(dim, 0, Multivector.unit(dim))})
            assert _sums_equal(compose(p, d2), unit)

    def test_negative_power_composes(self):
        dim = 3
        d2 = compose(dirac_symbol(TorsionTensor.zero(dim), dim),
                     dirac_symbol(TorsionTensor.zero(dim), dim))
        p2 = negative_power(d2, 2)
        # p2 * d2 should equal the single parametrix
        assert _sums_equal(compose(p2, d2), negative_power(d2, 1))
        assert p2.leading_degree == -4

    def test_requires_scalar_leading(self):
        dim = 2
        bad = SymbolSum(dim, {1: _sym(dim, 1, [((1, 0), 0, 0, Multivector.unit(dim))])})
        with pytest.raises(ValueError):
            parametrix(bad)

    @staticmethod
    def _matrix_radial(m: MatrixQQ) -> SymbolSum:
        """m * ||xi||^2 in dimension 2, with a matrix coefficient."""
        return SymbolSum(2, {2: HomogeneousSymbol.radial(2, 2, Multivector.scalar(2, m))})

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 2]], [[1, 1], [0, 1]]])
    def test_matrix_leading_must_be_a_multiple_of_the_unit(self, rows):
        with pytest.raises(ValueError, match="not a multiple of the unit"):
            parametrix(self._matrix_radial(MatrixQQ.from_rows(rows)))

    def test_matrix_leading_multiple_of_the_unit_inverted(self):
        p = parametrix(self._matrix_radial(MatrixQQ.identity(2) * 3))
        third = Multivector.scalar(2, MatrixQQ.identity(2) * Fraction(1, 3))
        assert set(p.parts) == {-2}
        assert p.component(-2).terms == {((0, 0), -2, 0): third}


class TestSqrt:
    def test_square_recovers_symbol(self):
        for dim in (3, 5):
            t = TorsionTensor(dim, {(1, 2, 3): Fraction(1, 3)})
            d2 = compose(dirac_symbol(t, dim), dirac_symbol(t, dim))
            s = sqrt_symbol(d2)
            assert s.leading_degree == 1
            assert _sums_equal(compose(s, s), d2)

    def test_rejects_non_laplacian_leading(self):
        dim = 2
        a = SymbolSum(dim, {2: HomogeneousSymbol.radial(
            dim, 2, Multivector.unit(dim).scale(qi(2)))})
        with pytest.raises(ValueError):
            sqrt_symbol(a)


class TestMoments:
    def test_exact_values(self):
        assert moment((0, 0, 0, 0), 4) == 1
        assert moment((2, 0, 0, 0), 4) == Fraction(1, 4)
        assert moment((2, 2, 0, 0), 4) == Fraction(1, 24)
        assert moment((4, 0, 0, 0), 4) == Fraction(1, 8)
        assert moment((1, 0, 0, 0), 4) == 0
        assert moment((1, 1, 2), 3) == 0

    def test_pairing_rule(self):
        for dim in (3, 4, 5, 6):
            for j in range(dim):
                for k in range(dim):
                    alpha = [0] * dim
                    alpha[j] += 1
                    alpha[k] += 1
                    want = Fraction(1, dim) if j == k else Fraction(0)
                    assert moment(tuple(alpha), dim) == want

    def test_monte_carlo_cross_check(self):
        batch = sphere_batch(4, 200_000, seed=42)
        for alpha in ((2, 0, 0, 0), (2, 2, 0, 0), (4, 0, 0, 0), (2, 0, 2, 0)):
            est = mc_sphere_average(batch, alpha)
            exact = float(moment(alpha, 4))
            assert math.isclose(est, exact, rel_tol=2e-2)

    def test_sphere_volume(self):
        assert str(sphere_volume(2)) == "2*pi"
        assert str(sphere_volume(3)) == "4*pi"
        assert str(sphere_volume(4)) == "2*pi^2"
        assert str(sphere_volume(5)) == "8/3*pi^2"
        assert str(sphere_volume(6)) == "1*pi^3"
        assert math.isclose(float(sphere_volume(3)), 4 * math.pi)

    def test_sphere_integrate_drops_odd(self):
        dim = 3
        h = _sym(dim, -dim, [((1, 0, 0), -dim - 1, 0, Multivector.unit(dim))])
        assert not sphere_integrate(h)
        g12 = Multivector.gamma(dim, 1) * Multivector.gamma(dim, 2)
        mixed = _sym(dim, -dim, [((1, 1, 0), -dim - 2, 0, g12)])
        assert not sphere_integrate(mixed)

    def test_sphere_integrate_pairing(self):
        dim = 4
        g12 = Multivector.gamma(dim, 1) * Multivector.gamma(dim, 2)
        h = _sym(dim, -dim, [((2, 0, 0, 0), -dim - 2, 0, g12)])
        got = sphere_integrate(h)
        assert got == g12.scale(qi(Fraction(1, dim)))


class TestPiValue:
    def test_arithmetic(self):
        v = sphere_volume(4)
        assert str(v * Fraction(3, 2)) == "3*pi^2"
        assert str(sphere_volume(2) * sphere_volume(2)) == "4*pi^2"
        assert math.isclose(float(sphere_volume(5)), 8 * math.pi ** 2 / 3)

    def test_equality(self):
        assert PiValue(Fraction(2), 1) == PiValue(Fraction(2), 1)
        assert PiValue(Fraction(2), 1) != PiValue(Fraction(2), 2)


class TestCurvature:
    def _constant_curvature(self, dim: int, lam: Fraction) -> CurvatureJet:
        riem = {}
        for a in range(1, dim + 1):
            for b in range(1, dim + 1):
                for c in range(1, dim + 1):
                    for d in range(1, dim + 1):
                        v = lam * (Fraction(int(a == c and b == d))
                                   - Fraction(int(a == d and b == c)))
                        if v:
                            riem[(a, b, c, d)] = v
        return CurvatureJet(dim, riem)

    def test_constant_curvature_accepted(self):
        jet = self._constant_curvature(3, Fraction(1, 2))
        # Ric_cd = (n-1) lam delta_cd
        assert jet.ricci(1, 1) == Fraction(1)
        assert jet.ricci(1, 2) == 0

    def test_symmetry_violations_rejected(self):
        with pytest.raises(ValueError):
            CurvatureJet(2, {(1, 2, 1, 2): Fraction(1)})  # missing partners
        good = {(1, 2, 1, 2): Fraction(1), (2, 1, 1, 2): Fraction(-1),
                (1, 2, 2, 1): Fraction(-1), (2, 1, 2, 1): Fraction(1)}
        CurvatureJet(2, good)

    def test_float_entry_rejected(self):
        good = {(1, 2, 1, 2): 0.5, (2, 1, 1, 2): Fraction(-1, 2),
                (1, 2, 2, 1): Fraction(-1, 2), (2, 1, 2, 1): Fraction(1, 2)}
        with pytest.raises(TypeError, match="not an exact rational"):
            CurvatureJet(2, good)

    def test_spin_connection_antisymmetry(self):
        # jet keys are (direction j, frame pair k l, jet index s);
        # metric compatibility is antisymmetry in the frame pair
        jet = self._constant_curvature(3, Fraction(1))
        om = jet.spin_connection_linear()
        seen = set(om) | {(j, l, k, s) for (j, k, l, s) in om}
        for (j, k, l, s) in seen:
            assert om.get((j, k, l, s), Fraction(0)) == \
                -om.get((j, l, k, s), Fraction(0))
        assert any(om.values())
