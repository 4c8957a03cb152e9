from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from spectral_torsion import (DoubledEvaluator, DoubledOneForm, EymModel,
                              MatrixOneForm, MatrixQQ, Multivector, OneForm,
                              ResidueValue, adjoint_matrix, adjoint_trace,
                              doubled_spanning_forms,
                              doubled_torsion_free_test, eym_torsion_density,
                              left_mult_matrix, metric_functional, qi,
                              sphere_integrate, volume_functional)
from spectral_torsion.almostcommutative import _eym_lead, eym_dirac_symbol
from spectral_torsion.clifford import chirality
from spectral_torsion.sampling import (random_anti_hermitian_traceless,
                                       random_one_form, random_qqi)
from spectral_torsion.symcalc import compose, negative_power
from spectral_torsion.torsion import (TorsionTensor, _zero_order_symbol,
                                      dirac_symbol, inverse_power_symbol, lead_residue,
                                      residue_of_symbol, sphere_average)

from oracle import dense_matrix_product, eym_sigma_component, hs_is_zero


def _random_matrix(rng: Random, size: int) -> MatrixQQ:
    return MatrixQQ.from_rows([[random_qqi(rng) for _ in range(size)]
                               for _ in range(size)])


class TestEndomorphisms:
    def test_left_mult_is_homomorphism(self):
        rng = Random(1)
        for _ in range(5):
            a, b = _random_matrix(rng, 3), _random_matrix(rng, 3)
            assert left_mult_matrix(a * b) == left_mult_matrix(a) * left_mult_matrix(b)

    def test_left_mult_trace(self):
        rng = Random(2)
        for size in (2, 3):
            a = _random_matrix(rng, size)
            assert left_mult_matrix(a).trace() == qi(size) * a.trace()

    def test_adjoint_is_lie_homomorphism(self):
        rng = Random(3)
        for _ in range(5):
            x, y = _random_matrix(rng, 3), _random_matrix(rng, 3)
            bracket = x * y - y * x
            ad_x, ad_y = adjoint_matrix(x), adjoint_matrix(y)
            assert adjoint_matrix(bracket) == ad_x * ad_y - ad_y * ad_x

    def test_adjoint_kills_identity(self):
        assert not adjoint_matrix(MatrixQQ.identity(3))

    def test_adjoint_trace_vanishes_on_all_units(self):
        for size in range(2, 7):
            for i in range(size):
                for j in range(size):
                    assert adjoint_trace(MatrixQQ.unit(size, i, j)) == qi(0)

    def test_mixed_trace_not_zero(self):
        # Tr(L_A ad_X) = N Tr(AX) - Tr(A) Tr(X); ad-traces alone do not force
        # the density to vanish, the symbol cancellation below does
        rng = Random(4)
        size = 2
        found = False
        for _ in range(10):
            a = _random_matrix(rng, size)
            x = random_anti_hermitian_traceless(rng, size)
            mixed = (left_mult_matrix(a) * adjoint_matrix(x)).trace()
            want = qi(size) * (a * x).trace() - a.trace() * x.trace()
            assert mixed == want
            if mixed:
                found = True
        assert found


class TestEymModel:
    def _model(self, rng: Random, dim: int, size: int) -> EymModel:
        gauge = tuple(random_anti_hermitian_traceless(rng, size)
                      for _ in range(dim))
        return EymModel(dim, size, gauge)

    def _forms(self, rng: Random, dim: int, size: int):
        return tuple(MatrixOneForm(dim, tuple(
            random_anti_hermitian_traceless(rng, size) for _ in range(dim)))
            for _ in range(3))

    def test_validation(self):
        herm = MatrixQQ.from_rows([[qi(0), qi(1)], [qi(1), qi(0)]])
        with pytest.raises(ValueError):
            EymModel(4, 2, (herm,) * 4)
        traced = MatrixQQ.from_rows([[qi(0, 1), qi(0)], [qi(0), qi(0, 1)]])
        with pytest.raises(ValueError):
            EymModel(4, 2, (traced,) * 4)
        ok = MatrixQQ.from_rows([[qi(0, 1), qi(0)], [qi(0), qi(0, -1)]])
        with pytest.raises(ValueError):
            EymModel(3, 2, (ok,) * 3)
        EymModel(2, 2, (ok,) * 2)

    @pytest.mark.parametrize("dim,size", [(2, 2), (2, 3), (4, 2), (4, 3)])
    def test_density_identically_zero(self, dim, size):
        rng = Random(10 * dim + size)
        for _ in range(2):
            model = self._model(rng, dim, size)
            u, v, w = self._forms(rng, dim, size)
            assert eym_torsion_density(model, u, v, w) == ResidueValue(qi(0), dim)

    def test_cancellation_is_structural(self):
        # the degree -n component is nonzero pointwise on the sphere, and
        # already integrates to the zero endomorphism before any trace
        rng = Random(21)
        dim, size = 2, 2
        model = self._model(rng, dim, size)
        u, v, w = self._forms(rng, dim, size)
        comp = eym_sigma_component(model, u, v, w)
        assert not hs_is_zero(comp)
        assert not sphere_integrate(comp)

    def test_shared_path_matches_composed_reference(self):
        rng = Random(23)
        dim, size = 2, 2
        model = self._model(rng, dim, size)
        u, v, w = self._forms(rng, dim, size)
        d = eym_dirac_symbol(model)
        power = negative_power(compose(d, d), dim // 2)
        lead = u.action() * v.action() * w.action()
        want = residue_of_symbol(compose(_zero_order_symbol(lead), compose(d, power)), dim)
        assert lead_residue(lead, sphere_average(d, power)) == want
        assert eym_torsion_density(model, u, v, w) == want

    def test_flat_gauge_gives_zero_component(self):
        # with X_a = 0 there is no degree -n symbol at all
        dim, size = 2, 2
        zero = MatrixQQ.zero(size)
        model = EymModel(dim, size, (zero,) * dim)
        rng = Random(22)
        u, v, w = self._forms(rng, dim, size)
        assert hs_is_zero(eym_sigma_component(model, u, v, w))

    @pytest.mark.parametrize("dim,size", [(2, 2), (2, 3), (4, 2), (4, 3)])
    def test_lead_lifts_the_product_over_m_n(self, dim, size):
        # the lead is multiplied over M_N and lifted; the reference multiplies
        # the lifted one-forms over End(M_N)
        rng = Random(40 + 10 * dim + size)
        model = self._model(rng, dim, size)
        u, v, w = (MatrixOneForm(dim, tuple(_random_matrix(rng, size) for _ in range(dim)))
                   for _ in range(3))
        lead = _eym_lead(model, u, v, w)
        assert lead
        assert lead == u.action() * v.action() * w.action()

    @pytest.mark.parametrize("dim,size", [(2, 2), (4, 2), (2, 3)])
    def test_sigma_component_matches_dense_products(self, dim, size, monkeypatch):
        # the density is identically 0, so it cannot catch a wrong product;
        # the degree -n symbol before integration is nonzero and can
        rng = Random(50 + 10 * dim + size)
        model = self._model(rng, dim, size)
        u, v, w = self._forms(rng, dim, size)
        comp = eym_sigma_component(model, u, v, w)
        assert not hs_is_zero(comp)
        sparse_mul, dense_calls = MatrixQQ.__mul__, []

        def dense_mul(a, b):
            if isinstance(b, MatrixQQ):
                dense_calls.append(b.size)
                return dense_matrix_product(a, b)
            return sparse_mul(a, b)
        monkeypatch.setattr(MatrixQQ, "__mul__", dense_mul)
        assert hs_is_zero(eym_sigma_component(model, u, v, w) - comp)
        assert {size, size * size} <= set(dense_calls)


class TestDoubled:
    def _scalars(self, rng: Random):
        return tuple(random_qqi(rng) for _ in range(6))

    def test_four_case_table(self):
        rng = Random(31)
        dim = 4
        phi = qi(Fraction(1, 2), Fraction(-1, 3))
        w1p, w1m, w2p, w2m, w3p, w3m = (random_one_form(rng, dim) for _ in range(6))
        f1p, f1m, f2p, f2m, f3p, f3m = self._scalars(rng)
        d1 = DoubledOneForm.diagonal(w1p, w1m, phi)
        d2 = DoubledOneForm.diagonal(w2p, w2m, phi)
        d3 = DoubledOneForm.diagonal(w3p, w3m, phi)
        o1 = DoubledOneForm.off_diagonal(dim, f1p, f1m, phi)
        o2 = DoubledOneForm.off_diagonal(dim, f2p, f2m, phi)
        o3 = DoubledOneForm.off_diagonal(dim, f3p, f3m, phi)
        ev = DoubledEvaluator(dim)
        zero = ResidueValue(qi(0), dim)

        assert ev.residue(d1, d2, d3) == zero
        want2 = (metric_functional(w1p, w2p, dim).scale(f3p)
                 + metric_functional(w1m, w2m, dim).scale(f3m)).scale(phi.abs2())
        assert ev.residue(d1, d2, o3) == want2
        assert ev.residue(d1, o2, o3) == zero
        want4 = volume_functional(f1p * f2m * f3p + f1m * f2p * f3m,
                                  dim).scale(phi.abs2() ** 2)
        assert ev.residue(o1, o2, o3) == want4

    def test_case2_middle_slot_flips_sign(self):
        # (d, o, d) pairs the sheets across the flip and picks up a minus:
        # the product is off-diagonal, and closing it needs chi moved past
        # the third (grade-1) form, chi w^ chi = -w^
        rng = Random(32)
        dim = 2
        phi = qi(1)
        w1p, w1m, w3p, w3m = (random_one_form(rng, dim) for _ in range(4))
        d1 = DoubledOneForm.diagonal(w1p, w1m, phi)
        d3 = DoubledOneForm.diagonal(w3p, w3m, phi)
        o2 = DoubledOneForm.off_diagonal(dim, qi(1), qi(2), phi)
        got = DoubledEvaluator(dim).residue(d1, o2, d3)
        want = (metric_functional(w1p, w3m, dim).scale(qi(1))
                + metric_functional(w1m, w3p, dim).scale(qi(2))) \
            .scale(phi.abs2()).scale(qi(-1))
        assert got == want

    def test_additive_in_each_slot(self):
        rng = Random(33)
        dim = 2
        phi = qi(0, 1)
        d = DoubledOneForm.diagonal(random_one_form(rng, dim),
                                    random_one_form(rng, dim), phi)
        o = DoubledOneForm.off_diagonal(dim, random_qqi(rng), random_qqi(rng), phi)
        mixed = DoubledOneForm(dim, d.wplus, d.wminus, o.fplus, o.fminus, phi)
        a = DoubledOneForm.diagonal(random_one_form(rng, dim),
                                    random_one_form(rng, dim), phi)
        b = DoubledOneForm.off_diagonal(dim, random_qqi(rng), random_qqi(rng), phi)
        ev = DoubledEvaluator(dim)
        got = ev.residue(mixed, a, b)
        split = ev.residue(d, a, b) + ev.residue(o, a, b)
        assert got == split

    def test_scan_row_matches_composed_reference(self):
        # full spanning scans at n = 2 and 4, at phi = 0 and a drawn phi, each
        # residue against all four block legs composed with the full base
        # symbols: (P D_doubled)_{ii} = P_ii D + P_{i,other} chi Phi^(*)
        for dim in (2, 4):
            d = dirac_symbol(TorsionTensor.zero(dim), dim)
            power = negative_power(compose(d, d), dim // 2)
            d_power = compose(d, power)
            chi = chirality(dim)
            ev = DoubledEvaluator(dim)
            for phi in (qi(0), random_qqi(Random(34 + dim), nonzero=True)):
                span = doubled_spanning_forms(dim, phi)
                nonzero = 0
                for o1 in span:
                    for o2 in span:
                        for o3 in span:
                            b1, b2, b3 = o1.blocks, o2.blocks, o3.blocks
                            p = [[sum((b1[i][k] * b2[k][l] * b3[l][j]
                                       for k in (0, 1) for l in (0, 1)), Multivector(dim))
                                  for j in (0, 1)] for i in (0, 1)]
                            want = ResidueValue(qi(0), dim)
                            for i, phase in ((0, phi.conj()), (1, phi)):
                                want = want + residue_of_symbol(
                                    compose(_zero_order_symbol(p[i][i]), d_power), dim)
                                want = want + residue_of_symbol(compose(
                                    _zero_order_symbol(p[i][1 - i] * chi.scale(phase)),
                                    power), dim)
                            assert ev.residue(o1, o2, o3) == want
                            nonzero += not want.is_zero()
                assert bool(nonzero) == bool(phi)

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_dropped_leg_average_is_empty(self, dim):
        # the residue forms no diagonal leg: D |D|^{-n} of the torsion-free D
        # averages to nothing over the sphere (spectral closedness)
        d = dirac_symbol(TorsionTensor.zero(dim), dim)
        assert not sphere_average(d, inverse_power_symbol(d)).parts

    def test_residue_multiplies_only_nonempty_blocks(self, monkeypatch):
        # most block pairs of a spanning scan hold an empty block; forming their
        # product cost ~8 ms of a ~37 ms n=4 scan
        dim = 4
        ev = DoubledEvaluator(dim)
        span = doubled_spanning_forms(dim, qi(1, 2))
        mul = Multivector.__mul__
        products, empty = [0], []

        def spy(a, b):
            if isinstance(b, Multivector):
                products[0] += 1
                if not (a and b):
                    empty.append((a, b))
            return mul(a, b)
        monkeypatch.setattr(Multivector, "__mul__", spy)
        for o1 in span:
            for o2 in span:
                for o3 in span:
                    ev.residue(o1, o2, o3)
        assert products[0] and not empty

    def test_phi_mismatch_rejected(self):
        dim = 2
        d = DoubledOneForm.diagonal(OneForm.frame(dim, 1), OneForm.frame(dim, 2), qi(1))
        o = DoubledOneForm.off_diagonal(dim, qi(1), qi(1), qi(2))
        with pytest.raises(ValueError):
            DoubledEvaluator(dim).residue(d, d, o)

    def test_spanning_forms(self):
        for dim in (2, 4):
            assert len(doubled_spanning_forms(dim, qi(1))) == 2 * dim + 2

    def test_torsion_free_iff_phi_zero(self):
        ev2, ev4 = DoubledEvaluator(2), DoubledEvaluator(4)
        assert doubled_torsion_free_test(ev2, qi(0))
        assert not doubled_torsion_free_test(ev2, qi(1))
        assert not doubled_torsion_free_test(ev2, qi(0, Fraction(1, 2)))
        assert doubled_torsion_free_test(ev4, qi(0))
        assert not doubled_torsion_free_test(ev4, qi(1))

    def test_blocks_shape(self):
        d = DoubledOneForm.diagonal(OneForm.frame(2, 1), OneForm.frame(2, 2), qi(1))
        b = d.blocks
        assert len(b) == 2 and all(len(row) == 2 for row in b)
        assert not b[0][1] and not b[1][0]

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            DoubledOneForm.off_diagonal(3, qi(1), qi(1), qi(1))
