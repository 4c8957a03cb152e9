from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torsion import (ContorsionTensor, EymModel, HomogeneousSymbol, MatrixQQ,
                              Multivector, OneForm, QQi, ResidueValue, SymbolSum,
                              TorsionTensor, chirality, chirality_functional,
                              closed_form_torsion, contorsion_from_torsion,
                              eym_dirac_symbol, metric_functional, pipeline_coefficient, qi,
                              spectral_closedness_check, torsion_contraction,
                              torsion_from_contorsion, torsion_functional,
                              trace_power, volume_functional)
from spectral_torsion import torsion
from spectral_torsion.sampling import (random_anti_hermitian_traceless, random_fraction,
                                       random_one_form, random_qqi, random_torsion)
from spectral_torsion.symcalc import compose, integrate_product, sphere_integrate
from spectral_torsion.torsion import (TORSION_KAPPA, _dirac_average, _dirac_square,
                                      _free_average, _held_words, _lead_on_words,
                                      _zero_order_symbol, dirac_symbol,
                                      first_order_symbol, inverse_power_symbol, lead_residue,
                                      residue_of_symbol, sphere_average)

from oracle import (CurvatureJet, FrameConnection, _half_cyclic_sum, averaged_potential,
                    cayley_rotation, composed_inverse_power, dirac_power,
                    jet_torsion_functional, levi_civita_from_structure, perturbation_residue,
                    random_contorsion, reference_lead_residue, rotate, signed_permutation,
                    torsion_cube)


def frame_triple(dim):
    return tuple(OneForm.frame(dim, a) for a in (1, 2, 3))


def _contorsion_draws():
    """Seeded random_contorsion draws, n = 3..5, sparse to dense."""
    for seed in range(60):
        rng = Random(900 + seed)
        yield random_contorsion(rng, 3 + seed % 3, sparsity=(0.05, 0.2, 0.7)[seed // 3 % 3])


def _full_sweep_inverse(tau):
    """Reference for torsion_from_contorsion: all n^3 components
    T_ijk = tau_ijk - tau_jik through get, the increasing keys kept, and the
    same round-trip refusal."""
    rng = range(1, tau.dim + 1)
    comp = {(i, j, k): tau.get(i, j, k) - tau.get(j, i, k)
            for i in rng for j in rng for k in rng}
    t = TorsionTensor(tau.dim, {key: v for key, v in comp.items() if key[0] < key[1] < key[2]})
    if contorsion_from_torsion(t) != tau:
        raise ValueError("contorsion does not yield a totally antisymmetric torsion")
    return t


def _totally_antisymmetric(tau) -> bool:
    """Independent test of tau = contorsion_from_torsion(T): for a totally
    antisymmetric T that sum is T / 2, so tau must itself be totally antisymmetric."""
    return all(tau.get(i, j, k) == -tau.get(j, i, k)
               for i, j, k in product(range(1, tau.dim + 1), repeat=3))


class TestTensors:
    def test_permutation_signs(self):
        t = TorsionTensor(4, {(1, 2, 3): Fraction(5)})
        assert t.get(1, 2, 3) == 5
        assert t.get(2, 1, 3) == -5
        assert t.get(3, 1, 2) == 5
        assert t.get(2, 3, 1) == 5
        assert t.get(1, 1, 2) == 0
        assert t.get(1, 2, 4) == 0

    def test_key_validation(self):
        # each class with two keys out of its canonical order: swapped, repeated
        for cls, message, swapped, repeated in (
                (TorsionTensor, "torsion key {} not strictly increasing in 1..3",
                 (2, 1, 3), (1, 1, 2)),
                (ContorsionTensor, "contorsion key {} must have 1 <= j < k <= 3",
                 (1, 3, 2), (1, 2, 2)),
                (FrameConnection, "structure key {} must have 1 <= i < j <= 3",
                 (2, 1, 3), (1, 1, 2))):
            for key in (swapped, repeated, (0, 1, 2), (1, 2, 4)):
                with pytest.raises(ValueError, match=re.escape(message.format(key))):
                    cls(3, {key: Fraction(1)})
            with pytest.raises(ValueError, match="values to unpack"):
                cls(3, {(1, 2): Fraction(1)})

    def test_non_integer_indices_rejected(self):
        # a float, a string or a bool index fails the key check, with its message
        for cls, message in ((TorsionTensor, "torsion key {} not strictly increasing in 1..3"),
                             (ContorsionTensor, "contorsion key {} must have 1 <= j < k <= 3"),
                             (FrameConnection, "structure key {} must have 1 <= i < j <= 3")):
            for key in ((1.5, 2, 3), ("1", 2, 3), (True, 2, 3), (1, 2, 3.0)):
                with pytest.raises(ValueError, match=re.escape(message.format(key))):
                    cls(3, {key: Fraction(1)})

    def test_contorsion_is_the_half_cyclic_sum(self):
        # the three keys written per stored T_abc against the sum over every key
        rng = Random(13)
        for dim in range(3, 8):
            for sparsity in (0.2, 0.6, 1.0):
                t = random_torsion(rng, dim, sparsity=sparsity)
                assert contorsion_from_torsion(t) == _half_cyclic_sum(t)
        assert contorsion_from_torsion(t).entries

    def test_contorsion_roundtrip(self):
        rng = Random(10)
        for dim in (3, 4, 5):
            for _ in range(5):
                t = random_torsion(rng, dim)
                assert torsion_from_contorsion(contorsion_from_torsion(t)) == t
        accepted = 0
        for tau in _contorsion_draws():
            # the totally antisymmetric part of a draw, which contorsion_from_torsion
            # gives for twice its components
            part = ContorsionTensor(tau.dim, {
                (i, j, k): (tau.get(i, j, k) + tau.get(j, k, i) + tau.get(k, i, j)) / 3
                for i, j, k in product(range(1, tau.dim + 1), repeat=3) if j < k})
            for x in (tau, part):
                if _totally_antisymmetric(x):
                    t = torsion_from_contorsion(x)
                    assert contorsion_from_torsion(t) == x
                    assert all(v == 2 * x.get(*key) for key, v in t.entries.items())
                    accepted += bool(t.entries)
        assert accepted

    def test_direct_inverse_matches_the_full_sweep(self):
        # the C(n,3) direct read accepts and refuses exactly the contorsions
        # the n^3 sweep does, and returns the same torsion
        rng = Random(12)
        cases = [ContorsionTensor(3, {(1, 1, 2): Fraction(1)}),
                 ContorsionTensor(3, {(2, 1, 3): Fraction(1)}),
                 ContorsionTensor(4, {})]
        cases += [contorsion_from_torsion(random_torsion(rng, dim)) for dim in (3, 4, 5)]
        cases += list(_contorsion_draws())
        outcomes = set()
        for tau in cases:
            try:
                want = _full_sweep_inverse(tau)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    torsion_from_contorsion(tau)
                outcomes.add("refused")
            else:
                assert torsion_from_contorsion(tau) == want
                outcomes.add("accepted" if want.entries else "zero")
        assert outcomes == {"accepted", "refused", "zero"}

    def test_non_totally_antisymmetric_rejected(self):
        # tau_{112} = 1 gives T_{ijk} antisymmetric in (i,j) but not totally
        tau = ContorsionTensor(3, {(1, 1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            torsion_from_contorsion(tau)
        # T_ijk = tau_ijk - tau_jik is antisymmetric in (i, j), with T_123 = -1
        # but T_132 = 0
        rejected = [ContorsionTensor(3, {(2, 1, 3): Fraction(1)})]
        rejected += [tau for tau in _contorsion_draws() if not _totally_antisymmetric(tau)]
        for tau in rejected:
            with pytest.raises(ValueError, match="not yield a totally antisymmetric"):
                torsion_from_contorsion(tau)

    @pytest.mark.parametrize("cls, anti", [
        (TorsionTensor, (0, 1, 2)), (ContorsionTensor, (1, 2)), (FrameConnection, (0, 1)),
    ], ids=["torsion", "contorsion", "structure"])
    def test_get_matches_parity_oracle(self, cls, anti):
        # anti: the index positions in which cls is antisymmetric
        dim = 4
        keys = [key for key in product(range(1, dim + 1), repeat=3)
                if all(key[p] < key[q] for p, q in zip(anti, anti[1:]))]
        tensor = cls(dim, {key: Fraction(n + 1) for n, key in enumerate(keys)})
        for key in product(range(1, dim + 1), repeat=3):
            values = [key[p] for p in anti]
            if len(set(values)) < len(values):
                assert tensor.get(*key) == 0, key
                continue
            want = []
            for perm in permutations(range(1, len(anti) + 1)):
                moved = list(key)
                for p, src in zip(anti, perm):
                    moved[p] = key[anti[src - 1]]
                if tuple(moved) in tensor.entries:
                    want.append(_epsilon(perm) * tensor.entries[tuple(moved)])
            assert len(want) == 1 and tensor.get(*key) == want[0], key

    def test_levi_civita_reproduces_structure(self):
        # torsion-free: om_{ijk} - om_{jik} = c_{ijk}
        rng = Random(12)
        entries = {}
        for i, j in ((1, 2), (1, 3), (2, 3)):
            for k in (1, 2, 3):
                f = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                if f:
                    entries[(i, j, k)] = f
        c = FrameConnection(3, entries)
        om = levi_civita_from_structure(c)
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    assert om.get(i, j, k) - om.get(j, i, k) == c.get(i, j, k)


class TestResidueValue:
    def test_pi_form(self):
        assert ResidueValue(qi(1), 4).pi_form() == (qi(2), 2)
        assert ResidueValue(qi(0, -6), 3).pi_form() == (qi(0, -24), 1)
        assert ResidueValue(qi(3), 6).pi_form() == (qi(3), 3)

    def test_equality_normalizes(self):
        assert ResidueValue(qi(1), 4) == ResidueValue(qi(1), 4)
        assert ResidueValue(qi(1), 4) != ResidueValue(qi(2), 4)

    def test_addition_and_scale(self):
        a = ResidueValue(qi(1), 4) + ResidueValue(qi(2), 4)
        assert a == ResidueValue(qi(3), 4)
        assert a.scale(qi(0, 1)) == ResidueValue(qi(0, 3), 4)
        with pytest.raises(ValueError):
            ResidueValue(qi(1), 4) + ResidueValue(qi(1), 3)

    def test_to_complex(self):
        import math
        v = ResidueValue(qi(0, -6), 4)
        assert math.isclose(v.to_complex().imag, -6 * 2 * math.pi ** 2)


class TestPipeline:
    def test_frame_anchor_n4(self):
        t = TorsionTensor(4, {(1, 2, 3): Fraction(1)})
        val = torsion_functional(*frame_triple(4), t, 4)
        assert val == ResidueValue(qi(0, -6), 4)
        assert val.pi_form() == (qi(0, -12), 2)

    def test_frame_anchor_n3(self):
        t = TorsionTensor(3, {(1, 2, 3): Fraction(1)})
        val = torsion_functional(*frame_triple(3), t, 3)
        assert val == ResidueValue(qi(0, -6), 3)
        assert val.pi_form() == (qi(0, -24), 1)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_contraction_form(self, dim):
        # the calculus always lands on coefficient * contraction * V
        rng = Random(100 + dim)
        for _ in range(3):
            t = random_torsion(rng, dim)
            u, v, w = (random_one_form(rng, dim) for _ in range(3))
            got = torsion_functional(u, v, w, t, dim)
            want = ResidueValue(pipeline_coefficient(dim)
                                * torsion_contraction(u, v, w, t), dim)
            assert got == want

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_matches_perturbation_oracle(self, dim):
        # independent route: explicit first-order symbol, no parametrix
        rng = Random(200 + dim)
        for _ in range(2):
            t = random_torsion(rng, dim)
            u, v, w = (random_one_form(rng, dim) for _ in range(3))
            assert torsion_functional(u, v, w, t, dim) == \
                perturbation_residue(u, v, w, t, dim)

    def test_closed_form_ratio(self):
        # the stated closed form carries -2^m i; the calculus produces
        # -3*2^(m-1) i, exactly 3/2 of it, on every non-degenerate input
        rng = Random(33)
        for dim in (3, 4):
            t = random_torsion(rng, dim)
            u, v, w = (random_one_form(rng, dim) for _ in range(3))
            closed = closed_form_torsion(u, v, w, t, dim)
            computed = torsion_functional(u, v, w, t, dim)
            assert computed == closed.scale(qi(Fraction(3, 2)))

    def test_closed_form_constant(self):
        for dim in (3, 4, 5, 6):
            m = trace_power(dim)
            t = random_torsion(Random(dim), dim)
            u, v, w = (random_one_form(Random(dim + 1), dim) for _ in range(3))
            want = ResidueValue(qi(0, -(2 ** m)) * torsion_contraction(u, v, w, t),
                                dim)
            assert closed_form_torsion(u, v, w, t, dim) == want

    def test_pipeline_coefficient_values(self):
        assert pipeline_coefficient(3) == qi(0, -6)
        assert pipeline_coefficient(4) == qi(0, -6)
        assert pipeline_coefficient(5) == qi(0, -12)
        assert pipeline_coefficient(6) == qi(0, -12)
        assert pipeline_coefficient(7) == qi(0, -24)
        assert pipeline_coefficient(8) == qi(0, -24)

    def test_vanishes_without_torsion(self):
        rng = Random(44)
        for dim in (3, 4):
            u, v, w = (random_one_form(rng, dim) for _ in range(3))
            assert torsion_functional(u, v, w, TorsionTensor.zero(dim), dim).is_zero()

    def test_single_component_detected(self):
        # one T_abc = 1 makes the (e^a, e^b, e^c) triple nonzero
        for dim in (3, 4):
            for key in ((1, 2, 3),) if dim == 3 else ((1, 2, 3), (1, 3, 4), (2, 3, 4)):
                t = TorsionTensor(dim, {key: Fraction(1)})
                forms = tuple(OneForm.frame(dim, a) for a in key)
                assert not torsion_functional(*forms, t, dim).is_zero()

    def test_antisymmetry_in_arguments(self):
        rng = Random(55)
        dim = 4
        t = random_torsion(rng, dim)
        u, v, w = (random_one_form(rng, dim) for _ in range(3))
        base = torsion_functional(u, v, w, t, dim)
        assert torsion_functional(v, u, w, t, dim) == base.scale(qi(-1))
        assert torsion_functional(w, v, u, t, dim) == base.scale(qi(-1))

    def test_linearity_in_torsion(self):
        dim = 4
        t1 = TorsionTensor(dim, {(1, 2, 3): Fraction(1)})
        t2 = TorsionTensor(dim, {(1, 2, 4): Fraction(1, 2)})
        tsum = TorsionTensor(dim, {(1, 2, 3): Fraction(1), (1, 2, 4): Fraction(1, 2)})
        u, v, w = (random_one_form(Random(66), dim) for _ in range(3))
        assert torsion_functional(u, v, w, tsum, dim) == \
            torsion_functional(u, v, w, t1, dim) + torsion_functional(u, v, w, t2, dim)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_curvature_yet_unseen(self, dim):
        # x-linear connection terms cannot reach the residue: value unchanged
        lam = Fraction(1, 2)
        riem = {}
        for a in range(1, dim + 1):
            for b in range(1, dim + 1):
                for c in range(1, dim + 1):
                    for d in range(1, dim + 1):
                        v = lam * (Fraction(int(a == c and b == d))
                                   - Fraction(int(a == d and b == c)))
                        if v:
                            riem[(a, b, c, d)] = v
        jet = CurvatureJet(dim, riem).spin_connection_linear()
        t = TorsionTensor(dim, {(1, 2, 3): Fraction(1)})
        u, v, w = frame_triple(dim)
        flat = torsion_functional(u, v, w, t, dim)
        curved = jet_torsion_functional(u, v, w, t, dim, jet)
        assert flat == curved

    def test_dimension_validation(self):
        t = TorsionTensor(4, {(1, 2, 3): Fraction(1)})
        u3 = OneForm.frame(3, 1)
        with pytest.raises(ValueError):
            torsion_functional(u3, u3, u3, t, 4)

    def test_float_connection_jet_rejected(self):
        # Fraction(0.1) kept the binary float exactly: 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="not an exact rational"):
            jet_torsion_functional(*frame_triple(3), TorsionTensor.zero(3), 3,
                                   {(1, 2, 3, 1): 0.1})


def _invariance_draws(dim: int):
    """(u, v, w, T) for a cyclic-band and a dense torsion, one-forms with
    nonzero QQi components."""
    rng = Random(2100 + dim)
    band = {tuple(sorted((a + k) % dim + 1 for k in range(3))) for a in range(dim)}
    for keys in (sorted(band), list(combinations(range(1, dim + 1), 3))):
        t = TorsionTensor(dim, {abc: random_fraction(rng, nonzero=True) for abc in keys})
        yield (*(OneForm(dim, tuple(random_qqi(rng, nonzero=True) for _ in range(dim)))
                 for _ in range(3)), t)


class TestInvariance:
    """torsion_functional contracts u^ v^ w^ with T, so it needs no constant to
    be checked: one orthogonal frame change on all four inputs, reflections
    included, leaves it unchanged, and it is totally antisymmetric in (u, v, w).
    Every value read is nonzero, so a fault that empties the average fails."""

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_signed_permutations(self, dim):
        rng = Random(2200 + dim)
        for u, v, w, t in _invariance_draws(dim):
            base = torsion_functional(u, v, w, t, dim)
            assert not base.is_zero()
            for det in (1, -1):
                perm = rng.sample(range(dim), dim)
                signs = [rng.choice((1, -1)) for _ in range(dim)]
                if _epsilon([p + 1 for p in perm]) * prod(signs) != det:
                    signs[0] = -signs[0]
                r = signed_permutation(perm, signs)
                assert torsion_functional(*(rotate(r, x) for x in (u, v, w, t)), dim) == base

    @pytest.mark.parametrize("dim", range(3, 7))
    def test_cayley_rotation(self, dim):
        rng = Random(2300 + dim)
        a = [[Fraction(0)] * dim for _ in range(dim)]
        for i, j in combinations(range(dim), 2):
            a[i][j] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            a[j][i] = -a[i][j]
        r = cayley_rotation(a)
        assert [[sum(x * y for x, y in zip(ri, rj)) for rj in r] for ri in r] == \
            [[int(i == j) for j in range(dim)] for i in range(dim)]
        for u, v, w, t in _invariance_draws(dim):
            base = torsion_functional(u, v, w, t, dim)
            assert not base.is_zero()
            turned = rotate(r, t)
            assert len(turned.entries) == comb(dim, 3)   # the rotated T is dense
            assert torsion_functional(rotate(r, u), rotate(r, v), rotate(r, w),
                                      turned, dim) == base

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_total_antisymmetry(self, dim):
        for *forms, t in _invariance_draws(dim):
            base = torsion_functional(*forms, t, dim)
            assert not base.is_zero()
            for perm in permutations(range(3)):
                assert torsion_functional(*(forms[p] for p in perm), t, dim) == \
                    base.scale(_epsilon([p + 1 for p in perm]))


class TestSharedResiduePath:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_matches_composed_reference(self, dim):
        # averaging the operator first must give exactly the residue of the
        # lead composed with the full operator symbol
        rng = Random(300 + dim)
        for _ in range(2 if dim <= 6 else 1):
            t = random_torsion(rng, dim, sparsity=1.0)
            u, v, w = (random_one_form(rng, dim) for _ in range(3))
            d = dirac_symbol(t, dim)
            lead = u.action() * v.action() * w.action()
            want = residue_of_symbol(compose(_zero_order_symbol(lead), dirac_power(d)), dim)
            assert not want.is_zero()
            assert lead_residue(lead, sphere_average(d, inverse_power_symbol(d))) == want
            assert torsion_functional(u, v, w, t, dim) == want

    def test_window_missing_minus_n_rejected(self):
        # D_T alone tracks degrees 1 and 0, so degree -4 is outside its window
        dim = 4
        op = dirac_symbol(TorsionTensor(dim, {(1, 2, 3): Fraction(1)}), dim)
        one = _zero_order_symbol(Multivector.scalar(dim, QQi(1)))
        message = r"degree -4 component not tracked \(leading 1, tracked 2\)"
        with pytest.raises(ValueError, match=message):
            sphere_average(op, one)
        with pytest.raises(ValueError, match=message):
            lead_residue(Multivector.scalar(dim, QQi(1)), op)

    def test_window_checked_on_the_factors(self):
        # (1 + g^1)(1 - g^1) = 0, so the product's degree -1 cancels and its
        # surviving leading degree -2 would admit -3, which compose never
        # computed from factors tracked at degrees (0) and (-1, -2)
        dim = 3
        g1 = Multivector.gamma(dim, 1)
        one = Multivector.scalar(dim, QQi(1))
        lead = one + g1
        averaged = SymbolSum(dim, {-1: HomogeneousSymbol.radial(dim, -1, one + g1.scale(-1)),
                                   -2: HomogeneousSymbol.radial(dim, -2, g1)})
        assert compose(_zero_order_symbol(lead), averaged).leading_degree == -2
        message = r"degree -3 component not tracked \(leading -1, tracked 2\)"
        with pytest.raises(ValueError, match=message):
            lead_residue(lead, averaged)


def _mixed_grade(rng: Random, dim: int, grades=None) -> Multivector:
    """Up to two random words of each grade (0..min(dim, 6) by default), random
    QQi coefficients."""
    terms = {}
    for k in range(min(dim, 6) + 1) if grades is None else grades:
        for _ in range(rng.randint(1, 2)):
            terms[tuple(sorted(rng.sample(range(1, dim + 1), k)))] = random_qqi(rng)
    return Multivector(dim, terms)


class TestGradeLaw:
    """For D = -g.xi + V the sphere average of the degree -n part of D |D|^{-n}
    is sum_k c_k(n) V_k (tests/oracle.py:averaged_potential), with or without
    an x-linear jet, which the average never sees."""

    @pytest.mark.parametrize("jet", [False, True], ids=["no-jet", "jet"])
    @pytest.mark.parametrize("dim", range(2, 17))
    def test_sphere_average_is_the_grade_law(self, dim, jet):
        rng = Random(700 + dim)
        v = _mixed_grade(rng, dim)
        potential = {0: v}
        if jet:
            potential[rng.randint(1, dim)] = _mixed_grade(rng, dim)
        d = first_order_symbol(dim, QQi(1), potential)
        got = sphere_average(d, inverse_power_symbol(d))
        want = HomogeneousSymbol.radial(dim, -dim, averaged_potential(v, dim))
        assert {d: h.terms for d, h in got.parts.items()} == \
            ({-dim: want.terms} if want else {})

    @pytest.mark.parametrize("dim", range(3, 13))
    def test_functional_reads_only_the_grade_three_part(self, dim):
        # W(u v w D |D|^{-n}) for D = -g.xi + V: the parts of V of grade 0, 1,
        # 2, 4 and 5 change nothing, and without a grade-3 part it is zero
        rng = Random(800 + dim)
        lead = random_one_form(rng, dim).action() * random_one_form(rng, dim).action() \
            * random_one_form(rng, dim).action()

        def functional(v: Multivector) -> ResidueValue:
            d = first_order_symbol(dim, QQi(1), {0: v})
            return lead_residue(lead, sphere_average(d, inverse_power_symbol(d)))
        grades = {k for k in (0, 1, 2, 4, 5) if k <= dim}
        v3, rest = _mixed_grade(rng, dim, (3,)), _mixed_grade(rng, dim, sorted(grades))
        assert {len(w) for w in rest.terms} == grades
        want = functional(v3)
        assert not want.is_zero()
        assert functional(v3 + rest) == want
        assert functional(rest).is_zero()

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_torsion_average_holds_grade_three_only(self, dim):
        # the rule _lead_on_words relies on: dense, cyclic-band and
        # random-density torsion averages hold grade-3 words alone
        rng = Random(850 + dim)
        band = {tuple(sorted((a + k) % dim + 1 for k in range(3))) for a in range(dim)}
        draws = [random_torsion(rng, dim, sparsity=1.0),
                 TorsionTensor(dim, {abc: random_fraction(rng, nonzero=True)
                                     for abc in band if len(abc) == len(set(abc))})]
        draws += [random_torsion(rng, dim, sparsity=rng.random()) for _ in range(3)]
        held = set()
        for t in draws:
            held |= _held_words(_dirac_average(dirac_symbol(t, dim)))
        assert {len(w) for w in held} == ({3} if dim >= 3 else set())

    def test_grade_law_coefficients(self):
        # 0 for k = 1, -2 for k = 3, -4 for k = 5, -(n - k - 1) for even k
        dim = 9
        for k, c in ((0, 1 - dim), (1, 0), (2, 3 - dim), (3, -2), (4, 5 - dim), (5, -4)):
            word = tuple(range(1, k + 1))
            assert averaged_potential(Multivector(dim, {word: QQi(1)}), dim).terms == \
                ({word: QQi(c)} if c else {})


def _dirac_draws(dim: int):
    """(d, ring one): QQi Dirac symbols with a mixed-grade potential, without and
    with an x-linear jet, and for even n the EYM symbol over MatrixQQ."""
    rng = Random(1100 + dim)
    out = []
    for jet in (False, True):
        potential = {0: _mixed_grade(rng, dim)}
        for s in rng.sample(range(1, dim + 1), min(2, dim)) if jet else ():
            potential[s] = _mixed_grade(rng, dim)
        out.append((first_order_symbol(dim, QQi(1), potential), QQi(1)))
    if dim % 2 == 0:
        model = EymModel(dim, 2, tuple(random_anti_hermitian_traceless(rng, 2)
                                       for _ in range(dim)))
        out.append((eym_dirac_symbol(model), MatrixQQ.identity(4)))
    return out


def _parts(sym):
    return {d: h.terms for d, h in sym.parts.items()}


class TestWrittenDownProducts:
    """D^2 written down, and the sphere average of a product in one pass, each
    exactly equal to the composed form it replaces."""

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_square_is_compose(self, dim):
        for d, _ in _dirac_draws(dim):
            assert _parts(_dirac_square(d)) == _parts(compose(d, d))

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_square_forms_no_product(self, dim, monkeypatch):
        # each g^j w is read from the word table, over QQi and MatrixQQ alike
        draws = _dirac_draws(dim)
        mul, calls = Multivector.__mul__, []

        def spy(a, b):
            calls.append(1)
            return mul(a, b)
        monkeypatch.setattr(Multivector, "__mul__", spy)
        for d, _ in draws:
            assert _dirac_square(d).parts[1]
        assert calls == []

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_one_pass_average_is_the_composed_integral(self, dim):
        # the program's pairs (D and the lead against |D|^{-n}), the reversed
        # pair, and D |D|^{-n} against the potential, whose x-linear jet takes
        # the first-order correction
        rng = Random(1200 + dim)
        nonzero = 0
        for d, one in _dirac_draws(dim):
            power = inverse_power_symbol(d)
            lead = _zero_order_symbol(_mixed_grade(rng, dim) * Multivector.scalar(dim, one))
            for a, b in ((d, power), (lead, power), (power, d),
                         (dirac_power(d), SymbolSum(dim, {0: d.component(0)}))):
                want = sphere_integrate(compose(a, b).component(-dim))
                assert integrate_product(a, b) == want
                nonzero += bool(want)
        assert nonzero

    def test_average_forms_only_the_products_that_survive(self, monkeypatch):
        # compose(d, P) forms the n x n products of g^j xi_j with P's xi_k terms;
        # only the n with j = k have a nonzero sphere moment
        dim = 8
        d = dirac_symbol(random_torsion(Random(1300), dim, sparsity=1.0), dim)
        power = inverse_power_symbol(d)
        mul, calls = Multivector.__mul__, []

        def spy(a, b):
            calls.append(1)
            return mul(a, b)
        monkeypatch.setattr(Multivector, "__mul__", spy)
        compose(d, power)
        assert len(calls) == dim * dim
        calls.clear()
        integrate_product(d, power)
        assert len(calls) == dim

    @pytest.mark.parametrize("dim", range(3, 10, 2))
    def test_odd_power_is_the_composed_power(self, dim):
        # |D|^{-n} as the n-th negative power of sqrt(D^2), against the
        # ((n-1)/2)-th power of D^2 composed with the parametrix of sqrt(D^2)
        for d, _ in _dirac_draws(dim):
            assert _parts(inverse_power_symbol(d)) == _parts(composed_inverse_power(d))

    def test_square_refuses_other_spellings(self):
        dim = 3
        d = dirac_symbol(TorsionTensor(dim, {(1, 2, 3): Fraction(1)}), dim)
        lead, potential = d.parts[1], d.parts[0]
        g1, g2 = Multivector.gamma(dim, 1), Multivector.gamma(dim, 2)
        e1 = (1, 0, 0)
        for bad in (
                {**lead.terms, ((0,) * dim, 1, 0): g1},       # a radial ||xi|| g^1 term
                {**lead.terms, (e1, 0, 0): g1.scale(-2)},     # one coefficient differs
                {k: v.scale(2) for k, v in lead.terms.items()},   # -2 g^j, not -g^j
                {**lead.terms, (e1, 0, 0): g2.scale(-1)},     # g^2 on xi_1
                {**lead.terms, (e1, 0, 2): g1},               # an x-linear lead term
                {k: v for k, v in lead.terms.items() if k[0] != e1}):   # xi_1 missing
            with pytest.raises(ValueError, match="leading part is not -g"):
                inverse_power_symbol(SymbolSum(dim, {1: HomogeneousSymbol(dim, 1, bad),
                                                     0: potential}))
        xi_term = potential + HomogeneousSymbol(dim, 0, {(e1, -1, 0): g1})
        with pytest.raises(ValueError, match="degree-0 term depends on xi"):
            inverse_power_symbol(SymbolSum(dim, {1: lead, 0: xi_term}))
        for other in (compose(d, d), SymbolSum(dim, {0: potential}),
                      SymbolSum(dim, {1: lead, -1: HomogeneousSymbol.radial(dim, -1, g1)})):
            with pytest.raises(ValueError, match="not first order"):
                inverse_power_symbol(other)

    def test_untracked_degree_refused(self):
        # D D tracks degrees 2 and 1, so degree -3 is outside its window
        dim = 3
        d = dirac_symbol(TorsionTensor(dim, {(1, 2, 3): Fraction(1)}), dim)
        message = r"degree -3 component not tracked \(leading 2, tracked 2\)"
        with pytest.raises(ValueError, match=message):
            integrate_product(d, d)
        with pytest.raises(ValueError, match=message):
            sphere_average(d, d)


def _matrix_grade(rng: Random, dim: int) -> Multivector:
    """_mixed_grade's words with random 2x2 MatrixQQ coefficients."""
    return Multivector(dim, {w: MatrixQQ.from_rows([[random_qqi(rng) for _ in range(2)]
                                                    for _ in range(2)])
                             for w in _mixed_grade(rng, dim).terms})


class TestLeadCut:
    """lead_residue composes only the lead words the averaged symbol holds, and
    equals the residue with the whole lead composed (reference_lead_residue)."""

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_matches_the_whole_lead(self, dim):
        rng = Random(1400 + dim)
        nonzero = 0
        for d, one in _dirac_draws(dim):
            averaged = _dirac_average(d)
            for _ in range(3):
                lead = _mixed_grade(rng, dim) * Multivector.scalar(dim, one)
                want = reference_lead_residue(lead, averaged)
                assert lead_residue(lead, averaged) == want
                nonzero += not want.is_zero()
        assert nonzero

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_every_term_of_the_average_is_read(self, dim):
        # a hand-built averaged symbol with a radial term, a xi_1^2 term and an
        # x-linear term at degree -n, and a term at degree -n + 1: the words
        # held by any of them are kept, whichever term the trace reads
        rng = Random(1450 + dim)
        sq = (2,) + (0,) * (dim - 1)
        averaged = SymbolSum(dim, {
            -dim: HomogeneousSymbol(dim, -dim, {
                ((0,) * dim, -dim, 0): _mixed_grade(rng, dim, (1, 3)),
                (sq, -dim - 2, 0): _mixed_grade(rng, dim, (0, 2)),
                ((0,) * dim, -dim, 1): _mixed_grade(rng, dim)}),
            1 - dim: HomogeneousSymbol.radial(dim, 1 - dim, _mixed_grade(rng, dim))})
        for _ in range(4):
            lead = _mixed_grade(rng, dim)
            want = reference_lead_residue(lead, averaged)
            assert not want.is_zero()
            assert lead_residue(lead, averaged) == want

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matrix_coefficients(self, dim):
        # every EYM average is empty, so a nonzero MatrixQQ one is built directly
        rng = Random(1500 + dim)
        d = first_order_symbol(dim, MatrixQQ.identity(2), {0: _matrix_grade(rng, dim)})
        averaged = _dirac_average(d)
        assert averaged.parts
        nonzero = 0
        for _ in range(3):
            lead = _matrix_grade(rng, dim)
            want = reference_lead_residue(lead, averaged)
            assert lead_residue(lead, averaged) == want
            nonzero += not want.is_zero()
        assert nonzero

    def test_lead_sharing_no_word_is_zero(self, monkeypatch):
        dim = 5
        rng = Random(1600)
        d = first_order_symbol(dim, QQi(1), {0: _mixed_grade(rng, dim)})
        averaged = _dirac_average(d)
        (held,) = (mv for h in averaged.parts.values() for mv in h.terms.values())
        words = (w for k in range(dim + 1) for w in combinations(range(1, dim + 1), k))
        lead = Multivector(dim, {w: random_qqi(rng, nonzero=True)
                                 for w in words if w not in held.terms})
        assert held and lead
        assert reference_lead_residue(lead, averaged).is_zero()
        mul, calls = Multivector.__mul__, []

        def spy(a, b):
            calls.append(1)
            return mul(a, b)
        monkeypatch.setattr(Multivector, "__mul__", spy)
        assert lead_residue(lead, averaged) == ResidueValue(QQi(), dim)
        assert not calls

    @pytest.mark.parametrize("dim", [3, 4])
    def test_empty_average_passes_the_lead_whole(self, dim, monkeypatch):
        averaged = _dirac_average(dirac_symbol(TorsionTensor.zero(dim), dim))
        assert not averaged.parts
        lead = _mixed_grade(Random(1700 + dim), dim)
        seen = []

        def spy(a, b):
            seen.append(a)
            return compose(a, b)
        monkeypatch.setattr(torsion, "compose", spy)
        assert lead_residue(lead, averaged) == ResidueValue(QQi(), dim)
        (a,) = seen
        assert a.parts[0].terms == {((0,) * dim, 0, 0): lead}

    def test_other_dimension_refused(self):
        dim = 4
        rng = Random(1800)
        d = first_order_symbol(dim, QQi(1), {0: _mixed_grade(rng, dim)})
        averaged = _dirac_average(d)
        empty = _dirac_average(dirac_symbol(TorsionTensor.zero(dim), dim))
        for other in (dim - 1, dim + 1):
            for avg in (averaged, empty):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    lead_residue(_mixed_grade(rng, other), avg)

    def test_lead_product_forms_only_the_held_pairs(self, monkeypatch):
        # at n = 8 with cyclic-band torsion the average holds the 8 band words
        # and the lead u v w its 8 + 56 words of grade 1 and 3; only the 8 band
        # words of the lead are multiplied, 8 x 8 word pairs, not 64 x 8
        dim = 8
        rng = Random(1900)
        band = {tuple(sorted((a + k) % dim + 1 for k in range(3))) for a in range(dim)}
        t = TorsionTensor(dim, {abc: random_fraction(rng, nonzero=True) for abc in band})
        u, v, w = (OneForm(dim, tuple(random_fraction(rng, nonzero=True) for _ in range(dim)))
                   for _ in range(3))
        lead = u.action() * v.action() * w.action()
        d = dirac_symbol(t, dim)
        averaged = _dirac_average(d)
        (held,) = (mv for h in averaged.parts.values() for mv in h.terms.values())
        assert set(held.terms) == band
        assert len(lead.terms) == dim + len(list(combinations(range(dim), 3))) == 64
        want = reference_lead_residue(lead, averaged)
        assert not want.is_zero()
        mul, pairs = Multivector.__mul__, []

        def spy(a, b):
            pairs.append(len(a.terms) * len(b.terms))
            return mul(a, b)
        monkeypatch.setattr(Multivector, "__mul__", spy)
        assert lead_residue(lead, averaged) == want
        assert pairs == [dim * dim]


@st.composite
def _forms_and_words(draw):
    """Three one-forms with complex components over mixed denominators, zeros
    included, and a set of canonical words of grade 3."""
    dim = draw(st.integers(3, 10))
    part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 6, 9)))
    comp = st.one_of(st.just(QQi()), st.builds(QQi, part), st.builds(QQi, part, part))
    forms = [OneForm(dim, tuple(draw(st.lists(comp, min_size=dim, max_size=dim))))
             for _ in range(3)]
    words = draw(st.sets(st.sampled_from(list(combinations(range(1, dim + 1), 3))),
                         max_size=24))
    return forms, words


class TestLeadOnWords:
    """torsion_functional forms the lead u v w only on the words the average
    holds, all of grade 3, from minors of the one-forms."""

    @settings(max_examples=120, deadline=None)
    @given(_forms_and_words())
    def test_matches_the_product_on_the_words(self, case):
        (u, v, w), words = case
        full = u.action() * v.action() * w.action()
        got = _lead_on_words(u, v, w, words)
        assert got.dim == u.dim
        assert got.terms == {word: c for word, c in full.terms.items() if word in words}

    @pytest.mark.parametrize("dim", range(3, 11))
    def test_grade_one_and_three_words_give_the_whole_product(self, dim):
        # u v w holds words of grades 1 and 3; on every word of grade 3 the
        # lead is the product's grade-3 part, and a grade-1 word is refused
        rng = Random(1920 + dim)
        words = list(combinations(range(1, dim + 1), 3))
        for _ in range(3):
            u, v, w = (OneForm(dim, tuple(random_qqi(rng) for _ in range(dim)))
                       for _ in range(3))
            full = u.action() * v.action() * w.action()
            assert {len(word) for word in full.terms} == {1, 3}
            assert _lead_on_words(u, v, w, words).terms == \
                {word: c for word, c in full.terms.items() if len(word) == 3}
            with pytest.raises(ValueError, match="grade-3 words only"):
                _lead_on_words(u, v, w, words + [(1,)])

    @pytest.mark.parametrize("grade", [0, 1, 2, 4])
    def test_other_grades_refused(self, grade):
        u, v, w = frame_triple(5)
        word = tuple(range(1, grade + 1))
        for words in ([word], [(1, 2, 3), word]):
            with pytest.raises(ValueError, match="grade-3 words only"):
                _lead_on_words(u, v, w, words)

    def test_band_call_forms_no_one_form_product(self, monkeypatch):
        # an n = 8 cyclic-band call: the 8 products of the average (one gamma
        # times the 3 band words holding it) and one 8 x 8 lead compose, none
        # in the square, and no product with a one-form action as a factor
        dim = 8
        rng = Random(1950)
        band = {tuple(sorted((a + k) % dim + 1 for k in range(3))) for a in range(dim)}
        t = TorsionTensor(dim, {abc: random_fraction(rng, nonzero=True) for abc in band})
        u, v, w = (OneForm(dim, tuple(random_fraction(rng, nonzero=True) for _ in range(dim)))
                   for _ in range(3))
        actions = [f.action() for f in (u, v, w)]
        want = reference_lead_residue(actions[0] * actions[1] * actions[2],
                                      _dirac_average(dirac_symbol(t, dim)))
        assert not want.is_zero()
        mul, pairs, factors = Multivector.__mul__, [], []

        def spy(a, b):
            if isinstance(b, Multivector):
                pairs.append((len(a.terms), len(b.terms)))
                factors.extend((a, b))
            return mul(a, b)
        monkeypatch.setattr(Multivector, "__mul__", spy)
        assert torsion_functional(u, v, w, t, dim) == want
        assert pairs == [(1, 3)] * 8 + [(dim, dim)]
        assert not [f for f in factors if f in actions]


class TestKernels:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_torsion_cube_matches_oracle(self, dim):
        # dirac_symbol's closed form -6i kappa T_abc g^abc against -i kappa
        # times one triple product per ordering
        t = random_torsion(Random(400 + dim), dim, sparsity=1.0)
        assert t.entries
        potential = dirac_symbol(t, dim).parts[0].terms[((0,) * dim, 0, 0)]
        assert potential == torsion_cube(t).scale(qi(0, -TORSION_KAPPA))

    def test_dirac_potential_is_minus_i_kappa_times_the_cube(self):
        # the default convention D_T = D - (i/8) T_jkl g^j g^k g^l
        assert TORSION_KAPPA == Fraction(1, 8)
        dim = 5
        t = random_torsion(Random(450), dim, sparsity=1.0)
        potential = dirac_symbol(t, dim).parts[0].terms[((0,) * dim, 0, 0)]
        assert potential == torsion_cube(t).scale(qi(0, Fraction(-1, 8)))

    @pytest.mark.parametrize("dim,sparsity", [(n, s) for n in range(3, 9) for s in (1.0, 0.5)]
                             + [(10, 1.0)])
    def test_contraction_matches_full_sum(self, dim, sparsity):
        # the stored-entry minor sum against the n^3 sum over t.get
        rng = Random(500 + dim + int(10 * sparsity))
        seen_nonzero = False
        for _ in range(1 if dim > 8 else 3):
            t = random_torsion(rng, dim, sparsity=sparsity)
            u, v, w = (OneForm(dim, tuple(random_qqi(rng) for _ in range(dim)))
                       for _ in range(3))
            want = qi(0)
            for a in range(1, dim + 1):
                for b in range(1, dim + 1):
                    for c in range(1, dim + 1):
                        want = want + (u.components[a - 1] * v.components[b - 1]
                                       * w.components[c - 1] * t.get(a, b, c))
            assert torsion_contraction(u, v, w, t) == want
            seen_nonzero = seen_nonzero or bool(want)
        assert seen_nonzero


def _epsilon(perm) -> int:
    seen = list(perm)
    sign = 1
    for i in range(len(seen)):
        while seen[i] != i + 1:
            j = seen[i] - 1
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return sign


class TestChirality:
    def test_frame_anchor(self):
        t = TorsionTensor(4, {(1, 2, 3): Fraction(1)})
        assert chirality_functional(OneForm.frame(4, 4), t) == \
            ResidueValue(qi(0, 6), 4)

    def test_orthogonal_direction_vanishes(self):
        t = TorsionTensor(4, {(1, 2, 3): Fraction(1)})
        assert chirality_functional(OneForm.frame(4, 1), t).is_zero()

    def test_epsilon_contraction_formula(self):
        rng = Random(77)
        for _ in range(5):
            t = random_torsion(rng, 4)
            u = random_one_form(rng, 4)
            total = qi(0)
            for p in permutations((1, 2, 3, 4)):
                a, j, k, l = p
                total = total + u.components[a - 1] * (_epsilon(p) * t.get(j, k, l))
            assert chirality_functional(u, t) == ResidueValue(total * qi(0, -1), 4)

    def test_dimension_must_be_four(self):
        t = TorsionTensor(6, {(1, 2, 3): Fraction(1)})
        with pytest.raises(ValueError):
            chirality_functional(OneForm.frame(6, 1), t)


class TestFreeAverage:
    @pytest.mark.parametrize("dim", range(2, 11))
    def test_matches_the_inline_build(self, dim):
        # P = 1 (the metric and volume functionals) at every n, and P = chi
        # (the doubled evaluator) at even n, against sphere_average spelled out
        power = inverse_power_symbol(dirac_symbol(TorsionTensor.zero(dim), dim))
        leads = [Multivector.scalar(dim, QQi(1))] + ([chirality(dim)] if dim % 2 == 0 else [])
        for p in leads:
            want = sphere_average(_zero_order_symbol(p), power)
            assert want.parts
            assert _parts(_free_average(p)) == _parts(want)


class TestClosedness:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_torsion_free_dirac_is_spectrally_closed(self, dim):
        from test_clifford import _random_multivector
        rng = Random(88)
        for _ in range(10):
            p = _random_multivector(rng, dim, terms=4)
            assert spectral_closedness_check(p).is_zero()


class TestMetricVolume:
    def test_metric_values(self):
        u = OneForm(4, (Fraction(1), Fraction(2), Fraction(0), Fraction(-1)))
        v = OneForm(4, (Fraction(3), Fraction(0), Fraction(1), Fraction(2)))
        inner = sum((a * b for a, b in zip(u.components, v.components)), qi(0))
        assert metric_functional(u, v, 4) == ResidueValue(inner * qi(4), 4)

    def test_metric_symmetric(self):
        rng = Random(99)
        u, v = random_one_form(rng, 6), random_one_form(rng, 6)
        assert metric_functional(u, v, 6) == metric_functional(v, u, 6)

    def test_frame_orthonormality(self):
        for a in range(1, 5):
            for b in range(1, 5):
                got = metric_functional(OneForm.frame(4, a), OneForm.frame(4, b), 4)
                want = ResidueValue(qi(4 if a == b else 0), 4)
                assert got == want

    def test_volume_scales(self):
        assert volume_functional(qi(1), 4) == ResidueValue(qi(4), 4)
        assert volume_functional(qi(Fraction(1, 2), 1), 6) == \
            ResidueValue(qi(4, 8), 6)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            volume_functional(qi(1), 3)
