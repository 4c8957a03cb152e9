"""Acceptance suite: one test per stated criterion, run at the stated sizes.

Each test prints a single line `ACCEPTANCE k: PASS|FAIL - detail`; pytest -v
adds its own verdict per test.  Criterion 1 is implemented exactly as stated
and currently fails: the symbol calculus reproducibly yields 3/2 times the
stated closed-form constant (see the failure message for the full analysis).
"""
from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from spectral_torsion import (
    DoubledEvaluator,
    DoubledOneForm,
    EymModel,
    MatrixOneForm,
    MatrixQQ,
    OneForm,
    QuantumDiscElement,
    ResidueValue,
    Suq2DiracSpec,
    TorsionTensor,
    adjoint_trace,
    clifford_trace,
    closed_form_torsion,
    doubled_torsion_free_test,
    eym_torsion_density,
    metric_functional,
    moment,
    qi,
    random_anti_hermitian_traceless,
    random_one_form,
    random_theta,
    random_torsion,
    random_torus_h,
    spectral_closedness_check,
    suq2_paired_combination,
    suq2_residue_cancellation,
    torsion_contraction,
    torsion_functional,
    torus_trace_identity,
    volume_functional,
    zstar_z,
)
from oracle import (GammaWord, canonicalize, mc_sphere_average, multivector_matrix,
                    perturbation_residue, sphere_batch, word_matrix)
from test_clifford import _random_multivector


def _line(k: int, ok: bool, detail: str) -> str:
    msg = f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(msg)
    return msg


def test_criterion_01_closed_form_equality():
    """Exact equality of the computed functional with the stated closed form,
    20 seeded rational draws per dimension n in {3,4,5,6}, plus frame anchors."""
    t0 = time.perf_counter()
    total = 0
    mismatched = []
    ratio_uniform = True
    for dim in (3, 4, 5, 6):
        rng = Random(101 + dim)
        for trial in range(20):
            t = random_torsion(rng, dim)
            u = random_one_form(rng, dim)
            v = random_one_form(rng, dim)
            w = random_one_form(rng, dim)
            computed = torsion_functional(u, v, w, t, dim)
            stated = closed_form_torsion(u, v, w, t, dim)
            total += 1
            if computed != stated:
                mismatched.append((dim, trial, str(stated), str(computed)))
                if computed != stated.scale(Fraction(3, 2)):
                    ratio_uniform = False
            elif not torsion_contraction(u, v, w, t):
                pass  # zero contraction: both sides are zero, nothing to compare
            else:
                ratio_uniform = False

    anchors = []
    t4 = TorsionTensor(4, {(1, 2, 3): Fraction(1)})
    u4, v4, w4 = (OneForm.frame(4, a) for a in (1, 2, 3))
    got4 = torsion_functional(u4, v4, w4, t4, 4)
    want4 = ResidueValue(qi(0, -4), 4)  # -4i V(S^3)
    assert closed_form_torsion(u4, v4, w4, t4, 4) == want4
    if got4 != want4:
        anchors.append(f"n=4 frame: computed {got4}, stated {want4}")
    t3 = TorsionTensor(3, {(1, 2, 3): Fraction(1)})
    u3, v3, w3 = (OneForm.frame(3, a) for a in (1, 2, 3))
    got3 = torsion_functional(u3, v3, w3, t3, 3)
    want3 = ResidueValue(qi(0, -4), 3)  # -4i V(S^2) = -16 pi i
    assert closed_form_torsion(u3, v3, w3, t3, 3) == want3
    if got3 != want3:
        anchors.append(f"n=3 frame: computed {got3}, stated {want3}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"

    if not mismatched and not anchors:
        _line(1, True, f"{total} draws + anchors exact, {elapsed:.1f}s")
        return

    # independent confirmation before reporting: a direct first-order
    # expansion of the residue (no parametrix, no composition; tests/oracle.py)
    # must agree with the pipeline on every mismatched draw
    oracle_agrees = True
    for dim in (3, 4, 5, 6):
        rng = Random(101 + dim)
        for _ in range(20):
            t = random_torsion(rng, dim)
            u = random_one_form(rng, dim)
            v = random_one_form(rng, dim)
            w = random_one_form(rng, dim)
            if perturbation_residue(u, v, w, t, dim) != \
                    torsion_functional(u, v, w, t, dim):
                oracle_agrees = False
    sample = "; ".join(f"n={d} trial {i}: stated {s}, computed {c}"
                       for d, i, s, c in mismatched[:2])
    msg = _line(
        1, False,
        f"{len(mismatched)}/{total} draws differ from the stated closed form "
        f"(every draw with nonzero contraction), plus both frame anchors")
    pytest.fail(
        msg + "\n\n"
        "Analysis: the computed functional always equals\n"
        "    c_n * (sum_{a<b<c} u_a v_b w_c T_abc, antisymmetrized) * V(S^(n-1))\n"
        "with c_n = -3 * 2^(m-1) * i, m = (n+1)//2 (so -6i for n=3,4 and -12i\n"
        "for n=5,6), while the stated closed form carries c_n = -2^m * i (-4i\n"
        "and -8i respectively).  The two differ by exactly 3/2 on every draw\n"
        f"with nonzero contraction (ratio uniform: {ratio_uniform}), and agree\n"
        "exactly whenever the contraction vanishes, so the discrepancy is the\n"
        "scalar constant, not the tensor shape.  An independent first-order\n"
        "expansion of the residue that bypasses the parametrix entirely\n"
        f"(tests/oracle.py:perturbation_residue) agrees with the pipeline on\n"
        f"every draw (oracle agrees: {oracle_agrees}).  Anchors: the n=4 frame\n"
        f"triple computes to {got4} against the stated -4i V(S^3); the n=3\n"
        f"frame triple computes to {got3} (-24 pi i) against the stated\n"
        f"-16 pi i.  Example draws: {sample}.\n"
        "The pipeline constant itself is stable and separately verified: see\n"
        "pipeline_coefficient() and the 'pipeline-constant' records emitted by\n"
        "the verify command.",
        pytrace=False)


def test_criterion_02_torsion_detection():
    """T = 0 gives zero on all frame triples; any single T_abc = 1 is detected
    on its own frame triple, for n in {3,4}."""
    for dim in (3, 4):
        zero_t = TorsionTensor.zero(dim)
        for a, b, c in product(range(1, dim + 1), repeat=3):
            val = torsion_functional(OneForm.frame(dim, a), OneForm.frame(dim, b),
                                     OneForm.frame(dim, c), zero_t, dim)
            assert val.is_zero(), f"n={dim} frame ({a},{b},{c}) nonzero at T=0"
        for a, b, c in combinations(range(1, dim + 1), 3):
            t = TorsionTensor(dim, {(a, b, c): Fraction(1)})
            val = torsion_functional(OneForm.frame(dim, a), OneForm.frame(dim, b),
                                     OneForm.frame(dim, c), t, dim)
            assert not val.is_zero(), f"n={dim} T_{a}{b}{c}=1 not detected"
    _line(2, True, "T=0 vanishes on all frame triples; each single "
                   "component detected, n=3,4")


def test_criterion_03_clifford_matrix_oracle():
    """canonicalize, products and the trace against explicit Pauli tensor-product gamma
    matrices: 200 random words of length <= 8 for n in {2,4,6}."""
    for dim in (2, 4, 6):
        rng = Random(300 + dim)
        for _ in range(200):
            word = tuple(rng.randint(1, dim) for _ in range(rng.randint(0, 8)))
            mv = canonicalize(GammaWord(word), dim)
            mat = word_matrix(dim, word)
            assert multivector_matrix(mv) == mat
            assert clifford_trace(mv) == mat.trace()
            k = len(word) // 2
            left = canonicalize(GammaWord(word[:k]), dim)
            right = canonicalize(GammaWord(word[k:]), dim)
            assert left * right == mv
    _line(3, True, "600 words match the gamma-matrix oracle exactly (n=2,4,6)")


def test_criterion_04_sphere_moments():
    """Pairing-formula moments vs 10^6-point Monte-Carlo within 1e-2 relative
    on 20 random even monomials per n in {3,4,5,6}; exact degree-2 pairing."""
    worst = 0.0
    for dim in (3, 4, 5, 6):
        batch = sphere_batch(dim, 10 ** 6, seed=40 + dim)
        rng = Random(40 + dim)
        for _ in range(20):
            alpha = [0] * dim
            for _ in range(rng.randint(1, 4)):
                alpha[rng.randrange(dim)] += 2
            exact = float(moment(tuple(alpha), dim))
            mc = mc_sphere_average(batch, tuple(alpha))
            rel = abs(mc - exact) / exact
            worst = max(worst, rel)
            assert rel < 1e-2, f"n={dim} alpha={alpha}: rel err {rel:.2e}"
        # exact pairing: the sphere average of xi_j xi_k is delta_jk / n
        for j in range(dim):
            for k in range(dim):
                alpha = [0] * dim
                alpha[j] += 1
                alpha[k] += 1
                want = Fraction(1, dim) if j == k else Fraction(0)
                assert moment(tuple(alpha), dim) == want
    _line(4, True, f"80 even monomials within 1e-2 of MC (worst {worst:.1e}); "
                   "degree-2 pairing exact")


def test_criterion_05_spectral_closedness():
    """W(P D |D|^-n) = 0 exactly for 100 random zero-order P, n in {3,4}."""
    for dim in (3, 4):
        rng = Random(500 + dim)
        for i in range(100):
            p = _random_multivector(rng, dim, terms=4)
            val = spectral_closedness_check(p)
            assert val.is_zero(), f"n={dim} P#{i}: residue {val}"
    _line(5, True, "200 random zero-order sections give exact zero (n=3,4)")


def test_criterion_06_eym_cancellation():
    """Adjoint-representation trace vanishes on every matrix unit for N <= 6;
    the gauge torsion density is exactly zero for random models."""
    for size in range(1, 7):
        for mu in range(size):
            for nu in range(size):
                assert adjoint_trace(MatrixQQ.unit(size, mu, nu)) == qi(0)
    rng = Random(60)
    for dim in (2, 4):
        for size in (2, 3):
            for trial in range(3):
                gauge = tuple(random_anti_hermitian_traceless(rng, size)
                              for _ in range(dim))
                model = EymModel(dim, size, gauge)
                forms = [MatrixOneForm(dim, tuple(
                    random_anti_hermitian_traceless(rng, size)
                    for _ in range(dim))) for _ in range(3)]
                val = eym_torsion_density(model, *forms)
                assert val == ResidueValue(qi(0), dim), \
                    f"n={dim} N={size} trial {trial}: {val}"
    _line(6, True, "ad-trace zero on all units N<=6; density zero for "
                   "12 random models (n=2,4; N=2,3)")


def test_criterion_07_doubled_space():
    """Four-case table for products of three doubled one-forms, and the
    torsion-free test true exactly when the linking scalar vanishes."""
    rng = Random(70)
    for dim in (2, 4):
        ev = DoubledEvaluator(dim)
        for phi in (qi(1), qi(1, 2), qi(Fraction(-1, 2), Fraction(1, 3))):
            w1p, w1m, w2p, w2m, w3p, w3m = (random_one_form(rng, dim)
                                            for _ in range(6))
            f1p, f1m = qi(Fraction(1, 2)), qi(2)
            f2p, f2m = qi(1), qi(Fraction(-1, 3))
            f3p, f3m = qi(3), qi(1)
            d1 = DoubledOneForm.diagonal(w1p, w1m, phi)
            d2 = DoubledOneForm.diagonal(w2p, w2m, phi)
            d3 = DoubledOneForm.diagonal(w3p, w3m, phi)
            o1 = DoubledOneForm.off_diagonal(dim, f1p, f1m, phi)
            o2 = DoubledOneForm.off_diagonal(dim, f2p, f2m, phi)
            o3 = DoubledOneForm.off_diagonal(dim, f3p, f3m, phi)
            zero = ResidueValue(qi(0), dim)
            assert ev.residue(d1, d2, d3) == zero
            want2 = (metric_functional(w1p, w2p, dim).scale(f3p)
                     + metric_functional(w1m, w2m, dim).scale(f3m)) \
                .scale(phi.abs2())
            assert ev.residue(d1, d2, o3) == want2
            assert ev.residue(d1, o2, o3) == zero
            want4 = volume_functional(f1p * f2m * f3p + f1m * f2p * f3m,
                                      dim).scale(phi.abs2() ** 2)
            assert ev.residue(o1, o2, o3) == want4
        assert doubled_torsion_free_test(ev, qi(0)) is True
        assert doubled_torsion_free_test(ev, qi(1)) is False
        assert doubled_torsion_free_test(ev, qi(0, Fraction(1, 5))) is False
    _line(7, True, "four-case table exact for 6 (dim, phi) combinations; "
                   "torsion-free iff phi=0")


def test_criterion_08_torus_trace_identity():
    """tau(k^a delta_j(k) k^b) vanishes through order K=6: 10 random h with
    <= 4 Fourier modes, four (a,b) pairs, every derivation, n in {2,3}."""
    pairs = ((1, 0), (0, -1), (2, -1), (-1, -1))
    worst = 0.0
    for dim in (2, 3):
        rng = Random(80 + dim)
        theta = random_theta(rng, dim)
        for _ in range(10):
            h = random_torus_h(rng, theta, max_modes=2)
            for alpha, beta in pairs:
                for j in range(1, dim + 1):
                    res = torus_trace_identity(h, alpha, beta, j, 6)
                    worst = max(worst, res)
                    assert res < 1e-10, \
                        f"n={dim} (a,b)=({alpha},{beta}) d_{j}: {res:.2e}"
    _line(8, True, f"200 identities below 1e-10 through order 6 "
                   f"(worst {worst:.1e})")


def test_criterion_09_suq2_boundary():
    """Boundary-trace cancellation at N=2000, q=0.5; paired combination on
    simple tensors; partial zeta sums finite at s=3.5 and growing at s=2.5."""
    q, big_n = 0.5, 2000
    w = zstar_z(q)
    samples = [QuantumDiscElement.one(q), QuantumDiscElement.z(q),
               w, w.power(2), w.power(3)]
    worst = 0.0
    reports = [suq2_residue_cancellation(x, big_n) for x in samples]
    for rep in reports:
        worst = max(worst, rep.residual)
        assert rep.residual < 1e-8
    for rx in reports:
        for ry in reports:
            res = suq2_paired_combination(rx, ry)
            worst = max(worst, res)
            assert res < 1e-8
    fin = Suq2DiracSpec.partial_zeta(3.5, 200) / Suq2DiracSpec.partial_zeta(3.5, 100)
    gro = Suq2DiracSpec.partial_zeta(2.5, 200) / Suq2DiracSpec.partial_zeta(2.5, 100)
    assert fin - 1.0 < 0.05, f"s=3.5 tail ratio {fin - 1.0:.3f} not settling"
    assert gro > 1.3, f"s=2.5 ratio {gro:.3f} fails to grow"
    _line(9, True, f"cancellation and pairing below 1e-8 (worst {worst:.1e}); "
                   f"zeta ratios {fin:.4f} (s=3.5) / {gro:.4f} (s=2.5)")
