from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torsion import (HomogeneousSymbol, MatrixQQ, Multivector, PiValue,
                              SymbolSum, compose, moment, negative_power, parametrix,
                              qi, sphere_integrate, sphere_volume, sqrt_symbol)
from spectral_torsion.symcalc import hs_dx, hs_dxi, hs_mul, integrate_product
import spectral_torsion.symcalc as symcalc
from spectral_torsion.torsion import dirac_symbol
from spectral_torsion.torsion import TorsionTensor

from oracle import (CurvatureJet, hs_is_zero, mc_sphere_average, reference_compose,
                    reference_hs_mul, reference_negative_power, reference_parametrix,
                    reference_sphere_integrate, reference_sqrt_symbol, sphere_batch)


def _sym(dim: int, degree: int, entries) -> HomogeneousSymbol:
    """entries: list of (alpha, rho, xj, Multivector)."""
    h = HomogeneousSymbol(dim, degree)
    for alpha, rho, xj, mv in entries:
        h._merge((tuple(alpha), rho, xj), mv)
    return h


def _sums_equal(a: SymbolSum, b: SymbolSum) -> bool:
    return all(hs_is_zero(a.component(d) - b.component(d)) for d in set(a.parts) | set(b.parts))


class TestHomogeneous:
    def test_radial_identity_recognized(self):
        # sum_j xi_j^2  ==  ||xi||^2
        dim = 3
        poly = _sym(dim, 2, [((2, 0, 0), 0, 0, Multivector.scalar(dim, 1)),
                             ((0, 2, 0), 0, 0, Multivector.scalar(dim, 1)),
                             ((0, 0, 2), 0, 0, Multivector.scalar(dim, 1))])
        radial = HomogeneousSymbol.radial(dim, 2, Multivector.scalar(dim, 1))
        assert hs_is_zero(poly - radial)
        assert not hs_is_zero(poly.scale(qi(2)) - radial)

    def test_monomial_is_not_radial(self):
        dim = 2
        xi1sq = _sym(dim, 2, [((2, 0), 0, 0, Multivector.scalar(dim, 1))])
        radial = HomogeneousSymbol.radial(dim, 2, Multivector.scalar(dim, 1))
        assert not hs_is_zero(xi1sq - radial)

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            HomogeneousSymbol(2, 1, {((2, 0), 0, 0): Multivector.scalar(2, 1)})

    def test_derivatives(self):
        dim = 2
        # d/dxi_1 (xi_1^2 ||xi||^-1) = 2 xi_1 ||xi||^-1 - xi_1^3 ||xi||^-3
        h = _sym(dim, 1, [((2, 0), -1, 0, Multivector.scalar(dim, 1))])
        want = _sym(dim, 0, [((1, 0), -1, 0, Multivector.scalar(dim, 1).scale(qi(2))),
                             ((3, 0), -3, 0, Multivector.scalar(dim, 1).scale(qi(-1)))])
        assert hs_is_zero(hs_dxi(h, 1) - want)

    def test_x_derivative_drops_jet(self):
        dim = 2
        h = _sym(dim, 0, [((0, 0), 0, 1, Multivector.scalar(dim, 1))])  # x_1 * 1
        got = hs_dx(h, 1)
        want = _sym(dim, 0, [((0, 0), 0, 0, Multivector.scalar(dim, 1))])
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
        one = Multivector.scalar(dim, 1)
        a = SymbolSum(dim, {1: _sym(dim, 1, [((1, 0), 0, 0, one)])})
        b = SymbolSum(dim, {1: _sym(dim, 1, [((1, 0), 0, 1, one)])})
        got = compose(a, b)
        lead = _sym(dim, 2, [((2, 0), 0, 1, one)])
        corr = _sym(dim, 1, [((1, 0), 0, 0, one.scale(qi(0, -1)))])
        assert hs_is_zero(got.component(2) - lead)
        assert hs_is_zero(got.component(1) - corr)


# coefficients: small Gaussian rationals, or 2x2 matrices over them
_parts = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_qqi = st.builds(qi, _parts, _parts).filter(bool)
_matrix = st.lists(_qqi | st.just(qi(0)), min_size=4, max_size=4).map(
    lambda e: MatrixQQ.from_rows([e[:2], e[2:]])).filter(bool)


@st.composite
def _coefficient(draw, dim: int, ring: str) -> Multivector:
    words = st.frozensets(st.integers(1, dim)).map(lambda ws: tuple(sorted(ws)))
    return Multivector(dim, draw(st.dictionaries(
        words, _qqi if ring == "qqi" else _matrix, min_size=1, max_size=3)))


@st.composite
def _homogeneous(draw, dim: int, degree: int, ring: str) -> HomogeneousSymbol:
    """Up to four terms, each with an x factor with probability dim / (dim + 2)."""
    h = HomogeneousSymbol(dim, degree)
    for _ in range(draw(st.integers(0, 4))):
        alpha = tuple(draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim)))
        xj = draw(st.sampled_from([0, 0] + list(range(1, dim + 1))))
        h._merge((alpha, degree - sum(alpha), xj), draw(_coefficient(dim, ring)))
    return h


def _radial_unit(dim: int, degree: int) -> HomogeneousSymbol:
    return HomogeneousSymbol.radial(dim, degree, Multivector.scalar(dim, 1))


@st.composite
def _symbol(draw, dim: int, lead: int, ring: str, unit_lead: bool) -> SymbolSum:
    top = _radial_unit(dim, lead) if unit_lead else draw(_homogeneous(dim, lead, ring))
    return SymbolSum(dim, {lead: top, lead - 1: draw(_homogeneous(dim, lead - 1, ring))})


@st.composite
def _symbol_pair(draw, reach_minus_n: bool = False):
    """Two symbols with QQi, MatrixQQ or mixed coefficients; a radial unit
    leads the left one, the right one, both or neither.  With reach_minus_n the
    leading degrees add up to -n or -n + 1, the window that holds degree -n."""
    dim = draw(st.integers(2, 4))
    rings = draw(st.sampled_from([("qqi", "qqi"), ("matrix", "matrix"),
                                  ("qqi", "matrix"), ("matrix", "qqi")]))
    units = draw(st.sampled_from([(True, False), (False, True), (True, True), (False, False)]))
    # a QQi unit in a MatrixQQ symbol facing a QQi one would make compose add
    # QQi to MatrixQQ coefficients, a sum the rings do not define
    units = [u and not (ring == "matrix" and other == "qqi")
             for u, ring, other in zip(units, rings, rings[::-1])]
    lead_a = draw(st.integers(-3, 2))
    lead_b = -dim - lead_a + draw(st.integers(0, 1)) if reach_minus_n else \
        draw(st.integers(-3, 2))
    return tuple(draw(_symbol(dim, lead, ring, unit))
                 for lead, ring, unit in zip((lead_a, lead_b), rings, units))


def _parts_equal(got: SymbolSum, want: SymbolSum) -> bool:
    return got.dim == want.dim and {d: h.terms for d, h in got.parts.items()} == \
        {d: h.terms for d, h in want.parts.items()}


class TestAgainstReference:
    """compose, hs_mul and sphere_integrate against the copy-per-sum versions in
    the oracle, every part and every coefficient exactly."""

    @given(_symbol_pair())
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_copy_per_sum_reference(self, pair):
        a, b = pair
        assert _parts_equal(compose(a, b), reference_compose(a, b))

    @given(_symbol_pair(reach_minus_n=True))
    @settings(max_examples=80, deadline=None)
    def test_integrate_product_matches_the_composed_integral(self, pair):
        # a drawn leading part may be empty, which moves the window down by one
        a, b = pair
        dim = a.dim
        if not a.parts or not b.parts:
            assert not integrate_product(a, b)
            return
        lead = a.leading_degree + b.leading_degree
        if lead >= -dim > lead - symcalc.TRACKED:
            want = reference_sphere_integrate(reference_compose(a, b).component(-dim))
            assert integrate_product(a, b).terms == want.terms
        else:
            with pytest.raises(ValueError, match=f"degree {-dim} component not tracked"):
                integrate_product(a, b)

    def test_integrate_product_takes_the_first_order_correction(self):
        # -i d_xi1 ||xi||^(1-n) . d_x1 (x_1 xi_1 ||xi||^-1 g^1) = -i (1-n) xi_1^2 ||xi||^(-n-2) g^1
        # averages to i (n-1)/n g^1; with a xi-free x_1 term it would average to 0
        dim = 3
        g1 = Multivector.gamma(dim, 1)
        a = SymbolSum(dim, {1 - dim: _radial_unit(dim, 1 - dim)})
        b = SymbolSum(dim, {0: _sym(dim, 0, [((1, 0, 0), -1, 1, g1)])})
        want = g1.scale(qi(0, Fraction(dim - 1, dim)))
        assert integrate_product(a, b) == want
        assert reference_sphere_integrate(reference_compose(a, b).component(-dim)) == want

    def test_radial_unit_shares_the_other_factors_coefficients(self):
        dim = 3
        g12 = Multivector.gamma(dim, 1) * Multivector.gamma(dim, 2)
        h = _sym(dim, 1, [((1, 0, 0), 0, 2, g12), ((2, 0, 0), -1, 0, g12.scale(qi(0, 3)))])
        for got in (hs_mul(_radial_unit(dim, -2), h), hs_mul(h, _radial_unit(dim, -2))):
            assert got.degree == -1
            assert got.terms == {((1, 0, 0), -2, 2): h.terms[((1, 0, 0), 0, 2)],
                                 ((2, 0, 0), -3, 0): h.terms[((2, 0, 0), -1, 0)]}
            assert all(got.terms[k] is h.terms[(k[0], k[1] + 2, k[2])] for k in got.terms)

    def test_non_unit_radial_factors_take_the_product(self):
        # 2 ||xi||^-2, an x-linear ||xi||^-2 and a matrix one are not radial units
        dim = 2
        g1 = Multivector.gamma(dim, 1)
        h = _sym(dim, 1, [((1, 0), 0, 0, g1)])
        matrix_one = Multivector.scalar(dim, MatrixQQ.identity(2))
        for f in (HomogeneousSymbol.radial(dim, -2, Multivector.scalar(dim, 2)),
                  _sym(dim, -2, [((0, 0), -2, 1, Multivector.scalar(dim, 1))]),
                  HomogeneousSymbol.radial(dim, -2, matrix_one)):
            for got, want in ((hs_mul(f, h), reference_hs_mul(f, h)),
                              (hs_mul(h, f), reference_hs_mul(h, f))):
                assert got.terms == want.terms

    def test_first_order_correction_runs_only_over_carried_x_indices(self, monkeypatch):
        seen = []

        def counted(h, l):
            seen.append(l)
            return hs_dx(h, l)
        monkeypatch.setattr(symcalc, "hs_dx", counted)
        dim = 4
        one = Multivector.scalar(dim, 1)
        a = SymbolSum(dim, {1: _sym(dim, 1, [((0, 0, 1, 1), -1, 0, one)])})
        b = SymbolSum(dim, {1: _sym(dim, 1, [((1, 0, 0, 0), 0, 3, one)])})
        assert _parts_equal(compose(a, b), reference_compose(a, b))
        assert seen == [3]
        seen.clear()
        d = dirac_symbol(TorsionTensor(dim, {(1, 2, 3): Fraction(1)}), dim)
        assert _parts_equal(compose(d, d), reference_compose(d, d))
        assert seen == []

    @given(st.integers(2, 4).flatmap(lambda dim: st.sampled_from(["qqi", "matrix"]).flatmap(
        lambda ring: _homogeneous(dim, -dim, ring))))
    @settings(max_examples=50, deadline=None)
    def test_sphere_integrate_matches_per_term_sums(self, h):
        got, want = sphere_integrate(h), reference_sphere_integrate(h)
        assert got.dim == want.dim and got.terms == want.terms

    def test_sphere_integrate_drops_a_cancelled_word(self):
        # <xi_1^2> - <xi_2^2> = 0 on the g^1 word; the g^2 word survives
        dim = 3
        g1, g2 = Multivector.gamma(dim, 1), Multivector.gamma(dim, 2)
        h = _sym(dim, -dim, [((2, 0, 0), -dim - 2, 0, g1 + g2),
                             ((0, 2, 0), -dim - 2, 0, g1.scale(qi(-1)))])
        got = sphere_integrate(h)
        assert got.terms == {(2,): qi(Fraction(1, 3))}
        assert got == reference_sphere_integrate(h)


class TestParametrix:
    def test_right_inverse_of_dirac_square(self):
        for dim in (3, 4):
            t = TorsionTensor(dim, {(1, 2, 3): Fraction(1, 2)})
            d = dirac_symbol(t, dim)
            d2 = compose(d, d)
            p = parametrix(d2)
            one = HomogeneousSymbol.radial(dim, 0, Multivector.scalar(dim, 1))
            unit = SymbolSum(dim, {0: one})
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
        bad = SymbolSum(dim, {1: _sym(dim, 1, [((1, 0), 0, 0, Multivector.scalar(dim, 1))])})
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
            dim, 2, Multivector.scalar(dim, 1).scale(qi(2)))})
        with pytest.raises(ValueError):
            sqrt_symbol(a)


RINGS = {"qqi": lambda c: qi(c), "matrix": lambda c: MatrixQQ.identity(2) * c}


def _leading(dim: int, degree: int, entries, ring: str) -> SymbolSum:
    """One-component symbol; entries: (alpha, rho, xj, scalar, word) with the
    scalar taken in the ring and placed on the Clifford word."""
    one = RINGS[ring]
    return SymbolSum(dim, {degree: _sym(dim, degree, [
        (alpha, rho, xj, Multivector(dim, {word: one(c)}))
        for alpha, rho, xj, c, word in entries])})


def _squares(dim: int, rho: int, coeffs, words=None):
    """sum_j c_j xi_j^2 ||xi||^rho, each on the given word (scalar word by default)."""
    words = words or [()] * dim
    return [(tuple(2 * (k == j) for k in range(dim)), rho, 0, c, w)
            for j, (c, w) in enumerate(zip(coeffs, words))]


class TestLeadingPart:
    """parametrix and sqrt_symbol accept a leading part c ||xi||^p times the unit
    in the spellings compose and the powers write, and refuse every other one."""

    NON_RADIAL = {
        "xi1-squared-alone": (2, _squares(2, 0, [1], [()])),
        "unequal-squares": (2, _squares(2, 0, [1, 2])),
        "one-square-on-a-word": (3, _squares(3, 0, [1, 1, 1], [(), (), (1, 2)])),
        "first-square-on-a-word": (3, _squares(3, 0, [1, 1, 1], [(1, 2), (), ()])),
        "x-linear": (2, _squares(2, 0, [1, 1]) + [((2, 0), 0, 1, 1, ())]),
        "x-linear-square": (2, [((2, 0), 0, 0, 1, ()), ((0, 2), 0, 1, 1, ())]),
        "square-and-cross-term": (2, [((2, 0), 0, 0, 1, ()), ((1, 1), 0, 0, 1, ())]),
    }

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @pytest.mark.parametrize("case", sorted(NON_RADIAL))
    def test_non_radial_leading_rejected(self, case, ring):
        dim, entries = self.NON_RADIAL[case]
        a = _leading(dim, 2, entries, ring)
        for op in (parametrix, sqrt_symbol):
            with pytest.raises(ValueError, match="not a radial scalar"):
                op(a)

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_radial_plus_sum_of_squares_accepted(self, dim, ring):
        # 3 ||xi||^2 - 2 sum_j xi_j^2 = ||xi||^2, and 5 ||xi||^2 - 2 sum_j xi_j^2 = 3 ||xi||^2
        for c0, c in ((3, 1), (5, 3)):
            mixed = _leading(dim, 2, [((0,) * dim, 2, 0, c0, ())]
                             + _squares(dim, 0, [-2] * dim), ring)
            radial = _leading(dim, 2, [((0,) * dim, 2, 0, c, ())], ring)
            assert _parts_equal(parametrix(mixed), parametrix(radial))
            if c == 1:
                assert _parts_equal(sqrt_symbol(mixed), sqrt_symbol(radial))
            else:
                with pytest.raises(ValueError, match="sqrt requires"):
                    sqrt_symbol(mixed)

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_sum_of_squares_alone_accepted(self, ring):
        dim = 3
        squares = _leading(dim, 2, _squares(dim, 0, [2] * dim), ring)
        radial = _leading(dim, 2, [((0,) * dim, 2, 0, 2, ())], ring)
        assert _parts_equal(parametrix(squares), parametrix(radial))

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_fourth_power_as_monomials_rejected(self, ring):
        # (xi_1^2 + xi_2^2)^2 = xi_1^4 + 2 xi_1^2 xi_2^2 + xi_2^4 equals ||xi||^4,
        # but no composition or power writes it so, and it is not read
        dim = 2
        quartic = _leading(dim, 4, [((4, 0), 0, 0, 1, ()), ((2, 2), 0, 0, 2, ()),
                                    ((0, 4), 0, 0, 1, ())], ring)
        radial = _leading(dim, 4, [((0, 0), 4, 0, 1, ())], ring)
        assert hs_is_zero(quartic.component(4) - radial.component(4))
        for op in (parametrix, sqrt_symbol):
            with pytest.raises(ValueError, match="not a radial scalar"):
                op(quartic)

    def test_zero_radial_sum_rejected(self):
        # ||xi||^2 - sum_j xi_j^2 vanishes identically
        a = _leading(2, 2, [((0, 0), 2, 0, 1, ())] + _squares(2, 0, [-1, -1]), "qqi")
        with pytest.raises(ValueError, match="not a multiple of the unit"):
            parametrix(a)


# leading scalars c of c ||xi||^p times the unit
LEAD_SCALARS = (qi(1), qi(3), qi(Fraction(1, 2), 1), qi(0, 3))


@st.composite
def _powered(draw, sqrt: bool = False):
    """a = c ||xi||^p unit + S: the lead radial or as sum_j c xi_j^2 ||xi||^(p-2),
    S drawn with x-linear terms; QQi or 2x2 MatrixQQ coefficients."""
    dim = draw(st.integers(2, 4))
    ring = draw(st.sampled_from(["qqi", "matrix"]))
    p, c = (2, qi(1)) if sqrt else (draw(st.integers(-2, 3)), draw(st.sampled_from(LEAD_SCALARS)))
    unit = Multivector.scalar(dim, c if ring == "qqi" else MatrixQQ.identity(2) * c)
    if draw(st.booleans()):
        lead = HomogeneousSymbol.radial(dim, p, unit)
    else:
        lead = _sym(dim, p, [(tuple(2 * (k == j) for k in range(dim)), p - 2, 0, unit)
                             for j in range(dim)])
    return SymbolSum(dim, {p: lead, p - 1: draw(_homogeneous(dim, p - 1, ring))})


def _tracked_equal(got: SymbolSum, want: SymbolSum) -> bool:
    top = want.leading_degree
    return got.leading_degree == top and all(
        hs_is_zero(got.component(d) - want.component(d)) for d in (top, top - 1))


class TestClosedFormPowers:
    """parametrix, negative_power and sqrt_symbol against the iterative
    compose-and-subtract versions in the oracle, on every tracked degree."""

    @given(_powered())
    @settings(max_examples=60, deadline=None)
    def test_parametrix_matches_iteration(self, a):
        assert _tracked_equal(parametrix(a), reference_parametrix(a))

    @given(_powered(), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_negative_power_matches_iteration(self, a, m):
        assert _tracked_equal(negative_power(a, m), reference_negative_power(a, m))

    @given(_powered(sqrt=True))
    @settings(max_examples=60, deadline=None)
    def test_sqrt_symbol_matches_iteration(self, a):
        assert _tracked_equal(sqrt_symbol(a), reference_sqrt_symbol(a))

    def test_no_product_is_formed(self, monkeypatch):
        dim = 3
        d = dirac_symbol(TorsionTensor(dim, {(1, 2, 3): Fraction(1, 2)}), dim)
        d2 = compose(d, d)
        scaled = SymbolSum(dim, {deg: h.scale(qi(3)) for deg, h in d2.parts.items()})
        as_matrix = SymbolSum(dim, {deg: HomogeneousSymbol(dim, deg, {
            key: Multivector(dim, {w: MatrixQQ.identity(2) * c for w, c in mv.terms.items()})
            for key, mv in h.terms.items()}) for deg, h in d2.parts.items()})
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))
        counted(Multivector, "__mul__")
        counted(symcalc, "compose")
        counted(symcalc, "hs_mul")
        for a in (d2, scaled, as_matrix):
            parametrix(a)
            negative_power(a, 3)
        sqrt_symbol(d2)
        sqrt_symbol(as_matrix)
        assert calls == []


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
        assert sphere_volume(2) == PiValue(Fraction(2), 1)
        assert sphere_volume(3) == PiValue(Fraction(4), 1)
        assert sphere_volume(4) == PiValue(Fraction(2), 2)
        assert sphere_volume(5) == PiValue(Fraction(8, 3), 2)
        assert sphere_volume(6) == PiValue(Fraction(1), 3)

    def test_sphere_integrate_drops_odd(self):
        dim = 3
        h = _sym(dim, -dim, [((1, 0, 0), -dim - 1, 0, Multivector.scalar(dim, 1))])
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
    def test_rational_times_pi_power_is_the_sphere_volume(self):
        # V(S^{n-1}) = 2 pi^{n/2} / Gamma(n/2)
        for dim in range(1, 13):
            v = sphere_volume(dim)
            assert math.isclose(float(v.rational) * math.pi ** v.pipow,
                                2 * math.pi ** (dim / 2) / math.gamma(dim / 2))

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
