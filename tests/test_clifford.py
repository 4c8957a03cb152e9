from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torsion import (MatrixQQ, Multivector, QQi, chirality, clifford_action,
                              clifford_trace, qi, reduce_word, trace_power)
import spectral_torsion.clifford as clifford

from oracle import (GammaWord, canonicalize, matrix_trace, multivector_matrix,
                    reference_product, word_matrix)


class TestReduceWord:
    def test_examples(self):
        assert reduce_word((1, 1)) == (1, ())
        assert reduce_word((2, 1)) == (-1, (1, 2))
        assert reduce_word((1, 2, 1)) == (-1, (2,))
        assert reduce_word((3, 1, 2, 3)) == (1, (1, 2))
        assert reduce_word(()) == (1, ())

    @given(st.lists(st.integers(min_value=1, max_value=6), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_product(self, word):
        sign, canon = reduce_word(tuple(word))
        assert list(canon) == sorted(set(canon))
        lhs = word_matrix(6, word)
        rhs = word_matrix(6, canon) * qi(sign)
        assert lhs == rhs

    @given(st.lists(st.integers(min_value=1, max_value=5), max_size=6),
           st.lists(st.integers(min_value=1, max_value=5), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_concatenation_multiplies_signs(self, w1, w2):
        s1, c1 = reduce_word(tuple(w1))
        s2, c2 = reduce_word(tuple(w2))
        s12, c12 = reduce_word(tuple(w1) + tuple(w2))
        s, c = reduce_word(c1 + c2)
        assert (s12, c12) == (s1 * s2 * s, c)


def canon_term(dim: int, word, coeff) -> Multivector:
    sign, canon = reduce_word(word)
    return Multivector(dim, {canon: coeff * qi(sign)})


def _random_multivector(rng: Random, dim: int, terms: int = 3) -> Multivector:
    out = Multivector(dim)
    for _ in range(terms):
        word = tuple(rng.sample(range(1, dim + 1), rng.randint(0, dim)))
        coeff = qi(Fraction(rng.randint(-4, 4), rng.choice((1, 2))),
                   Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
        out = out + canon_term(dim, word, coeff)
    return out


class TestMultivector:
    def test_gamma_square(self):
        g1 = Multivector.gamma(4, 1)
        assert g1 * g1 == Multivector.scalar(4, 1)

    def test_anticommutation(self):
        g1, g2 = Multivector.gamma(4, 1), Multivector.gamma(4, 2)
        assert g1 * g2 + g2 * g1 == Multivector(4)

    def test_mul_matches_matrices(self):
        rng = Random(2)
        for dim in (2, 3, 4, 5):
            for _ in range(10):
                a = _random_multivector(rng, dim)
                b = _random_multivector(rng, dim)
                assert multivector_matrix(a * b) == \
                    multivector_matrix(a) * multivector_matrix(b)

    def test_mul_associative(self):
        rng = Random(3)
        for _ in range(10):
            a, b, c = (_random_multivector(rng, 4) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_grades(self):
        x = canon_term(4, (1, 2), qi(1)) + canon_term(4, (3,), qi(2)) \
            + Multivector.scalar(4, qi(5))
        assert x.scalar_part() == qi(5)

    @pytest.mark.parametrize("minus_one", [-1, qi(-1), Fraction(-1)])
    def test_scale_by_minus_one_forms_no_product(self, monkeypatch, minus_one):
        m = MatrixQQ.from_rows([[qi(1), qi(2, -1)], [qi(0), qi(Fraction(1, 3))]])
        x = Multivector(3, {(1, 2): qi(2, 1), (3,): qi(Fraction(1, 2))})
        y = Multivector(3, {(): m, (1, 3): m})
        products = []
        for owner in (QQi, MatrixQQ):
            for name in ("__mul__", "__rmul__"):
                original = getattr(owner, name)
                monkeypatch.setattr(owner, name, lambda *args, f=original, n=name:
                                    products.append(n) or f(*args))
        for mv in (x, y):
            assert mv.scale(minus_one) == -mv
        assert products == []
        assert x.scale(qi(2)) == x + x and products

    def test_rejects_non_canonical_keys(self):
        with pytest.raises(ValueError):
            Multivector(3, {(2, 1): qi(1)})
        with pytest.raises(ValueError):
            Multivector(3, {(1, 1): qi(1)})

    def test_clifford_action(self):
        v = clifford_action((Fraction(1), Fraction(0), Fraction(2)), 3)
        assert v == canon_term(3, (1,), qi(1)) + canon_term(3, (3,), qi(2))


class TestWordTable:
    """Multivector products read each word pair's reduce_word result from one
    shared table, filled on first use."""

    DIM = 5
    WORDS = [w for k in range(6) for w in combinations(range(1, 6), k)]
    A, B = qi(2, -1), qi(Fraction(1, 3), 4)

    def _basis_products(self):
        return {(w1, w2): Multivector(self.DIM, {w1: self.A}) * Multivector(self.DIM, {w2: self.B})
                for w1 in self.WORDS for w2 in self.WORDS}

    def test_basis_products_from_a_cold_and_a_warm_table(self, monkeypatch):
        assert len(self.WORDS) == 32
        calls = []

        def counted(word):
            calls.append(word)
            return reduce_word(word)
        monkeypatch.setattr(clifford, "_WORD_PRODUCTS", {})
        monkeypatch.setattr(clifford, "reduce_word", counted)
        cold = self._basis_products()
        assert len(calls) == len(clifford._WORD_PRODUCTS) == 32 * 32
        warm = self._basis_products()
        assert len(calls) == 32 * 32
        assert warm == cold
        for (w1, w2), got in cold.items():
            assert got == canonicalize(GammaWord(w1 + w2, self.A * self.B), self.DIM)

    def test_matrix_coefficients_match_a_reduce_word_reference(self):
        rng = Random(12)
        dim = 4

        def draw():
            words = {tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim))))
                     for _ in range(6)}
            return {w: MatrixQQ([[qi(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(2)]
                                 for _ in range(2)]) for w in words}
        a, b = draw(), draw()
        want = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                sign, word = reduce_word(w1 + w2)
                want[word] = want.get(word, MatrixQQ.zero(2)) + c1 * c2 * qi(sign)
        want = {w: c for w, c in want.items() if c}
        assert len(want) > 4
        assert (Multivector(dim, a) * Multivector(dim, b)).terms == want


# Gaussian rationals with denominators 1..12 in each part, real, imaginary or mixed
_parts = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_coeffs = st.one_of(st.builds(qi, _parts), st.builds(lambda y: qi(0, y), _parts),
                    st.builds(qi, _parts, _parts))


@st.composite
def _qqi_multivector(draw, dim: int) -> Multivector:
    words = st.frozensets(st.integers(1, dim)).map(lambda ws: tuple(sorted(ws)))
    return Multivector(dim, draw(st.dictionaries(words, _coeffs, max_size=12)))


@st.composite
def _qqi_pair(draw):
    dim = draw(st.integers(1, 6))
    return draw(_qqi_multivector(dim)), draw(_qqi_multivector(dim))


def _assert_canonical_terms(x: Multivector) -> None:
    for c in x.terms.values():
        assert type(c) is QQi
        assert c and c._d > 0 and gcd(c._a, c._b, c._d) == 1


class TestQQiKernel:
    """Products with QQi coefficients on both sides go through one integer
    kernel; it must agree, field for field, with the pair-by-pair reference."""

    @given(_qqi_pair())
    @settings(max_examples=100, deadline=None)
    def test_matches_pair_by_pair_reference(self, pair):
        a, b = pair
        got = a * b
        assert got.dim == a.dim
        assert got.terms == reference_product(a, b).terms
        _assert_canonical_terms(got)

    @given(_qqi_pair(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_product_through_one_minus_g_squared_cancels(self, pair, data):
        # x(1 + g) times (1 - g)y is x(1 - g^2)y = 0: every word cancels
        x, y = pair
        g = Multivector.gamma(x.dim, data.draw(st.integers(1, x.dim)))
        one = Multivector.scalar(x.dim, 1)
        left, right = x * (one + g), (one - g) * y
        assert (left * right).terms == {}

    def test_cancelled_words_are_absent(self):
        g1, g2 = Multivector.gamma(4, 1), Multivector.gamma(4, 2)
        third, quarter_i = qi(Fraction(1, 3)), qi(0, Fraction(1, 4))
        # (g1 + g2)(g1 - g2) = 1 - g1g2 + g2g1 - 1 = -2 g1g2
        assert ((g1 + g2) * (g1 - g2)).terms == {(1, 2): qi(-2)}
        # both sides scaled, with different denominators: the scalar word cancels
        got = (g1 + g2).scale(third) * (g1 - g2).scale(quarter_i)
        assert got.terms == {(1, 2): qi(0, Fraction(-1, 6))}
        one = Multivector.scalar(4, 1)
        assert ((one + g1).scale(third) * (one - g1).scale(quarter_i)).terms == {}

    @given(_qqi_pair(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_values_built_two_ways_are_equal_and_hash_equal(self, pair, data):
        a, b = pair
        c = data.draw(_qqi_multivector(a.dim))
        left, right = (a * b) * c, a * (b * c)
        # QQi == compares the three ints, so equal terms mean equal fields
        assert left == right and hash(left) == hash(right)
        _assert_canonical_terms(left)

    def test_reduced_coefficients_equal_their_rational(self):
        # (1/2 g1)(2/3 g1) = 1/3, reached over the unreduced denominator 6
        a = Multivector(3, {(1,): qi(Fraction(1, 2))})
        b = Multivector(3, {(1,): qi(Fraction(2, 3))})
        got = a * b
        assert got == Multivector.scalar(3, Fraction(1, 3))
        assert hash(got) == hash(Multivector.scalar(3, Fraction(1, 3)))
        c = got.scalar_part()
        assert (c._a, c._b, c._d) == (1, 0, 3)
        assert hash(c) == hash(Fraction(1, 3))

    @given(_qqi_pair())
    @settings(max_examples=20, deadline=None)
    def test_empty_operand_on_either_side(self, pair):
        a, _ = pair
        zero = Multivector(a.dim)
        for got in (zero * a, a * zero, zero * zero):
            assert got.dim == a.dim and got.terms == {}
        m = Multivector(a.dim, {(): MatrixQQ.identity(2)})
        assert (zero * m).terms == (m * zero).terms == {}

    def test_dimension_mismatch_with_an_empty_operand_raises(self):
        for a, b in ((Multivector(3), Multivector(4)),
                     (Multivector(3), Multivector.gamma(4, 1)),
                     (Multivector.gamma(3, 1), Multivector(4))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                a * b

    def test_qqi_times_matrix_coefficients_take_the_generic_path(self, monkeypatch):
        rng = Random(21)
        dim = 4

        def words():
            return {tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim))))
                    for _ in range(6)}
        scalars = Multivector(dim, {w: qi(Fraction(rng.randint(-6, 6), rng.randint(1, 12)),
                                          Fraction(rng.randint(-6, 6), rng.randint(1, 12)))
                                    for w in words()})
        matrices = Multivector(dim, {w: MatrixQQ([[qi(rng.randint(-3, 3), rng.randint(-2, 2))
                                                   for _ in range(2)] for _ in range(2)])
                                     for w in words()})

        def no_kernel(left, right):
            raise AssertionError("the QQi kernel ran on MatrixQQ coefficients")
        monkeypatch.setattr(clifford, "_mul_qqi", no_kernel)
        for a, b in ((scalars, matrices), (matrices, scalars)):
            got = a * b
            assert len(got.terms) > 4
            assert all(type(c) is MatrixQQ for c in got.terms.values())
            assert got.terms == reference_product(a, b).terms


class TestOneWordFactor:
    """A factor with one word multiplies through that word; it must agree with
    the pair-by-pair reference for every coefficient ring and on either side."""

    DIM = 4
    WORDS = [w for k in range(5) for w in combinations(range(1, 5), k)]
    COEFFS = [qi(1), qi(-1), qi(0, 1), qi(0, -1), qi(Fraction(1, 2)),
              MatrixQQ.from_rows([[qi(1), qi(2, -1)], [qi(0), qi(Fraction(1, 3))]])]

    def _others(self):
        rng = Random(31)

        def words():
            return {tuple(sorted(rng.sample(range(1, self.DIM + 1), rng.randint(0, self.DIM))))
                    for _ in range(5)}
        scalars = Multivector(self.DIM, {w: qi(rng.randint(-5, 5) or 1, rng.randint(-3, 3))
                                         for w in words()})
        matrices = Multivector(self.DIM, {w: MatrixQQ([[qi(rng.randint(-3, 3), rng.randint(-2, 2))
                                                        for _ in range(2)] for _ in range(2)])
                                          for w in words()})
        return scalars, matrices

    def test_both_factors_one_word(self):
        for w1 in self.WORDS:
            for w2 in self.WORDS:
                for c1, c2 in ((qi(-1), qi(0, 1)), (qi(Fraction(1, 2)), self.COEFFS[-1]),
                               (self.COEFFS[-1], qi(0, -1))):
                    a, b = Multivector(self.DIM, {w1: c1}), Multivector(self.DIM, {w2: c2})
                    got = a * b
                    assert len(got.terms) == 1
                    assert got.terms == reference_product(a, b).terms

    def test_zero_divisor_matrix_product_is_dropped(self):
        # e11 * e22 = 0 in M_2: the only word vanishes
        e11 = Multivector(self.DIM, {(1,): MatrixQQ.unit(2, 0, 0)})
        e22 = Multivector(self.DIM, {(1, 2): MatrixQQ.unit(2, 1, 1),
                                     (3,): MatrixQQ.unit(2, 0, 1)})
        got = e11 * e22
        assert got.terms == reference_product(e11, e22).terms == {(1, 3): MatrixQQ.unit(2, 0, 1)}

    def test_unit_coefficient_reuses_the_other_factors_coefficients(self):
        g2 = Multivector.gamma(self.DIM, 2)
        for x in self._others():
            left, right = (g2 * x).terms, (x * g2).terms
            for v, e in x.terms.items():
                for got, (sign, word) in ((left, reduce_word((2,) + v)),
                                          (right, reduce_word(v + (2,)))):
                    assert got[word] is e if sign > 0 else got[word] == -e
            got = (Multivector.scalar(self.DIM, 1) * x).terms
            assert all(got[w] is c for w, c in x.terms.items())

    def test_matches_reference_on_either_side_without_a_pair_loop(self, monkeypatch):
        def no_kernel(left, right):
            raise AssertionError("a one-word factor entered a pair-loop kernel")
        monkeypatch.setattr(clifford, "_mul_qqi", no_kernel)
        monkeypatch.setattr(clifford, "_mul_generic", no_kernel)
        others = self._others()
        assert all(len(x.terms) > 2 for x in others)
        for word in self.WORDS:
            for c in self.COEFFS:
                one = Multivector(self.DIM, {word: c})
                for x in others + (one,):
                    assert (one * x).terms == reference_product(one, x).terms
                    assert (x * one).terms == reference_product(x, one).terms

    def test_missing_pairs_still_call_reduce_word(self, monkeypatch):
        calls = []

        def counted(word):
            calls.append(word)
            return reduce_word(word)
        monkeypatch.setattr(clifford, "_WORD_PRODUCTS", {})
        monkeypatch.setattr(clifford, "reduce_word", counted)
        g1 = Multivector.gamma(self.DIM, 1)
        x = Multivector(self.DIM, {(): qi(2), (1, 2): qi(0, 1), (3,): qi(-1)})
        assert (g1 * x).terms == reference_product(g1, x).terms
        assert (x * g1).terms == reference_product(x, g1).terms
        assert sorted(calls) == sorted([(1,), (1, 1, 2), (1, 3), (1,), (1, 2, 1), (3, 1)])
        g1 * x
        assert len(calls) == 6


class TestTrace:
    def test_scalar_normalization(self):
        for dim in (2, 3, 4, 5, 6):
            assert trace_power(dim) == (dim + 1) // 2
            assert clifford_trace(Multivector.scalar(dim, 1)) == qi(2 ** trace_power(dim))

    def test_words_traceless(self):
        for dim in (2, 3, 4):
            for a in range(1, dim + 1):
                assert clifford_trace(Multivector.gamma(dim, a)) == qi(0)
        assert clifford_trace(canon_term(4, (1, 2, 3, 4), qi(1))) == qi(0)

    def test_matches_matrix_trace(self):
        rng = Random(4)
        for dim in (2, 3, 4, 5, 6):
            for _ in range(10):
                x = _random_multivector(rng, dim)
                assert clifford_trace(x) == matrix_trace(x)

    def test_pairing(self):
        # tr(g^a g^b) = 2^m delta_ab
        for dim in (3, 4):
            norm = qi(2 ** trace_power(dim))
            for a in range(1, dim + 1):
                for b in range(1, dim + 1):
                    prod = Multivector.gamma(dim, a) * Multivector.gamma(dim, b)
                    assert clifford_trace(prod) == (norm if a == b else qi(0))


class TestChirality:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_squares_to_one(self, dim):
        c = chirality(dim)
        assert c * c == Multivector.scalar(dim, 1)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_anticommutes_with_generators(self, dim):
        c = chirality(dim)
        for a in range(1, dim + 1):
            g = Multivector.gamma(dim, a)
            assert c * g + g * c == Multivector(dim)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            chirality(3)

    def test_top_trace(self):
        # tr(chi g^1 g^2 g^3 g^4) picks out the volume word: (-i)^2 * sign * 2^m
        c = chirality(4)
        top = canon_term(4, (1, 2, 3, 4), qi(1))
        assert clifford_trace(c * top) == qi(-4)
