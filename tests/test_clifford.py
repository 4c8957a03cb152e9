from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torsion import (GammaWord, MatrixQQ, Multivector, canonicalize, chirality,
                              clifford_action, clifford_trace, mul, qi, reduce_word,
                              trace_power)
import spectral_torsion.clifford as clifford

from oracle import matrix_trace, multivector_matrix, word_matrix


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
        assert g1 * g1 == Multivector.unit(4)

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
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_grades(self):
        x = canon_term(4, (1, 2), qi(1)) + canon_term(4, (3,), qi(2)) \
            + Multivector.scalar(4, qi(5))
        assert x.grade(2) == canon_term(4, (1, 2), qi(1))
        assert x.scalar_part() == qi(5)
        assert x.max_grade() == 2

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


class TestTrace:
    def test_scalar_normalization(self):
        for dim in (2, 3, 4, 5, 6):
            assert trace_power(dim) == (dim + 1) // 2
            assert clifford_trace(Multivector.unit(dim)) == qi(2 ** trace_power(dim))

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
        assert c * c == Multivector.unit(dim)

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
