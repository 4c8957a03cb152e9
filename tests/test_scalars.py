from __future__ import annotations

import copy
import operator
import pickle
import sys
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torsion import MatrixQQ, QQi, parse_complex_rational, parse_rational, qi

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=3)
scalars = st.builds(QQi, rationals, rationals)

# wider denominators, so sums and products really have common factors to cancel
wide = st.fractions(min_value=-60, max_value=60, max_denominator=24)
wide_scalars = st.builds(QQi, wide, wide)
operands = st.one_of(wide_scalars, st.integers(-60, 60), wide)


# reference: a Gaussian rational as a (re, im) pair of Fractions
def ref(x):
    if isinstance(x, QQi):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def assert_canonical(z):
    assert type(z) is QQi
    assert z._d > 0
    assert gcd(z._a, z._b, z._d) == 1


class TestQQi:
    def test_product(self):
        assert qi(1, 2) * qi(3, -1) == qi(5, 5)

    def test_i_squares_to_minus_one(self):
        assert qi(0, 1) * qi(0, 1) == qi(-1)

    @given(scalars, scalars)
    @settings(max_examples=40, deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        if b:
            assert (a / b) * b == a

    @given(scalars, scalars)
    @settings(max_examples=40, deadline=None)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()

    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_abs2(self, a):
        assert a.abs2() == a.re * a.re + a.im * a.im
        assert (a * a.conj()) == QQi(a.abs2())

    def test_trace_is_identity_on_scalars(self):
        v = qi(Fraction(2, 3), -1)
        assert v.trace() is v

    def test_mixed_arithmetic(self):
        assert 2 * qi(1, 1) == qi(2, 2)
        assert qi(1) - Fraction(1, 2) == qi(Fraction(1, 2))
        assert 1 / qi(0, 1) == qi(0, -1)


class TestQQiAgainstFractionPairs:
    """Fraction-free QQi arithmetic against the (Fraction, Fraction) reference."""

    @pytest.mark.parametrize("op,want", [(operator.add, ref_add), (operator.sub, ref_sub),
                                         (operator.mul, ref_mul)])
    @given(a=wide_scalars, b=operands)
    @settings(max_examples=60, deadline=None)
    def test_ring_operations_either_side(self, op, want, a, b):
        for x, y in ((a, b), (b, a)):
            z = op(x, y)
            assert_canonical(z)
            assert (z.re, z.im) == want(ref(x), ref(y))

    @given(a=wide_scalars, b=operands)
    @settings(max_examples=60, deadline=None)
    def test_division_either_side(self, a, b):
        for x, y in ((a, b), (b, a)):
            if not any(ref(y)):
                with pytest.raises(ZeroDivisionError):
                    x / y
                continue
            z = x / y
            assert_canonical(z)
            assert (z.re, z.im) == ref_div(ref(x), ref(y))

    @given(wide_scalars)
    @settings(max_examples=60, deadline=None)
    def test_conj_neg_abs2(self, a):
        re, im = ref(a)
        assert_canonical(a.conj())
        assert ref(a.conj()) == (re, -im)
        assert ref(-a) == (-re, -im)
        assert a.abs2() == re * re + im * im
        assert type(a.abs2()) is Fraction

    @given(wide, wide)
    @settings(max_examples=60, deadline=None)
    def test_canonical_construction_and_parts(self, re, im):
        z = QQi(re, im)
        assert_canonical(z)
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert (z.re, z.im) == (re, im)

    @given(wide_scalars, wide_scalars, st.one_of(st.integers(-60, 60), wide))
    @settings(max_examples=60, deadline=None)
    def test_equal_values_hash_equal(self, a, b, r):
        # the same value reached by arithmetic and by the constructor
        z = (a + b) - b
        assert z == a
        assert hash(z) == hash(a)
        assert hash(QQi(a.re, a.im)) == hash(a)
        # a real value hashes as the int or Fraction it equals, so sets merge them
        x = (QQi(r) + b) - b
        assert x == r
        assert hash(x) == hash(r)
        assert len({x, r}) == 1

    @given(wide_scalars, st.integers(-60, 60), wide)
    @settings(max_examples=60, deadline=None)
    def test_equality_with_rationals(self, a, n, f):
        assert (QQi(n) == n) and (QQi(f) == f)
        assert (a == a.re) == (not a.im)
        assert bool(a) == any(ref(a))

    def test_zero_is_canonical(self):
        z = qi(Fraction(1, 3)) - qi(Fraction(1, 3))
        assert (z._a, z._b, z._d) == (0, 0, 1)
        assert not z and z == 0 and hash(z) == hash(QQi())

    def test_arithmetic_creates_no_fraction(self):
        a, b, h = qi(Fraction(1, 3), Fraction(-5, 4)), qi(Fraction(7, 6), 2), Fraction(1, 2)
        made = []
        saved = vars(Fraction)["__new__"]

        def counting(cls, *args, **kwargs):
            made.append(args)
            return saved.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting)
        try:
            for z in (a + b, a - b, a * b, a / b, -a, a.conj(), a + 1, 2 * a, a - h, h / a):
                assert type(z) is QQi
            assert a == a and a != b and a != 1 and a != h and bool(a)
            assert made == []
            assert a.re == Fraction(1, 3) and made
        finally:
            Fraction.__new__ = saved

    def test_immutable(self):
        z = qi(1, 2)
        for name in ("re", "im", "_a", "_d", "other"):
            with pytest.raises(AttributeError):
                setattr(z, name, 3)
        with pytest.raises(AttributeError):
            del z._a
        assert z == qi(1, 2)

    def test_copy_and_pickle_round_trip(self):
        z = qi(Fraction(-7, 6), Fraction(5, 4))
        assert copy.deepcopy(z) == z
        assert pickle.loads(pickle.dumps(z)) == z

    def test_non_exact_operands_rejected(self):
        with pytest.raises(TypeError):
            qi(1) + 0.5
        with pytest.raises(TypeError):
            qi(1) * 0.5
        with pytest.raises(TypeError):
            QQi(0.5)
        with pytest.raises(TypeError):
            QQi.coerce(0.5)

    def test_to_complex_saturates(self):
        big = Fraction(10) ** 400
        assert qi(big, -big).to_complex() == complex(float("inf"), float("-inf"))
        assert qi(Fraction(1, 3), 2).to_complex() == complex(1 / 3, 2.0)


class TestParsing:
    @pytest.mark.parametrize("text,want", [
        ("1", qi(1)),
        ("-3/2", qi(Fraction(-3, 2))),
        ("i", qi(0, 1)),
        ("-i", qi(0, -1)),
        ("1+2i", qi(1, 2)),
        ("1/2-3/4i", qi(Fraction(1, 2), Fraction(-3, 4))),
        ("2.5", qi(Fraction(5, 2))),
        ("0", qi(0)),
    ])
    def test_complex_rational(self, text, want):
        assert parse_complex_rational(text) == want

    @pytest.mark.parametrize("text", ["", "1+", "x", "1/0", "i+i+i"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_complex_rational(text)

    def test_rational(self):
        assert parse_rational("-7/3") == Fraction(-7, 3)
        with pytest.raises(ValueError):
            parse_rational("2i")

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", "-2.5E+999999999"])
    def test_huge_exponent_rejected_at_once(self, text):
        # Fraction would build 10**999999999 first: minutes of CPU, growing memory
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(text)
        assert time.perf_counter() - t0 < 1.0

    def test_exponent_bound_is_the_int_string_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit}") == 10 ** limit
        assert parse_rational(f"1e-{limit}") == Fraction(1, 10 ** limit)
        for text in (f"1e{limit + 1}", f"1e-{limit + 1}", f"1+1e-{limit + 1}i"):
            with pytest.raises(ValueError, match="exponent"):
                parse_complex_rational(text)

    def test_no_int_string_limit_means_no_exponent_bound(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational("1e5000") == 10 ** 5000
        finally:
            sys.set_int_max_str_digits(limit)


class TestMatrixQQ:
    def test_unit_algebra(self):
        # E_ij E_kl = delta_jk E_il
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        prod = MatrixQQ.unit(2, i, j) * MatrixQQ.unit(2, k, l)
                        want = MatrixQQ.unit(2, i, l) if j == k else MatrixQQ.zero(2)
                        assert prod == want

    def test_conj_transpose_antihomomorphism(self):
        a = MatrixQQ.from_rows([[qi(1, 2), qi(0, 1)], [qi(3), qi(-1, -1)]])
        b = MatrixQQ.from_rows([[qi(0), qi(2, -1)], [qi(1, 1), qi(5)]])
        assert (a * b).conj_transpose() == b.conj_transpose() * a.conj_transpose()

    def test_trace_cyclic(self):
        a = MatrixQQ.from_rows([[qi(1, 2), qi(0, 1)], [qi(3), qi(-1, -1)]])
        b = MatrixQQ.from_rows([[qi(0), qi(2, -1)], [qi(1, 1), qi(5)]])
        assert (a * b).trace() == (b * a).trace()

    def test_anti_hermitian_detection(self):
        x = MatrixQQ.from_rows([[qi(0, 1), qi(1, 1)], [qi(-1, 1), qi(0, -2)]])
        assert x.is_anti_hermitian()
        assert not MatrixQQ.unit(2, 0, 1).is_anti_hermitian()

    def test_scalar_action(self):
        ident = MatrixQQ.identity(3)
        assert ident * qi(0, 1) == qi(0, 1) * ident
        assert (ident * qi(2)).trace() == qi(6)
