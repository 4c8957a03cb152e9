"""MatrixQQ against a reference that keeps every entry as a QQi in lists of lists."""
from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torsion import MatrixQQ, QQi, qi

from oracle import dense_matrix_product, kron

ZERO = qi(0)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
gaussians = st.builds(QQi, rationals, rationals)
nonzero_gaussians = gaussians.filter(bool)


@st.composite
def dense_lists(draw, size: int):
    """Rows of QQi: the zero matrix, c * I, density about 0.3, or fully dense."""
    kind = draw(st.sampled_from(("zero", "scalar", "sparse", "dense")))
    if kind == "zero":
        return [[ZERO] * size for _ in range(size)]
    if kind == "scalar":
        c = draw(nonzero_gaussians)
        return [[c if i == j else ZERO for j in range(size)] for i in range(size)]
    if kind == "dense":
        return [[draw(nonzero_gaussians) for _ in range(size)] for _ in range(size)]
    return [[draw(nonzero_gaussians) if draw(st.integers(0, 9)) < 3 else ZERO
             for _ in range(size)] for _ in range(size)]


@st.composite
def matrix_pairs(draw):
    size = draw(st.integers(1, 4))
    return draw(dense_lists(size)), draw(dense_lists(size))


def as_rows(lists):
    return tuple(tuple(r) for r in lists)


def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), QQi()) for j in range(n)]
            for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(), gaussians)
def test_matches_list_reference(pair, s):
    a, b = pair
    n = len(a)
    ma, mb = MatrixQQ.from_rows(a), MatrixQQ.from_rows(b)
    assert ma.rows == as_rows(a)
    assert ma.size == n
    assert all(ma.entry(i, j) == a[i][j] for i in range(n) for j in range(n))
    assert (ma * mb).rows == as_rows(ref_mul(a, b))
    assert ma * mb == dense_matrix_product(ma, mb)
    assert (ma + mb).rows == as_rows([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert (ma - mb).rows == as_rows([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert (-ma).rows == as_rows([[-x for x in r] for r in a])
    for scalar in (s, s.re.numerator, s.re, 0):
        want = as_rows([[x * scalar for x in r] for r in a])
        assert (ma * scalar).rows == want
        assert (scalar * ma).rows == want
    assert ma.trace() == sum((a[i][i] for i in range(n)), QQi())
    assert ma.conj_transpose().rows == as_rows([[a[j][i].conj() for j in range(n)]
                                                for i in range(n)])
    assert ma.transpose().rows == as_rows([[a[j][i] for j in range(n)] for i in range(n)])
    assert bool(ma) == any(x for r in a for x in r)
    assert ma.kron(mb) == kron(ma, mb)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_values_built_different_ways_compare_and_hash_equal(pair):
    a, b = (MatrixQQ.from_rows(x) for x in pair)
    n = a.size
    same = [
        (a * qi(3)) * qi(Fraction(1, 3)),
        (a * 2) * Fraction(1, 2),
        (a * qi(0, 1)) * qi(0, -1),
        a + b - b,
        -(-a),
        MatrixQQ.identity(n) * a,
        a * MatrixQQ.identity(n),
        MatrixQQ(a.rows),
        pickle.loads(pickle.dumps(a)),
    ]
    for m in same:
        assert m == a
        assert hash(m) == hash(a)
    assert a - a == MatrixQQ.zero(n)
    assert hash(a - a) == hash(MatrixQQ.zero(n))
    assert a * 0 == MatrixQQ.zero(n)


def test_entries_are_coerced_and_exact():
    m = MatrixQQ.from_rows([[1, Fraction(1, 2)], [qi(0, Fraction(2, 3)), 0]])
    assert m.rows == ((qi(1), qi(Fraction(1, 2))), (qi(0, Fraction(2, 3)), ZERO))
    assert m.entry(1, 0) == qi(0, Fraction(2, 3))
    assert m.entry(1, -1) == ZERO
    with pytest.raises(TypeError):
        MatrixQQ.from_rows([[1.5]])
    with pytest.raises(ValueError, match="square"):
        MatrixQQ.from_rows([[1, 2]])
    with pytest.raises(IndexError):
        m.entry(0, 2)


def test_constructors():
    assert MatrixQQ.zero(3).rows == ((ZERO,) * 3,) * 3
    assert MatrixQQ.identity(2).rows == ((qi(1), ZERO), (ZERO, qi(1)))
    assert MatrixQQ.unit(2, 0, 1).rows == ((ZERO, qi(1)), (ZERO, ZERO))
    assert not MatrixQQ.zero(3)
    assert MatrixQQ.identity(3).trace() == qi(3)


def test_unit_outside_the_index_range_rejected():
    for i, j in ((5, 0), (0, -1)):
        with pytest.raises(ValueError, match=r"outside 0\.\.1"):
            MatrixQQ.unit(2, i, j)
    for i in range(2):
        for j in range(2):
            assert MatrixQQ.unit(2, i, j).rows == tuple(
                tuple(qi(int((r, c) == (i, j))) for c in range(2)) for r in range(2))


def test_instances_are_immutable():
    m = MatrixQQ.identity(2)
    with pytest.raises(AttributeError):
        m.rows = ()
    with pytest.raises(AttributeError):
        m._d = 2
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        del m._n
    assert m == MatrixQQ.identity(2)


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_mismatched_sizes_rejected(op):
    a, b = MatrixQQ.identity(2), MatrixQQ.identity(3)
    apply = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}[op]
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match=r"matrix sizes differ: \d and \d") as err:
            apply(x, y)
        assert {"2", "3"} <= set(str(err.value))
