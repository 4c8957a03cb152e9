"""Exact complex-rational matrices, held fraction-free and sparse.

Coefficient algebras for symbols (matrix algebras M_N, endomorphism algebras of
M_N) are represented as square matrices with Gaussian-rational entries.  The
interface matches what the Clifford layer expects from a coefficient: ring
arithmetic, scalar action by QQi, a trace() method and truthiness as a zero
test.

A matrix is one common denominator d > 0 and, per row, one flat tuple of ints
holding its nonzero entries as (column, re, im) triples back to back, in
ascending column order: entry (i, j) is (re + im*i)/d.  The form is canonical
-- d and all the numerators have gcd 1 -- so equal matrices have equal fields
and `==` and `hash` are structural.  Arithmetic works on the ints: a product
visits only pairs of nonzero entries and reduces once per result, and no QQi
is made until an entry, a trace or `rows` is read.  A stored matrix is at most
n + 2 objects for the garbage collector, however many entries it holds: a tuple
per entry would put hundreds of short-lived tracked objects into every
symbol operation, and with them more collector passes.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence, Tuple

from .scalars import QQi, ScalarLike, _operand, _reduced

Row = Tuple[int, ...]   # column, re, im, column, re, im, ...

_ZERO = QQi()


class MatrixQQ:
    """Square matrix over the Gaussian rationals; instances are immutable."""

    __slots__ = ("_n", "_d", "_rows")

    def __init__(self, rows: Iterable[Sequence[ScalarLike]]) -> None:
        dense = tuple(tuple(QQi.coerce(x) for x in r) for r in rows)
        n = len(dense)
        for r in dense:
            if len(r) != n:
                raise ValueError("matrix must be square")
        # over the lcm of the entries' reduced denominators the form is already
        # canonical: for each prime, the entry holding its highest power keeps
        # a numerator coprime to it and is not multiplied up (as in QQi)
        d = lcm(*(x._d for r in dense for x in r))
        rows = []
        for r in dense:
            flat = []
            for j, x in enumerate(r):
                if x:
                    s = d // x._d
                    flat += (j, x._a * s, x._b * s)
            rows.append(tuple(flat))
        _set_n(self, n)
        _set_d(self, d)
        _set_rows(self, tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError(f"MatrixQQ is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MatrixQQ is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (_make, (self._n, self._d, self._rows))

    @staticmethod
    def from_rows(rows: Iterable[Sequence[ScalarLike]]) -> "MatrixQQ":
        return MatrixQQ(rows)

    @staticmethod
    def zero(n: int) -> "MatrixQQ":
        return _make(n, 1, ((),) * n)

    @staticmethod
    def identity(n: int) -> "MatrixQQ":
        return _make(n, 1, tuple((i, 1, 0) for i in range(n)))

    @staticmethod
    def unit(n: int, i: int, j: int) -> "MatrixQQ":
        """Matrix unit E_ij (0-based)."""
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"matrix unit index ({i}, {j}) outside 0..{n - 1}")
        return _make(n, 1, tuple((j, 1, 0) if r == i else () for r in range(n)))

    @property
    def size(self) -> int:
        return self._n

    @property
    def rows(self) -> Tuple[Tuple[QQi, ...], ...]:
        """The entries as dense rows of QQi, built on each read."""
        n, d = self._n, self._d
        out = []
        for row in self._rows:
            dense = [_ZERO] * n
            for j, a, b in _entries(row):
                dense[j] = _reduced(a, b, d)
            out.append(tuple(dense))
        return tuple(out)

    def _same_size(self, other: "MatrixQQ") -> int:
        if self._n != other._n:
            raise ValueError(f"matrix sizes differ: {self._n} and {other._n}")
        return self._n

    def _combine(self, other: "MatrixQQ", sign: int) -> "MatrixQQ":
        """self + sign * other."""
        n = self._same_size(other)
        d, e = self._d, other._d
        g = gcd(d, e)
        s, t = e // g, sign * (d // g)
        out = []
        for ra, rb in zip(self._rows, other._rows):
            if not rb:
                out.append(_scaled_row(ra, s, 0))
            elif not ra:
                out.append(_scaled_row(rb, t, 0))
            else:
                re, im = [0] * n, [0] * n
                for j, a, b in _entries(ra):
                    re[j], im[j] = a * s, b * s
                for j, a, b in _entries(rb):
                    re[j] += a * t
                    im[j] += b * t
                out.append(_collect(re, im))
        return _canonical(n, d * s, tuple(out))

    def __add__(self, other: "MatrixQQ") -> "MatrixQQ":
        return self._combine(other, 1)

    def __sub__(self, other: "MatrixQQ") -> "MatrixQQ":
        return self._combine(other, -1)

    def __neg__(self) -> "MatrixQQ":
        return _make(self._n, self._d, tuple(_scaled_row(row, -1, 0) for row in self._rows))

    def __mul__(self, other):
        if isinstance(other, MatrixQQ):
            return self._matmul(other)
        s = _operand(other)
        if s is None:
            return NotImplemented
        c, e = s._a, s._b
        if not (c or e):
            return MatrixQQ.zero(self._n)
        return _canonical(self._n, self._d * s._d,
                          tuple(_scaled_row(row, c, e) for row in self._rows))

    def __rmul__(self, other):
        # reached only for a left operand that is not a MatrixQQ; scalars commute
        if _operand(other) is None:
            return NotImplemented
        return self * other

    def _matmul(self, other: "MatrixQQ") -> "MatrixQQ":
        # row i of the product is sum_k a_ik * (row k of other), over the
        # nonzero a_ik and the nonzero entries of each such row
        n = self._same_size(other)
        brows = other._rows
        out = []
        for row in self._rows:
            if len(row) == 3:
                k, a, b = row
                out.append(_scaled_row(brows[k], a, b))
                continue
            re, im = [0] * n, [0] * n
            it = iter(row)
            for k, a, b in zip(it, it, it):
                bt = iter(brows[k])
                for j, c, e in zip(bt, bt, bt):
                    re[j] += a * c - b * e
                    im[j] += a * e + b * c
            out.append(_collect(re, im))
        return _canonical(n, self._d * other._d, tuple(out))

    def kron(self, other: "MatrixQQ") -> "MatrixQQ":
        """Kronecker product: entry (i*m + k, j*m + l) is self[i, j] * other[k, l],
        with m = other.size."""
        m = other._n
        out = []
        for ra in self._rows:
            for rb in other._rows:
                flat = []
                for j, a, b in _entries(ra):
                    for l, c, e in _entries(rb):
                        flat += (j * m + l, a * c - b * e, a * e + b * c)
                out.append(tuple(flat))
        return _canonical(self._n * m, self._d * other._d, tuple(out))

    def __bool__(self) -> bool:
        return any(self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, MatrixQQ):
            return (self._n == other._n and self._d == other._d
                    and self._rows == other._rows)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._d, self._rows))

    def __repr__(self) -> str:
        return f"MatrixQQ(rows={self.rows!r})"

    def trace(self) -> QQi:
        return sum((self.entry(i, i) for i in range(self._n)), QQi())

    def _transposed(self, conj: bool) -> "MatrixQQ":
        cols = [[] for _ in range(self._n)]
        for i, row in enumerate(self._rows):
            for j, a, b in _entries(row):
                cols[j] += (i, a, -b if conj else b)
        return _make(self._n, self._d, tuple(tuple(c) for c in cols))

    def transpose(self) -> "MatrixQQ":
        return self._transposed(False)

    def conj_transpose(self) -> "MatrixQQ":
        return self._transposed(True)

    def is_anti_hermitian(self) -> bool:
        return self.conj_transpose() == -self

    def entry(self, i: int, j: int) -> QQi:
        j = range(self._n)[j]
        for k, a, b in _entries(self._rows[i]):
            if k >= j:
                return _reduced(a, b, self._d) if k == j else _ZERO
        return _ZERO


_set_n, _set_d, _set_rows = (MatrixQQ._n.__set__, MatrixQQ._d.__set__,
                             MatrixQQ._rows.__set__)


def _make(n: int, d: int, rows: Tuple[Row, ...]) -> MatrixQQ:
    """A MatrixQQ from fields already in canonical form, skipping __init__."""
    m = object.__new__(MatrixQQ)
    _set_n(m, n)
    _set_d(m, d)
    _set_rows(m, rows)
    return m


def _entries(row: Row):
    """The (column, re, im) triples of a flat row."""
    it = iter(row)
    return zip(it, it, it)


def _scaled_row(row: Row, c: int, e: int) -> Row:
    """The row times c + e*i, for c + e*i != 0 (so no entry becomes zero)."""
    if e == 0 and c == 1:
        return row
    flat = []
    it = iter(row)
    if e:
        for j, a, b in zip(it, it, it):
            flat += (j, a * c - b * e, a * e + b * c)
    else:
        for j, a, b in zip(it, it, it):
            flat += (j, a * c, b * c)
    return tuple(flat)


def _collect(re: list, im: list) -> Row:
    """The flat row of the nonzero (re[j], im[j])."""
    flat = []
    for j, a in enumerate(re):
        b = im[j]
        if a or b:
            flat += (j, a, b)
    return tuple(flat)


def _canonical(n: int, d: int, rows: Tuple[Row, ...]) -> MatrixQQ:
    """The matrix rows / d for d > 0, divided through by the gcd of d and every
    numerator (zero entries already dropped)."""
    if d != 1:
        g = d
        for row in rows:
            g = gcd(g, *row[1::3], *row[2::3])
            if g == 1:
                return _make(n, d, rows)
        d //= g
        rows = tuple(tuple(x if p % 3 == 0 else x // g for p, x in enumerate(row))
                     for row in rows)
    return _make(n, d, rows)
