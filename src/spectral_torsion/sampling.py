"""Seeded random inputs for property checks and the CLI verify mode."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Optional

from .matrices import MatrixQQ
from .qmodels import TorusElement
from .scalars import QQi, qi
from .torsion import OneForm, TorsionTensor

_NUMERATORS = tuple(range(-9, 10))
_DENOMINATORS = (1, 2, 3)


def random_fraction(rng: Random, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
        if f or not nonzero:
            return f


def random_qqi(rng: Random, nonzero: bool = False) -> QQi:
    while True:
        v = QQi(random_fraction(rng), random_fraction(rng))
        if v or not nonzero:
            return v


def random_torsion(rng: Random, dim: int, sparsity: float = 0.7) -> TorsionTensor:
    entries = {}
    for key in combinations(range(1, dim + 1), 3):
        if rng.random() < sparsity:
            f = random_fraction(rng)
            if f:
                entries[key] = f
    return TorsionTensor(dim, entries)


def random_one_form(rng: Random, dim: int, nonzero: bool = True) -> OneForm:
    while True:
        comps = tuple(random_fraction(rng) for _ in range(dim))
        if any(comps) or not nonzero:
            return OneForm(dim, comps)


def random_anti_hermitian_traceless(rng: Random, size: int) -> MatrixQQ:
    """Random su(N)-like matrix over Gaussian rationals."""
    rows = [[qi(0) for _ in range(size)] for _ in range(size)]
    diag = [random_fraction(rng) for _ in range(size - 1)]
    for i in range(size - 1):
        rows[i][i] = QQi(Fraction(0), diag[i])
    rows[size - 1][size - 1] = QQi(Fraction(0), -sum(diag, Fraction(0)))
    for i in range(size):
        for j in range(i + 1, size):
            v = random_qqi(rng)
            rows[i][j] = v
            rows[j][i] = QQi(-v.re, v.im)
    return MatrixQQ.from_rows(rows)


def random_theta(rng: Random, dim: int):
    rows = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = rng.uniform(-1.0, 1.0)
            rows[i][j] = v
            rows[j][i] = -v
    return tuple(tuple(row) for row in rows)


def random_torus_h(rng: Random, theta, max_modes: int = 2) -> TorusElement:
    """Self-adjoint torus element with at most 2*max_modes Fourier modes."""
    n = len(theta)
    x = TorusElement(theta)
    for _ in range(rng.randint(1, max_modes)):
        p = tuple(rng.randint(-2, 2) for _ in range(n))
        if not any(p):
            p = (1,) + (0,) * (n - 1)
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        x = x + TorusElement.weyl(theta, p, c)
    return x + x.adjoint()


def seeded(seed: Optional[int]) -> Random:
    return Random(0 if seed is None else seed)
