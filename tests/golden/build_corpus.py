"""Build the golden corpus of exact outputs: python tests/golden/build_corpus.py > corpus.json

Draws seeded inputs, evaluates every functional the corpus covers and prints one
JSON document in which each case carries its inputs inline, so the corpus reads
back without `spectral_torsion.sampling`.  Exact scalars use the CLI's encoding
(`{"re": [num, den], "im": [num, den]}`).  tests/test_golden.py recomputes every
case and requires exact equality; the committed corpus changes only as a
reviewed event, never to make that test pass.  The curvature jet and the
functional with a connection jet come from the test oracle (tests/oracle.py);
the script puts tests/ on the import path itself, so only `src` need be on
PYTHONPATH.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from spectral_torsion.almostcommutative import (DoubledOneForm, EymModel, MatrixOneForm,
                                                DoubledEvaluator, eym_torsion_density)
from spectral_torsion.cli import scalar_json
from spectral_torsion.sampling import (random_anti_hermitian_traceless, random_one_form,
                                       random_qqi, random_torsion, seeded)
from spectral_torsion.scalars import qi
from spectral_torsion.torsion import (chirality_functional, metric_functional,
                                      torsion_functional, volume_functional)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from oracle import CurvatureJet, jet_torsion_functional  # noqa: E402

SEED = 2023


def rat(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def gauss(z) -> dict:
    return {"re": rat(z.re), "im": rat(z.im)}


def form(f) -> list:
    return [gauss(c) for c in f.components]


def matrix(m) -> list:
    return [[gauss(x) for x in row] for row in m.rows]


def value(v) -> dict:
    """A ResidueValue: its exact multiplier of V(S^{n-1})^vpow and its CLI rendering."""
    return {"mult": gauss(v.mult), "vpow": v.vpow, "json": scalar_json(v)}


def constant_curvature_jet(dim: int, lam: Fraction) -> dict:
    riem = {}
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            for c in range(1, dim + 1):
                for d in range(1, dim + 1):
                    v = lam * (int(a == c and b == d) - int(a == d and b == c))
                    if v:
                        riem[(a, b, c, d)] = v
    return CurvatureJet(dim, riem).spin_connection_linear()


def torsion_cases(rng) -> list:
    cases = []
    for dim in range(3, 9):
        for draw in range(2):
            t = random_torsion(rng, dim)
            u, v, w = (random_one_form(rng, dim) for _ in range(3))
            jet = constant_curvature_jet(dim, Fraction(1, 2)) if (dim, draw) == (4, 1) else None
            case = {"kind": "torsion", "dim": dim,
                    "torsion": [[list(k), rat(x)] for k, x in sorted(t.entries.items())],
                    "u": form(u), "v": form(v), "w": form(w)}
            if jet:
                case["jet"] = [[list(k), rat(x)] for k, x in sorted(jet.items())]
            case["value"] = value(jet_torsion_functional(u, v, w, t, dim, jet) if jet
                                  else torsion_functional(u, v, w, t, dim))
            cases.append(case)
    return cases


def chirality_cases(rng) -> list:
    cases = []
    for _ in range(2):
        t = random_torsion(rng, 4)
        u = random_one_form(rng, 4)
        cases.append({"kind": "chirality", "dim": 4,
                      "torsion": [[list(k), rat(x)] for k, x in sorted(t.entries.items())],
                      "u": form(u), "value": value(chirality_functional(u, t))})
    return cases


def metric_volume_cases(rng) -> list:
    cases = []
    for dim in (2, 4, 6):
        u, v = random_one_form(rng, dim), random_one_form(rng, dim)
        cases.append({"kind": "metric", "dim": dim, "u": form(u), "v": form(v),
                      "value": value(metric_functional(u, v, dim))})
        f = random_qqi(rng, nonzero=True)
        cases.append({"kind": "volume", "dim": dim, "f": gauss(f),
                      "value": value(volume_functional(f, dim))})
    return cases


def doubled_cases(rng) -> list:
    """The four-case table of `examples doubled` at phi = 1+2i, n = 4."""
    dim, phi = 4, qi(1, 2)
    w = [random_one_form(rng, dim) for _ in range(6)]
    f = [qi(Fraction(1, 2)), qi(2), qi(1), qi(Fraction(-1, 3)), qi(3), qi(1)]
    d = [DoubledOneForm.diagonal(w[2 * k], w[2 * k + 1], phi) for k in range(3)]
    o = [DoubledOneForm.off_diagonal(dim, f[2 * k], f[2 * k + 1], phi) for k in range(3)]
    table = [(d[0], d[1], d[2]), (d[0], d[1], o[2]), (d[0], o[1], o[2]), (o[0], o[1], o[2])]
    residue = DoubledEvaluator(dim).residue
    cases = []
    for k, triple in enumerate(table):
        cases.append({"kind": "doubled", "dim": dim, "case": k + 1, "phi": gauss(phi),
                      "forms": [{"wplus": form(x.wplus), "wminus": form(x.wminus),
                                 "fplus": gauss(x.fplus), "fminus": gauss(x.fminus)}
                                for x in triple],
                      "value": value(residue(*triple))})
    return cases


def eym_cases(rng) -> list:
    cases = []
    for dim, size in ((2, 2), (4, 2)):
        gauge = [random_anti_hermitian_traceless(rng, size) for _ in range(dim)]
        forms = [[random_anti_hermitian_traceless(rng, size) for _ in range(dim)]
                 for _ in range(3)]
        val = eym_torsion_density(EymModel(dim, size, tuple(gauge)),
                                  *(MatrixOneForm(dim, tuple(c)) for c in forms))
        cases.append({"kind": "eym", "dim": dim, "size": size,
                      "gauge": [matrix(x) for x in gauge],
                      "forms": [[matrix(x) for x in c] for c in forms],
                      "value": value(val)})
    return cases


def main() -> None:
    rng = seeded(SEED)
    cases = (torsion_cases(rng) + chirality_cases(rng) + metric_volume_cases(rng)
             + doubled_cases(rng) + eym_cases(rng))
    # one case per line, so a change to the corpus shows as a per-case diff
    body = ",\n".join(json.dumps(c) for c in cases)
    sys.stdout.write(f'{{"seed": {SEED}, "cases": [\n{body}\n]}}\n')


if __name__ == "__main__":
    main()
