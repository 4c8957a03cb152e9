"""Golden corpus: exact outputs frozen in tests/golden/corpus.json, recomputed here.

Each case holds its inputs inline (see tests/golden/build_corpus.py for how they
were drawn), so a refactor of the exact layers must reproduce every value and
its CLI rendering bit for bit, and build_corpus.py must print the committed
corpus again.  The masked CLI reports frozen under tests/golden/reports must
likewise come back byte for byte.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spectral_torsion.almostcommutative import (DoubledOneForm, EymModel, MatrixOneForm,
                                                DoubledEvaluator, eym_torsion_density)
from spectral_torsion.cli import main, scalar_json
from spectral_torsion.matrices import MatrixQQ
from spectral_torsion.scalars import QQi
from spectral_torsion.torsion import (OneForm, TorsionTensor, chirality_functional,
                                      metric_functional, torsion_functional,
                                      volume_functional)

from oracle import jet_torsion_functional

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "corpus.json").read_text())["cases"]


def rat(pair) -> Fraction:
    return Fraction(*pair)


def gauss(d) -> QQi:
    return QQi(rat(d["re"]), rat(d["im"]))


def form(dim: int, comps) -> OneForm:
    return OneForm(dim, tuple(gauss(c) for c in comps))


def matrix(rows) -> MatrixQQ:
    return MatrixQQ(tuple(tuple(gauss(x) for x in r) for r in rows))


def tensor(dim: int, entries) -> TorsionTensor:
    return TorsionTensor(dim, {tuple(k): rat(v) for k, v in entries})


def evaluate(case):
    kind, dim = case["kind"], case["dim"]
    if kind == "torsion":
        args = (form(dim, case["u"]), form(dim, case["v"]), form(dim, case["w"]),
                tensor(dim, case["torsion"]), dim)
        if "jet" in case:
            return jet_torsion_functional(*args, {tuple(k): rat(v) for k, v in case["jet"]})
        return torsion_functional(*args)
    if kind == "chirality":
        return chirality_functional(form(dim, case["u"]), tensor(dim, case["torsion"]))
    if kind == "metric":
        return metric_functional(form(dim, case["u"]), form(dim, case["v"]), dim)
    if kind == "volume":
        return volume_functional(gauss(case["f"]), dim)
    if kind == "doubled":
        phi = gauss(case["phi"])
        forms = (DoubledOneForm(dim, form(dim, f["wplus"]), form(dim, f["wminus"]),
                                gauss(f["fplus"]), gauss(f["fminus"]), phi)
                 for f in case["forms"])
        return DoubledEvaluator(dim).residue(*forms)
    if kind == "eym":
        model = EymModel(dim, case["size"], tuple(matrix(x) for x in case["gauge"]))
        return eym_torsion_density(model, *(MatrixOneForm(dim, tuple(matrix(x) for x in c))
                                            for c in case["forms"]))
    raise AssertionError(f"unknown corpus kind {kind!r}")


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: f"{c['kind']}-n{c['dim']}")
def test_corpus_value_is_reproduced_exactly(case):
    got = evaluate(case)
    want = case["value"]
    assert (got.dim, got.vpow) == (case["dim"], want["vpow"])
    assert (got.mult.re, got.mult.im) == (rat(want["mult"]["re"]), rat(want["mult"]["im"]))
    assert scalar_json(got) == want["json"]


def test_corpus_is_what_build_corpus_prints():
    """build_corpus.py, run in a fresh interpreter, prints corpus.json byte for byte."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, str(GOLDEN / "build_corpus.py")],
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "corpus.json").read_bytes()


REPORTS = GOLDEN / "reports"
MASKED_REPORTS = {
    "eval-frame.json": ["eval", "--config", str(REPORTS / "eval-frame.config.json")],
    "eval-band-7.json": ["eval", "--config", str(REPORTS / "eval-band-7.config.json")],
    "eval-band-8.json": ["eval", "--config", str(REPORTS / "eval-band-8.config.json")],
    "verify-3-4-5.json": ["verify", "--dims", "3,4,5", "--trials", "5", "--seed", "1"],
    "verify-6-7-8.json": ["verify", "--dims", "6,7,8", "--trials", "3", "--seed", "1"],
    "doubled-4.json": ["examples", "doubled", "--dims", "4", "--phi", "1+2i"],
    "doubled-4-phi0.json": ["examples", "doubled", "--dims", "4", "--phi", "0"],
    "eym-2.json": ["examples", "eym", "--dims", "2", "--size", "2"],
    "eym-2-4-size3.json": ["examples", "eym", "--dims", "2,4", "--size", "3", "--trials", "2"],
    "nctorus-2-3.json": ["examples", "nctorus", "--dims", "2,3", "--trials", "2", "--K", "4"],
    "suq2-N200.json": ["examples", "suq2", "--N", "200"],
    "suq2-N2.json": ["examples", "suq2", "--N", "2"],
}


@pytest.mark.parametrize("name", sorted(MASKED_REPORTS))
def test_masked_report_is_reproduced_byte_for_byte(name, capsys):
    """The frozen reports under tests/golden/reports, rerun with --mask-timing."""
    code = main(MASKED_REPORTS[name] + ["--mask-timing"])
    want = (REPORTS / name).read_text()
    assert code == (0 if json.loads(want)["pass"] else 1)
    assert capsys.readouterr().out == want
