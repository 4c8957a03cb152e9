"""Tests of the benchmark itself: its checkers, its inputs, its trace and its contract.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import (WORKLOADS, digest, scan_expected, spanning_labels,  # noqa: E402
                       sphere_volume, torsion_expected)


def test_frame_anchors():
    for n, want in ((3, ((0, -24), 1)), (4, ((0, -12), 2))):
        frame = [tuple(Fraction(int(i == a)) for i in range(1, n + 1)) for a in (1, 2, 3)]
        assert torsion_expected(n, (((1, 2, 3), Fraction(1)),), *frame) == want


@pytest.mark.parametrize("n", range(2, 11))
def test_sphere_volume(n):
    rational, pipow = sphere_volume(n)
    assert math.isclose(float(rational) * math.pi ** pipow,
                        2 * math.pi ** (n / 2) / math.gamma(n / 2))


@pytest.mark.parametrize("n", (4, 6))
def test_scan_expected_zero_without_phi_and_chain_count(n):
    labels = spanning_labels(n)
    triples = [(a, b, c) for a in labels for b in labels for c in labels]
    assert all(scan_expected(t, Fraction(0), n) == 0 for t in triples)
    # off-diagonal chains: one off-diagonal form with a repeated frame index
    # (3 positions x 2 sheets x n), plus the two all-off-diagonal chains
    nonzero = [t for t in triples if scan_expected(t, Fraction(1), n)]
    assert len(nonzero) == 6 * n + 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seeded(name):
    w = WORKLOADS[name]
    assert w.inputs(1, "main", 0) == w.inputs(1, "main", 0)
    assert digest(w.inputs(1, "main", 0)) == digest(w.inputs(1, "main", 0))
    assert digest(w.inputs(1, "main", 0)) != digest(w.inputs(2, "main", 0))
    assert digest(w.inputs(1, "main", 0)) != digest(w.inputs(1, "main", 1))


def test_tail_keeps_ten_samples_above():
    xs = list(range(50))
    value, pct = run.tail(xs)
    assert value == 39 and len([x for x in xs if x > value]) == 10
    assert run.tail(list(range(12)))[0] == 6   # never below the median


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _traced(name, seed):
    proc = _run("--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    first, second = _traced(name, 7), _traced(name, 7)
    counts = [m for m, unit, _ in PER_LAYER if unit != "s" and m != "bench.trace_overhead"]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    layer_fires = {"matrices": name == "eym_gauge", "qmodels": name == "float_models",
                   "scalars": name != "float_models"}
    for layer, fires in layer_fires.items():
        for m, _, _ in PER_LAYER:
            if m.startswith(layer + ".") and not m.endswith(".errors"):
                assert bool(first[m]) == fires, m


def test_uninstall_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    import spectral_torsion.cli  # noqa: F401
    from tracer import Tracer

    def snapshot():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name.startswith("spectral_torsion") for owner in
                (mod, *(v for v in vars(mod).values() if isinstance(v, type)))
                for attr, value in vars(owner).items()}

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "torsion_sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
