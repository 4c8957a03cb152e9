"""End-to-end CLI checks: exit codes, report shape, determinism."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spectral_torsion.cli as cli
from spectral_torsion import qmodels
from spectral_torsion.almostcommutative import DoubledEvaluator
from spectral_torsion.cli import format_complex, main, scalar_json
from spectral_torsion.scalars import qi
from spectral_torsion.torsion import ResidueValue

from test_golden import MASKED_REPORTS, REPORTS

SRC = Path(__file__).resolve().parent.parent / "src"
INT_STR_LIMIT = sys.get_int_max_str_digits()


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


class TestFormatting:
    def test_format_complex(self):
        assert format_complex(3 + 0j) == "3"
        assert format_complex(-2.5j) == "-2.5i"
        assert format_complex(1 + 2j) == "1+2i"
        assert format_complex(1 - 2j) == "1-2i"
        assert format_complex(complex(math.pi, 0)) == "3.14159265358979"

    def test_scalar_json_of_residue(self):
        d = scalar_json(ResidueValue(qi(0, -6), 3))
        assert d["re"] == [0, 1]
        assert d["im"] == [-24, 1]
        assert d["piPow"] == 1
        assert d["numeric"].endswith("i")

    def test_scalar_json_of_plain_rational(self):
        d = scalar_json(qi(Fraction(3, 2)))
        assert d["re"] == [3, 2]
        assert d["im"] == [0, 1]
        assert d["piPow"] == 0
        assert d["numeric"] == "1.5"


class TestVerify:
    def test_n2_is_vacuous_and_passes(self, capsys):
        rc, rep, _ = run_json(capsys, "verify", "--dims", "2", "--mask-timing")
        assert rc == 0
        assert rep["pass"] is True
        assert any("vacuous" in c.get("note", "") for c in rep["checks"])

    def test_n3_reports_the_constant_mismatch(self, capsys):
        rc, rep, _ = run_json(capsys, "verify", "--dims", "3", "--trials", "2",
                              "--seed", "5", "--mask-timing")
        assert rc == 1
        names = {c["name"]: c for c in rep["checks"]}
        # stated closed form disagrees with the calculus on every trial
        assert not names["theorem-equality n=3 trial 0"]["pass"]
        assert not names["theorem-anchor n=3 frame triple"]["pass"]
        # yet the pipeline output has the contraction shape with a fixed constant
        assert names["pipeline-constant n=3 (2 trials)"]["pass"]
        # a trial whose contraction happens to vanish agrees on both sides,
        # so only a lower bound on failures is stable across seeds
        assert rep["counts"]["failed"] >= 2
        assert rep["pass"] is False

    def test_bad_dims_rejected(self, capsys):
        rc, _, err = run(capsys, "verify", "--dims", "9")
        assert rc == 2
        assert "invalid dimension" in err
        rc, _, err = run(capsys, "verify", "--dims", "x")
        assert rc == 2


class TestEval:
    @staticmethod
    def _write(tmp_path, payload):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_frame_anchor_value(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "dims": [3],
            "torsion": [{"indices": [1, 2, 3], "value": "1"}],
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, rep, _ = run_json(capsys, "eval", "--config", cfg, "--mask-timing")
        assert rc == 0
        check = rep["checks"][0]
        assert check["computed"]["im"] == [-24, 1]
        assert check["computed"]["piPow"] == 1
        assert check["computed"]["display"].startswith("(-6i)*V(S^2)")

    def test_zero_torsion_gives_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "dims": [4],
            "u": ["1", "0", "0", "0"], "v": ["0", "1", "0", "0"],
            "w": ["0", "0", "1", "0"]})
        rc, rep, _ = run_json(capsys, "eval", "--config", cfg, "--mask-timing")
        assert rc == 0
        assert rep["checks"][0]["computed"]["re"] == [0, 1]
        assert rep["checks"][0]["computed"]["im"] == [0, 1]

    def test_missing_forms_rejected(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {"dims": [3]})
        rc, _, err = run(capsys, "eval", "--config", cfg)
        assert rc == 2
        assert "needs u, v, w" in err

    def test_non_increasing_triple_rejected(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "dims": [3],
            "torsion": [{"indices": [1, 1, 2], "value": "1"}],
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert rc == 2
        assert "non-increasing index triple: [1, 1, 2]" in err
        assert out == ""

    def test_wrong_component_count_rejected(self, tmp_path, capsys):
        cfg = self._write(tmp_path, {
            "dims": [3],
            "u": ["1", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, _, err = run(capsys, "eval", "--config", cfg)
        assert rc == 2
        assert "one-form u" in err


class TestExamples:
    def test_eym_passes_on_even_dims(self, capsys):
        rc, rep, _ = run_json(capsys, "examples", "eym", "--dims", "2",
                              "--size", "2", "--trials", "2", "--mask-timing")
        assert rc == 0
        assert rep["pass"] is True
        assert any(c["name"].startswith("eym-density") for c in rep["checks"])

    def test_eym_default_dims_are_even(self, capsys):
        rc, rep, _ = run_json(capsys, "examples", "eym")
        assert rc == 0
        assert rep["config"]["dims"] == [2, 4]
        assert rep["pass"] is True

    def test_eym_rejects_odd_dim(self, capsys):
        rc, _, err = run(capsys, "examples", "eym", "--dims", "3")
        assert rc == 2
        assert "even" in err

    def test_eym_rejects_odd_dim_before_any_density(self, capsys, monkeypatch):
        # the n=2 densities used to run before n=3 was refused
        calls = []
        monkeypatch.setattr(cli, "eym_torsion_density", lambda *a: calls.append(a))
        rc, out, err = run(capsys, "examples", "eym", "--dims", "2,3")
        assert (rc, out, calls) == (2, "", [])
        assert "even" in err

    def test_doubled_rejects_odd_dim(self, capsys):
        rc, out, err = run(capsys, "examples", "doubled", "--dims", "3")
        assert (rc, out) == (2, "")
        assert "even" in err

    def test_doubled_four_cases(self, capsys):
        rc, rep, _ = run_json(capsys, "examples", "doubled", "--dims", "2",
                              "--phi", "1+2i", "--mask-timing")
        assert rc == 0
        names = [c["name"] for c in rep["checks"]]
        assert names[:4] == ["case-1 diag,diag,diag", "case-2 diag,diag,off",
                             "case-3 diag,off,off", "case-4 off,off,off"]
        assert rep["checks"][-1]["name"] == "torsion-free iff phi=0"

    def test_doubled_with_zero_phi_is_torsion_free(self, capsys):
        rc, rep, _ = run_json(capsys, "examples", "doubled", "--dims", "2",
                              "--phi", "0", "--mask-timing")
        assert rc == 0
        last = rep["checks"][-1]
        assert last["computed"] == "True"

    def test_doubled_builds_one_evaluator(self, capsys, monkeypatch):
        # the torsion-free scan reads the runner's evaluator instead of building a second
        builds = []
        init = DoubledEvaluator.__init__

        def counting(self, dim):
            builds.append(dim)
            init(self, dim)
        monkeypatch.setattr(DoubledEvaluator, "__init__", counting)
        rc, _, _ = run(capsys, "examples", "doubled", "--dims", "2", "--phi", "0")
        assert (rc, builds) == (0, [2])

    @pytest.mark.parametrize("big_n, code", [("2000", 0), ("2", 1)])
    def test_suq2_traces_each_sample_twice(self, capsys, monkeypatch, big_n, code):
        # 5 samples at N and N//2; the pairings read the samples' reports or errors
        calls = []
        trace = qmodels.disc_truncated_trace

        def counting(x, n):
            calls.append(n)
            return trace(x, n)
        monkeypatch.setattr(qmodels, "disc_truncated_trace", counting)
        rc, _, _ = run(capsys, "examples", "suq2", "--N", big_n)
        assert (rc, len(calls)) == (code, 10)

    def test_nctorus_residuals(self, capsys):
        rc, rep, _ = run_json(capsys, "examples", "nctorus", "--dims", "2",
                              "--trials", "2", "--mask-timing")
        assert rc == 0
        assert all(float(c["residual"]) < 1e-10 for c in rep["checks"])

    def test_suq2_cancellation_and_zeta(self, capsys):
        rc, rep, _ = run_json(capsys, "examples", "suq2", "--N", "600",
                              "--mask-timing")
        assert rc == 0
        names = [c["name"] for c in rep["checks"]]
        assert "cancellation x=1" in names
        assert "zeta-finite s=3.5 (tail ratio)" in names
        assert "zeta-growth s=2.5" in names

    def test_suq2_rejects_bad_q(self, capsys):
        rc, _, err = run(capsys, "examples", "suq2", "--q", "1.5")
        assert rc == 2
        assert "q must lie in (0,1)" in err


class TestCommandTable:
    """COMMANDS is the one list of commands: the parser and the dispatch read it."""

    @pytest.mark.parametrize("name", [n for n in cli.COMMANDS if n != "eval"])
    def test_every_command_runs_with_no_options(self, capsys, name):
        argv = [name] if cli.COMMANDS[name].help else ["examples", name]
        rc, rep, err = run_json(capsys, *argv, "--mask-timing")
        assert rc in (0, 1)
        assert rc == (0 if rep["pass"] else 1)
        assert rep["config"]["dims"] == list(cli.COMMANDS[name].dims)
        assert err == ""

    def test_eval_with_no_options_needs_forms(self, capsys):
        rc, out, err = run(capsys, "eval")
        assert (rc, out) == (2, "")
        assert "eval needs u, v, w" in err

    def test_example_choices_are_the_table_rows(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        assert list(sub.choices) == ["verify", "eval", "examples"]
        which = next(a for a in sub.choices["examples"]._actions if a.dest == "which")
        assert which.choices == [n for n in cli.COMMANDS if n not in ("verify", "eval")]


class TestInputHardening:
    """Bad numeric options are usage errors (exit 2), never a traceback or a vacuous pass."""

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_eym_size_below_one_rejected(self, capsys, size):
        rc, out, err = run(capsys, "examples", "eym", "--size", size)
        assert rc == 2
        assert f"size must be >= 1, got {size}" in err
        assert out == ""

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000,
                                         b'{"trials": 1' + b"0" * 5000 + b"}"],
                             ids=["utf16-bom", "deep-nesting", "long-integer"])
    def test_undecodable_config_file_rejected(self, tmp_path, capsys, content):
        # these raised UnicodeDecodeError, RecursionError and ValueError: exit 3
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        rc, out, err = run(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1

    def test_unwritable_out_leaves_stdout_empty(self, tmp_path, capsys):
        # a directory cannot be opened for writing, and the report must not
        # reach stdout before the write fails
        rc, out, err = run(capsys, "verify", "--dims", "2", "--out", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot write report: ")

    def test_non_integer_trials_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": "abc"}))
        rc, out, err = run(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert "trials must be an integer, got 'abc'" in err
        assert out == ""

    def test_non_numeric_q_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": "abc"}))
        rc, out, err = run(capsys, "examples", "suq2", "--config", str(cfg))
        assert rc == 2
        assert "bad q value 'abc'" in err
        assert out == ""

    def test_suq2_n_zero_rejected(self, capsys):
        # N and N//2 coincide at 0, so the convergence check compared N with itself
        rc, out, err = run(capsys, "examples", "suq2", "--N", "0")
        assert rc == 2
        assert "N must be >= 2, got 0" in err
        assert out == ""

    def test_suq2_negative_n_rejected(self, capsys):
        rc, out, err = run(capsys, "examples", "suq2", "--N", "-5")
        assert rc == 2
        assert "N must be >= 2, got -5" in err
        assert out == ""

    def test_nctorus_negative_k_rejected(self, capsys):
        # K = -1 left the series empty, so every residual read 0
        rc, out, err = run(capsys, "examples", "nctorus", "--K", "-1")
        assert rc == 2
        assert "K must be >= 0, got -1" in err
        assert out == ""

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_nctorus_k_below_two_rejected(self, capsys, k):
        # t-orders 0 and 1 vanish for every h, so K = 0 or 1 checked nothing
        rc, out, err = run(capsys, "examples", "nctorus", "--K", k)
        assert rc == 2
        assert f"K must be >= 2 (orders 0 and 1 vanish for every h), got {k}" in err
        assert out == ""

    def test_suq2_unconverged_truncation_is_a_failed_check(self, capsys):
        rc, out, err = run(capsys, "examples", "suq2", "--N", "2", "--mask-timing")
        assert rc == 1
        assert "Traceback" not in err
        rep = json.loads(out)
        failed = [c for c in rep["checks"] if not c["pass"]]
        assert failed and rep["counts"]["failed"] == len(failed)
        assert all("tau0 truncations at N=2 and N=1 differ" in c["note"] for c in failed)

    def test_eval_with_two_dims_rejected(self, tmp_path, capsys):
        # eval runs at one n; the report would echo both
        cfg = TestEval._write(tmp_path, {
            "dims": [3, 4],
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert rc == 2
        assert "eval takes one dimension, got dims [3, 4]" in err
        assert out == ""

    def test_doubled_with_two_dims_rejected(self, capsys):
        rc, out, err = run(capsys, "examples", "doubled", "--dims", "4,6")
        assert rc == 2
        assert "examples doubled takes one dimension, got dims [4, 6]" in err
        assert out == ""

    def test_single_dim_commands_default_to_one_dim(self, tmp_path, capsys):
        rc, rep, _ = run_json(capsys, "examples", "doubled", "--phi", "0")
        assert rc == 0
        assert rep["config"]["dims"] == [4]
        cfg = TestEval._write(tmp_path, {
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, rep, _ = run_json(capsys, "eval", "--config", cfg)
        assert rc == 0
        assert rep["config"]["dims"] == [3]
        assert [c["name"] for c in rep["checks"]] == ["eval n=3"]

    def test_huge_torsion_value_keeps_exact_parts(self, tmp_path, capsys):
        # 1e400 exceeds the float range: the rendering saturates, the exact parts stay
        cfg = TestEval._write(tmp_path, {
            "dims": [3],
            "torsion": [{"indices": [1, 2, 3], "value": "1e400"}],
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, rep, err = run_json(capsys, "eval", "--config", cfg, "--mask-timing")
        assert rc == 0
        assert err == ""
        computed = rep["checks"][0]["computed"]
        assert computed["re"] == [0, 1]
        assert computed["im"] == [-24 * 10 ** 400, 1]
        assert computed["piPow"] == 1
        assert computed["numeric"] == "-infi"
        assert "nan" not in computed["display"]

    @pytest.mark.parametrize("dims", [3, {"3": 1}], ids=["int", "dict"])
    def test_non_list_dims_in_config_rejected(self, tmp_path, capsys, dims):
        # an int crashed (exit 3); a dict passed as the list of its keys
        cfg = TestEval._write(tmp_path, {
            "dims": dims, "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert (rc, out) == (2, "")
        assert f"dims must be a list or a comma-separated string, got {dims!r}" in err

    @pytest.mark.parametrize("u", [5, None, "100"], ids=["int", "null", "string"])
    def test_non_list_one_form_in_config_rejected(self, tmp_path, capsys, u):
        cfg = TestEval._write(tmp_path, {
            "dims": [3], "u": u, "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert (rc, out) == (2, "")
        assert f"one-form u must be a list of components, got {u!r}" in err

    @pytest.mark.parametrize("torsion, message", [
        (5, "torsion must be a list of entries, got 5"),
        ([{"indices": "123", "value": "1"}],
         "malformed torsion entry {'indices': '123', 'value': '1'}"),
    ], ids=["int", "string-indices"])
    def test_non_list_torsion_in_config_rejected(self, tmp_path, capsys, torsion, message):
        cfg = TestEval._write(tmp_path, {
            "dims": [3], "torsion": torsion,
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert (rc, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("torsion, message", [
        ([{"indices": [1.5, 2, 3], "value": "1"}], "torsion index must be an integer, got 1.5"),
        ([{"indices": [True, 2, 3], "value": "1"}], "torsion index must be an integer, got True"),
        ([{"indices": [1, 2, 3], "value": "1"}, {"indices": [1, 2, 3], "value": "2"}],
         "repeated torsion index triple: [1, 2, 3]"),
    ], ids=["float-index", "bool-index", "repeated-triple"])
    def test_bad_torsion_entry_rejected(self, tmp_path, capsys, torsion, message):
        # each of these was read as T_123 (the repeat keeping its last value) and exited 0
        cfg = TestEval._write(tmp_path, {
            "dims": [3], "torsion": torsion,
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("literal", ["1e999999999", "1e-999999999"])
    def test_huge_exponent_in_one_form_rejected(self, tmp_path, capsys, literal):
        # parsed as written, 10**999999999 ran for minutes and kept growing
        cfg = TestEval._write(tmp_path, {
            "dims": [3], "u": [literal, "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert (rc, out) == (2, "")
        assert "malformed one-form u" in err

    @pytest.mark.parametrize("torsion, comp", [
        (f"1e{INT_STR_LIMIT}", "1"),
        (f"9e{INT_STR_LIMIT - 1}", f"9e{INT_STR_LIMIT - 1}"),
    ], ids=["torsion", "product"])
    def test_value_past_the_int_string_limit_rejected(self, tmp_path, capsys, torsion, comp):
        # each input passes the exponent bound, but the value (10**limit, or a
        # product of ~4 * limit digits) has too many digits for str(): this exited 3
        cfg = TestEval._write(tmp_path, {
            "dims": [3], "torsion": [{"indices": [1, 2, 3], "value": torsion}],
            "u": [comp, "0", "0"], "v": ["0", comp, "0"], "w": ["0", "0", comp]})
        rc, out, err = run(capsys, "eval", "--config", cfg)
        assert (rc, out) == (2, "")
        assert err == ("error: exact value too long to render: more digits than the "
                       f"int-string limit {INT_STR_LIMIT}\n")

    @pytest.mark.parametrize("out", [1, True], ids=["int", "bool"])
    def test_non_string_out_in_config_rejected(self, tmp_path, capsys, out):
        # open() took 1 or True as file descriptor 1: two reports on stdout, exit 0
        cfg = TestEval._write(tmp_path, {
            "dims": [3], "out": out,
            "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, stdout, err = run(capsys, "eval", "--config", cfg)
        assert rc == 2
        assert f"out must be a file name, got {out!r}" in err
        assert stdout == ""

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_nul_in_out_rejected(self, tmp_path, capsys, where):
        # open() raised ValueError on the NUL: exit 3 after the report was printed
        name = str(tmp_path / "report\0.json")
        argv = ["--out", name] if where == "flag" else []
        cfg = TestEval._write(tmp_path, {"dims": [2], **({"out": name} if where == "config" else {})})
        rc, stdout, err = run(capsys, "verify", "--trials", "1", "--config", cfg, *argv)
        assert rc == 2
        assert f"out must be a file name, got {name!r}" in err
        assert stdout == ""

    def test_unexpected_exception_exits_three(self, tmp_path, capsys, monkeypatch):
        def crash(cfg):
            raise RuntimeError("boom\non two lines")
        monkeypatch.setattr(cli, "cmd_eval", crash)
        cfg = TestEval._write(tmp_path, {
            "dims": [3], "u": ["1", "0", "0"], "v": ["0", "1", "0"], "w": ["0", "0", "1"]})
        rc, stdout, err = run(capsys, "eval", "--config", cfg)
        assert rc == 3
        assert stdout == ""
        assert err == "error: internal: RuntimeError: boom on two lines\n"


# The exit-code fuzz: main(argv) over every command, its flags and a config
# file, with well-formed values kept small (dims 2..5, trials <= 2, N <= 50,
# K <= 3, size <= 2) so each run is quick.  Half the cases are well formed
# throughout; in the others any value may be malformed.
BAD_TEXT = ["", " ", "x", "nan", "inf", "1/0", "0/0", "1e999999999", "-1e999999999",
            "1e-999999999", "9" * (INT_STR_LIMIT + 1), "2.5", "-1", "0", "1,,x", "i/0", "1+",
            "\0"]
BAD_JSON = BAD_TEXT + [None, True, False, [], {}, [[2]], {"a": 1}, 2.5, -1, 0,
                       float("nan"), float("inf"), 10 ** 30]
VALID = {
    "dims": ["2", "3", "4", "5", "2,4", "4,2", "3,5", " 4 ", "2,3,4,5"],
    "trials": ["1", "2"],
    "seed": ["0", "7", "-3", "123456789012345678901234567890"],
    "N": ["2", "3", "10", "50"],
    "K": ["2", "3"],
    "size": ["1", "2"],
    "q": ["0.5", "0.1", ".9", "1e-1"],
    "phi": ["0", "1", "i", "1+2i", "-1/2-3/4i", "0.5", "2e3"],
}
WORK = ("trials", "N", "K", "size")   # absent, these default to long runs
RAW_CONFIGS = [b"", b"{", b"[1, 2]", b"null", b'"text"', b"[" * 100_000, b"\xff\xfe{}"]
COMPONENTS = ["1", "-2/3", 0, 4, "0.25", "1e3", "-1e-2"]


def _dims_for(row: cli.Command) -> list:
    """The well-formed dims a command accepts."""
    return [d for d in VALID["dims"]
            if not (row.single and "," in d)
            and not (row.even and any(int(n) % 2 for n in d.split(",")))]


def _as_json(key: str, text: str) -> list:
    """The spellings a config file may give a well-formed value."""
    spellings = [text]
    if text.strip().lstrip("-").isdigit():
        spellings += [int(text), float(text)]
    if key == "dims":
        spellings.append([int(x) for x in text.split(",")])
    return spellings


@st.composite
def _cli_case(draw):
    """(argv, config): config is None, a JSON-able dict or raw bytes; the
    placeholder {tmp} in either stands for a scratch directory."""
    clean = draw(st.booleans())

    def malformed() -> bool:
        return not clean and draw(st.integers(0, 3)) == 0

    name = draw(st.sampled_from(list(cli.COMMANDS)))
    row = cli.COMMANDS[name]
    examples = row.help is None
    argv = ["examples", name] if examples else [name]
    config = {}
    dim = row.dims[0]
    for key in ("dims", "seed", "q", "phi") + WORK:
        places = ["config"]
        if examples or key in ("dims", "seed", "trials"):
            places.append("flag")
        if key not in WORK or (not examples and key != "trials"):
            places.append("absent")
        place = draw(st.sampled_from(places))
        if place == "absent":
            continue
        if malformed():
            value = draw(st.sampled_from(BAD_TEXT if place == "flag" else BAD_JSON))
        else:
            value = draw(st.sampled_from(_dims_for(row) if key == "dims" else VALID[key]))
            if key == "dims":
                dim = int(value.split(",")[0])
            if place == "config":
                value = draw(st.sampled_from(_as_json(key, value)))
        if place == "flag":
            argv += ["--" + key, value]
        else:
            config[key] = value
    for form in ("u", "v", "w"):
        # eval needs all three; elsewhere they are parsed and then unused
        if draw(st.integers(0, 5)) >= (5 if name == "eval" else 1):
            continue
        if malformed():
            config[form] = draw(st.sampled_from(BAD_JSON))
        else:
            length = dim + (draw(st.sampled_from([-1, 1])) if malformed() else 0)
            config[form] = [draw(st.sampled_from(BAD_JSON if malformed() else COMPONENTS))
                            for _ in range(length)]
    if draw(st.booleans()):
        triples = list(combinations(range(1, dim + 1), 3))
        bad_triples = [[3, 2, 1], [0, 1, 2], [1, 2, dim + 1], [True, 2, 3], [1.5, 2, 3],
                       ["1", "2", "3"], [1, 2], "123", None]
        chosen = draw(st.lists(st.sampled_from(triples), unique=True, max_size=3)) \
            if triples else []
        entries = [{"indices": draw(st.sampled_from(bad_triples)) if malformed() else list(t),
                    "value": draw(st.sampled_from(BAD_JSON if malformed() else COMPONENTS))}
                   for t in chosen]
        config["torsion"] = draw(st.sampled_from(BAD_JSON)) if malformed() else entries
    out = draw(st.sampled_from([None, None, "flag", "config"]))
    if out == "flag":
        argv += ["--out", draw(st.sampled_from(["{tmp}", "{tmp}/\0"])) if malformed()
                 else "{tmp}/report.json"]
    elif out == "config":
        config["out"] = draw(st.sampled_from(["", 3, True, [], "{tmp}/\0"])) if malformed() \
            else "{tmp}/report.json"
    if draw(st.booleans()):
        argv.append("--mask-timing")
    if malformed():
        argv += draw(st.sampled_from([["--bogus"], ["extra"], ["--dims"], ["--phi", "1"]]))
    if malformed():
        return argv, draw(st.sampled_from(RAW_CONFIGS))
    return argv, config or None


class TestExitCodeFuzz:
    """main(argv) exits 0, 1 or 2 whatever it is given, never with a traceback,
    and a 0 or 1 comes with a JSON report whose pass agrees with it."""

    @given(_cli_case())
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exit_code_contract(self, case):
        argv, config = case
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            if config is not None:
                path = Path(tmp) / "config.json"
                if isinstance(config, bytes):
                    path.write_bytes(config)
                else:
                    path.write_text(json.dumps(config).replace("{tmp}", tmp))
                argv += ["--config", str(path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:   # argparse's usage errors
                    code = exc.code
        context = (argv, config, err.getvalue())
        assert code in (0, 1, 2), context
        assert "Traceback" not in out.getvalue() + err.getvalue(), context
        if code in (0, 1):
            assert json.loads(out.getvalue())["pass"] == (code == 0), context
        if code == 2:
            assert out.getvalue() == "", context


class TestReportPlumbing:
    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc, stdout, _ = run(capsys, "verify", "--dims", "2",
                            "--mask-timing", "--out", str(out))
        assert rc == 0
        assert out.read_text() == stdout

    def test_masked_reports_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "verify", "--dims", "3", "--trials", "2", "--seed", "9",
            "--mask-timing", "--out", str(a))
        run(capsys, "verify", "--dims", "3", "--trials", "2", "--seed", "9",
            "--mask-timing", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unmasked_report_carries_timestamp(self, capsys):
        rc, rep, _ = run_json(capsys, "verify", "--dims", "2")
        assert rep["timestamp"] != ""

    def test_config_file_merges_under_cli_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [4], "trials": 1, "seed": 3}))
        rc, rep, _ = run_json(capsys, "verify", "--config", str(cfg),
                              "--trials", "2", "--mask-timing")
        assert rc == 1
        assert rep["config"]["dims"] == [4]
        assert rep["config"]["seed"] == 3
        assert rep["config"]["trials"] == 2

    def test_unreadable_config_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, "verify", "--config",
                         str(tmp_path / "missing.json"))
        assert rc == 2
        assert "cannot read config file" in err

    def test_version_string_present(self, capsys):
        rc, rep, _ = run_json(capsys, "verify", "--dims", "2", "--mask-timing")
        assert rep["tool"] == "spectral-torsion"
        assert rep["version"]

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "unknown-model"])
        assert exc.value.code == 2


def standalone_python(code: str, *argv):
    """(exit code, stdout, stderr) of a fresh interpreter running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def standalone(*argv):
    """(exit code, stdout, stderr) of the CLI call made in a process of its own."""
    return standalone_python(
        "import sys; from spectral_torsion.cli import main; sys.exit(main(sys.argv[1:]))", *argv)


def unmask(text: str) -> dict:
    """A report with its timestamp and per-check elapsed times blanked."""
    rep = json.loads(text)
    rep["timestamp"] = ""
    for check in rep["checks"]:
        if "elapsed_ms" in check:
            check["elapsed_ms"] = 0.0
    return rep


class TestParserReuse:
    """main builds its parser once per process; nothing carries over between calls."""

    def test_parser_is_not_built_at_import(self):
        code, out, err = standalone_python(
            "import spectral_torsion.cli as cli; print(cli.build_parser.cache_info().currsize)")
        assert (code, out, err) == (0, "0\n", "")

    def test_calls_in_one_process_match_calls_on_their_own(self, tmp_path, capsys, monkeypatch):
        seen = []
        load_config = cli.load_config

        def spy(args):
            cfg = load_config(args)
            seen.append((vars(args), cfg.mask_timing))
            return cfg
        monkeypatch.setattr(cli, "load_config", spy)
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({
            "dims": [4], "torsion": [{"indices": [1, 2, 4], "value": "2/3"}],
            "u": ["1", "0", "2", "0"], "v": ["0", "1", "0", "1/2"], "w": ["1", "1", "1", "1"]}))
        eym = ["examples", "eym", "--dims", "2,4", "--size", "3", "--mask-timing"]
        usage = ["verify", "--trials", "x"]
        unmasked = ["eval", "--config", str(config)]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            cap = capsys.readouterr()
            return code, cap.out, cap.err

        got_eym = call(eym)
        got_usage = call(usage)
        got_eval = call(unmasked)
        got_golden = {name: call(argv + ["--mask-timing"])
                      for name, argv in sorted(MASKED_REPORTS.items())}

        assert got_eym == standalone(*eym)
        assert got_eym[0] == 0
        assert got_usage == standalone(*usage)
        assert got_usage[0] == 2 and got_usage[1] == ""
        code, out, err = standalone(*unmasked)
        assert (got_eval[0], unmask(got_eval[1]), got_eval[2]) == (code, unmask(out), err)
        assert json.loads(got_eval[1])["timestamp"] != ""
        for name, (code, out, err) in got_golden.items():
            want = (REPORTS / name).read_text()
            assert (code, out, err) == (0 if json.loads(want)["pass"] else 1, want, "")

        # every parse that reached load_config matches a fresh parser's, and
        # mask_timing is False again on the one call made without the flag
        fresh = cli.build_parser.__wrapped__
        argvs = [eym, unmasked] + [argv + ["--mask-timing"] for _, argv in
                                   sorted(MASKED_REPORTS.items())]
        assert [args for args, _ in seen] == [vars(fresh().parse_args(a)) for a in argvs]
        assert [mask for _, mask in seen] == [True, False] + [True] * len(MASKED_REPORTS)
        assert cli.build_parser.cache_info().misses == 1


class TestImportPath:
    """The exact layers import the standard library only; NumPy loads at the
    first torus product and nowhere else."""

    LOADS_NUMPY = ("import sys, contextlib, io\n"
                   "import spectral_torsion\n"
                   "from spectral_torsion.cli import main\n"
                   "if sys.argv[1:]:\n"
                   "    with contextlib.redirect_stdout(io.StringIO()):\n"
                   "        main(sys.argv[1:])\n"
                   "print('numpy' in sys.modules)")
    RUNS = {
        "import": ([], False),
        "eval": (["eval", "--config", str(REPORTS / "eval-frame.config.json")], False),
        "verify": (["verify", "--dims", "3", "--trials", "1"], False),
        "eym": (["examples", "eym", "--dims", "2", "--trials", "1"], False),
        "doubled": (["examples", "doubled", "--dims", "4"], False),
        "suq2": (["examples", "suq2"], False),
        "nctorus": (["examples", "nctorus", "--dims", "2", "--trials", "1", "--K", "2"], True),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_numpy_loads_only_for_the_torus(self, name):
        # exit codes are not read: verify exits 1 on the criterion-01 factor
        argv, loads = self.RUNS[name]
        _, out, err = standalone_python(self.LOADS_NUMPY, *argv)
        assert (out, err) == (f"{loads}\n", "")

    def test_cli_import_skips_package_metadata(self):
        # the report's version is spectral_torsion.__version__; importlib.metadata
        # would add about 20 ms of import for the same string
        _, out, err = standalone_python(
            "import sys, spectral_torsion.cli as cli, spectral_torsion\n"
            "print('importlib.metadata' in sys.modules, cli.VERSION == spectral_torsion.__version__)")
        assert (out, err) == ("False True\n", "")

    @pytest.mark.parametrize("module", ["spectral_torsion", "spectral_torsion.cli"])
    def test_import_adds_only_standard_library_modules(self, module):
        listing = "import sys{}; print('\\n'.join(sys.modules))"
        _, bare, _ = standalone_python(listing.format(""))
        code, loaded, err = standalone_python(listing.format(f", {module}"))
        assert (code, err) == (0, "")
        added = set(loaded.split()) - set(bare.split())
        assert module in added
        assert [m for m in sorted(added) if m.split(".")[0] not in sys.stdlib_module_names
                and m.split(".")[0] != "spectral_torsion"] == []
