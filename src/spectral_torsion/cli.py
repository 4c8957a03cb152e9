"""Command-line front end: verification suites, one-off evaluations, model examples.

Report format: a single JSON document.  Exact scalars are serialized as
{"re": [num, den], "im": [num, den], "Vpow": k, "piPow": p} together with a
15-significant-digit numeric rendering; identical config and seed give a
byte-identical report except for the timestamp and per-check elapsed fields
(which --mask-timing zeroes out).

Exit codes: 0 all checks passed, 1 at least one check failed, 2 configuration
or usage error, 3 internal error (one stderr line, no traceback).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__ as VERSION
from .almostcommutative import (DoubledEvaluator, DoubledOneForm, EymModel,
                                MatrixOneForm, adjoint_trace,
                                doubled_torsion_free_test, eym_torsion_density)
from .matrices import MatrixQQ
from .qmodels import (ConvergenceError, QuantumDiscElement, Suq2DiracSpec,
                      suq2_paired_combination, suq2_residue_cancellation,
                      torus_trace_identity, zstar_z)
from .sampling import (random_anti_hermitian_traceless, random_one_form,
                       random_theta, random_torsion, random_torus_h, seeded)
from .scalars import QQi, parse_complex_rational, parse_rational, qi
from .torsion import (OneForm, ResidueValue, TorsionTensor,
                      closed_form_torsion, metric_functional,
                      pipeline_coefficient, torsion_contraction,
                      torsion_functional, volume_functional)


class ConfigError(Exception):
    """Invalid configuration or command-line input."""


# serialization -----------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return f"{x:.15g}"


def format_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _fmt_float(re)
    if re == 0:
        return _fmt_float(im) + "i"
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_float(re)}{sign}{_fmt_float(abs(im))}i"


def _text(value) -> str:
    """str() of an exact value.  Past the interpreter's int-string limit str()
    raises ValueError; inputs too large to report are bad input, not a crash."""
    try:
        return str(value)
    except ValueError as exc:
        raise ConfigError("exact value too long to render: more digits than the int-string "
                          f"limit {sys.get_int_max_str_digits()}") from exc


def scalar_json(value) -> Dict[str, Any]:
    """Exact scalar as rational parts plus pi power and numeric rendering."""
    if isinstance(value, ResidueValue):
        coeff, pipow = value.pi_form()
        display = _text(value)
        numeric = value.to_complex()
    else:
        coeff = QQi.coerce(value)
        pipow = 0
        display = _text(coeff)
        numeric = coeff.to_complex()
    return {
        "re": [coeff.re.numerator, coeff.re.denominator],
        "im": [coeff.im.numerator, coeff.im.denominator],
        "Vpow": 0,
        "piPow": pipow,
        "numeric": format_complex(numeric),
        "display": display,
    }


# configuration -----------------------------------------------------------------

@dataclass
class RunConfig:
    """A run's settings; the field defaults are the CLI defaults."""

    command: str
    which: Optional[str] = None
    dims: List[int] = field(default_factory=list)
    trials: int = 20
    seed: int = 1
    trunc_k: int = 6
    trunc_n: int = 2000
    q: float = 0.5
    phi: QQi = field(default_factory=lambda: qi(1))
    size: int = 2
    torsion: Optional[TorsionTensor] = None
    u: Optional[OneForm] = None
    v: Optional[OneForm] = None
    w: Optional[OneForm] = None
    out: Optional[str] = None
    mask_timing: bool = False

    def echo(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"command": self.command, "dims": self.dims,
                             "trials": self.trials, "seed": self.seed}
        if self.which:
            d["which"] = self.which
        if self.command == "examples":
            d.update({"K": self.trunc_k, "N": self.trunc_n, "q": self.q,
                      "phi": _text(self.phi), "size": self.size})
        if self.torsion is not None:
            d["torsion"] = [{"indices": list(k), "value": _text(v)}
                            for k, v in sorted(self.torsion.entries.items())]
        for name, form in (("u", self.u), ("v", self.v), ("w", self.w)):
            if form is not None:
                d[name] = [_text(c) for c in form.components]
        return d


def _parse_dims(text) -> List[int]:
    """--dims, or the config's dims: a comma-separated string or a list."""
    if isinstance(text, list):
        text = ",".join(str(x) for x in text)
    elif not isinstance(text, str):
        raise ConfigError(f"dims must be a list or a comma-separated string, got {text!r}")
    try:
        dims = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --dims value {text!r}") from exc
    if not dims:
        raise ConfigError("empty --dims list")
    for n in dims:
        if not (2 <= n <= 8):
            raise ConfigError(f"invalid dimension {n}: need 2 <= n <= 8")
    return dims


def _torsion_from_config(entries, dim: int) -> TorsionTensor:
    if not isinstance(entries, list):
        raise ConfigError(f"torsion must be a list of entries, got {entries!r}")
    parsed = {}
    for item in entries:
        # a string of digits would pass as a list of indices
        if not (isinstance(item, dict) and isinstance(item.get("indices"), list)):
            raise ConfigError(f"malformed torsion entry {item!r}")
        idx = tuple(_int_option(i, "torsion index") for i in item["indices"])
        try:
            val = parse_rational(str(item["value"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"malformed torsion entry {item!r}") from exc
        if len(idx) != 3 or not (idx[0] < idx[1] < idx[2]):
            raise ConfigError(f"non-increasing index triple: {list(idx)}")
        if not all(1 <= i <= dim for i in idx):
            raise ConfigError(f"torsion index out of range for n={dim}: {list(idx)}")
        if idx in parsed:
            raise ConfigError(f"repeated torsion index triple: {list(idx)}")
        parsed[idx] = val
    return TorsionTensor(dim, parsed)


def _one_form_from_config(arr, dim: int, name: str) -> OneForm:
    if not isinstance(arr, list):
        raise ConfigError(f"one-form {name} must be a list of components, got {arr!r}")
    try:
        comps = tuple(parse_rational(str(x)) for x in arr)
    except ValueError as exc:
        raise ConfigError(f"malformed one-form {name}: {arr!r}") from exc
    if len(comps) != dim:
        raise ConfigError(f"one-form {name} has {len(comps)} components, expected {dim}")
    return OneForm(dim, comps)


def _int_option(value, name: str, least: Optional[int] = None) -> int:
    """An integer option from a flag or the config file, at least `least`."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        n = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc
    if least is not None and n < least:
        raise ConfigError(f"{name} must be >= {least}, got {n}")
    return n


def load_config(args: argparse.Namespace) -> RunConfig:
    filecfg: Dict[str, Any] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                filecfg = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(filecfg, dict):
            raise ConfigError("config file must hold a JSON object")

    def pick(name: str, default):
        v = getattr(args, name, None)
        return v if v is not None else filecfg.get(name, default)

    cfg = RunConfig(command=args.command)
    cfg.which = getattr(args, "which", None)
    row = COMMANDS[cfg.which or cfg.command]
    label = f"examples {cfg.which}" if cfg.which else cfg.command
    dims_raw = pick("dims", None)
    cfg.dims = list(row.dims) if dims_raw is None else _parse_dims(dims_raw)
    # the report echoes dims, so a longer list would claim runs that never happen
    if row.single and len(cfg.dims) > 1:
        raise ConfigError(f"{label} takes one dimension, got dims {cfg.dims}")
    if row.even and any(n % 2 for n in cfg.dims):
        raise ConfigError(f"{label} needs even n, got dims {cfg.dims}")
    cfg.trials = _int_option(pick("trials", cfg.trials), "trials", 1)
    cfg.seed = _int_option(pick("seed", cfg.seed), "seed")
    cfg.trunc_k = _int_option(pick("K", cfg.trunc_k), "K", 0)
    if cfg.trunc_k < 2:
        # the torus identities at t-orders 0 and 1 hold for every h, so they test nothing
        raise ConfigError(f"K must be >= 2 (orders 0 and 1 vanish for every h), "
                          f"got {cfg.trunc_k}")
    # N and N//2 must differ, or the truncation-convergence checks pass vacuously
    cfg.trunc_n = _int_option(pick("N", cfg.trunc_n), "N", 2)
    q_raw = pick("q", cfg.q)
    try:
        cfg.q = float(q_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad q value {q_raw!r}") from exc
    if not (0 < cfg.q < 1):
        raise ConfigError(f"q must lie in (0,1), got {cfg.q}")
    phi_raw = pick("phi", cfg.phi)
    try:
        cfg.phi = parse_complex_rational(str(phi_raw))
    except ValueError as exc:
        raise ConfigError(f"bad phi value {phi_raw!r}") from exc
    cfg.size = _int_option(pick("size", cfg.size), "size", 1)
    cfg.out = pick("out", cfg.out)
    if cfg.out is not None and (not isinstance(cfg.out, str) or "\0" in cfg.out):
        # open() would take an int or bool as a file descriptor, and raises
        # ValueError, not OSError, on a NUL in the name
        raise ConfigError(f"out must be a file name, got {cfg.out!r}")
    cfg.mask_timing = bool(getattr(args, "mask_timing", False))

    dim = cfg.dims[0]
    if "torsion" in filecfg:
        cfg.torsion = _torsion_from_config(filecfg["torsion"], dim)
    for name in ("u", "v", "w"):
        if name in filecfg:
            setattr(cfg, name, _one_form_from_config(filecfg[name], dim, name))
    return cfg


# report assembly ----------------------------------------------------------------

class ReportBuilder:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.checks: List[Dict[str, Any]] = []

    def add(self, name: str, passed: bool, expected=None, computed=None,
            residual: Optional[float] = None, note: Optional[str] = None,
            elapsed: float = 0.0) -> None:
        rec: Dict[str, Any] = {"name": name, "pass": bool(passed)}
        if expected is not None:
            rec["expected"] = expected
        if computed is not None:
            rec["computed"] = computed
        if residual is None:
            rec["exact_equal"] = bool(passed)
        else:
            rec["residual"] = _fmt_float(residual)
        if note:
            rec["note"] = note
        rec["elapsed_ms"] = 0.0 if self.cfg.mask_timing else round(elapsed * 1000, 3)
        self.checks.append(rec)

    def exact(self, name: str, expected, computed, note: Optional[str] = None,
              elapsed: float = 0.0) -> bool:
        passed = expected == computed
        self.add(name, passed, scalar_json(expected), scalar_json(computed),
                 note=note, elapsed=elapsed)
        return passed

    def bounded(self, name: str, residual: float, tol: float,
                note: Optional[str] = None, elapsed: float = 0.0) -> bool:
        passed = residual < tol
        self.add(name, passed, expected=f"< {tol:g}", residual=residual,
                 note=note, elapsed=elapsed)
        return passed

    def report(self) -> Dict[str, Any]:
        passed = sum(1 for c in self.checks if c["pass"])
        return {
            "tool": "spectral-torsion",
            "version": VERSION,
            "config": self.cfg.echo(),
            "checks": self.checks,
            "counts": {"total": len(self.checks), "passed": passed,
                       "failed": len(self.checks) - passed},
            "pass": passed == len(self.checks),
            "timestamp": "" if self.cfg.mask_timing
                         else datetime.now(timezone.utc).isoformat(),
        }


# verify -------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> Dict[str, Any]:
    rb = ReportBuilder(cfg)
    for dim in cfg.dims:
        if dim == 2:
            u, v, w = (OneForm.frame(2, 1) for _ in range(3))
            val = torsion_functional(u, v, w, TorsionTensor.zero(2), 2)
            rb.exact("theorem-equality n=2", ResidueValue(qi(0), 2), val,
                     note="antisymmetric rank-3 tensor vanishes; vacuous")
            continue
        rng = seeded(cfg.seed + dim)
        shape_ok = True
        for trial in range(cfg.trials):
            t = random_torsion(rng, dim)
            u, v, w = (random_one_form(rng, dim) for _ in range(3))
            t0 = time.perf_counter()
            computed = torsion_functional(u, v, w, t, dim)
            elapsed = time.perf_counter() - t0
            expected = closed_form_torsion(u, v, w, t, dim)
            rb.exact(f"theorem-equality n={dim} trial {trial}", expected,
                     computed, elapsed=elapsed)
            shape = ResidueValue(pipeline_coefficient(dim)
                                 * torsion_contraction(u, v, w, t), dim)
            if shape != computed:
                shape_ok = False
        rb.add(f"pipeline-constant n={dim} ({cfg.trials} trials)", shape_ok,
               expected=str(pipeline_coefficient(dim)) + " * contraction * V",
               note="contraction formula with the constant the calculus produces")
        # frame anchors stated alongside the theorem
        if dim in (3, 4):
            t = TorsionTensor(dim, {(1, 2, 3): Fraction(1)})
            u, v, w = (OneForm.frame(dim, a) for a in (1, 2, 3))
            computed = torsion_functional(u, v, w, t, dim)
            expected = closed_form_torsion(u, v, w, t, dim)
            rb.exact(f"theorem-anchor n={dim} frame triple", expected, computed)
    return rb.report()


# eval ---------------------------------------------------------------------------

def cmd_eval(cfg: RunConfig) -> Dict[str, Any]:
    if cfg.u is None or cfg.v is None or cfg.w is None:
        raise ConfigError("eval needs u, v, w one-forms in the config file")
    dim = cfg.dims[0]
    t = cfg.torsion if cfg.torsion is not None else TorsionTensor.zero(dim)
    rb = ReportBuilder(cfg)
    t0 = time.perf_counter()
    val = torsion_functional(cfg.u, cfg.v, cfg.w, t, dim)
    elapsed = time.perf_counter() - t0
    computed = scalar_json(val)
    rb.add(f"eval n={dim}", True, computed=computed, note=computed["display"],
           elapsed=elapsed)
    return rb.report()


# examples -----------------------------------------------------------------------

def _examples_eym(cfg: RunConfig) -> Dict[str, Any]:
    rb = ReportBuilder(cfg)
    size = cfg.size
    ok = not any(adjoint_trace(MatrixQQ.unit(size, mu, nu))
                 for mu in range(size) for nu in range(size))
    rb.add(f"adjoint-trace-basis size={size}", ok,
           note="Tr ad(E_uv) over the full matrix unit basis")
    rng = seeded(cfg.seed)
    for dim in cfg.dims:
        for trial in range(min(cfg.trials, 5)):
            gauge = tuple(random_anti_hermitian_traceless(rng, size) for _ in range(dim))
            model = EymModel(dim, size, gauge)
            forms = [MatrixOneForm(dim, tuple(
                random_anti_hermitian_traceless(rng, size) for _ in range(dim)))
                for _ in range(3)]
            t0 = time.perf_counter()
            val = eym_torsion_density(model, *forms)
            elapsed = time.perf_counter() - t0
            rb.exact(f"eym-density n={dim} size={size} trial {trial}",
                     ResidueValue(qi(0), dim), val, elapsed=elapsed)
    return rb.report()


def _examples_doubled(cfg: RunConfig) -> Dict[str, Any]:
    rb = ReportBuilder(cfg)
    dim = cfg.dims[0]
    phi = cfg.phi
    rng = seeded(cfg.seed)
    w1p, w1m, w2p, w2m = (random_one_form(rng, dim) for _ in range(4))
    f1p, f1m = qi(Fraction(1, 2)), qi(2)
    f2p, f2m = qi(1), qi(Fraction(-1, 3))
    f3p, f3m = qi(3), qi(1)
    d1 = DoubledOneForm.diagonal(w1p, w1m, phi)
    d2 = DoubledOneForm.diagonal(w2p, w2m, phi)
    d3 = DoubledOneForm.diagonal(random_one_form(rng, dim),
                                 random_one_form(rng, dim), phi)
    o1 = DoubledOneForm.off_diagonal(dim, f1p, f1m, phi)
    o2 = DoubledOneForm.off_diagonal(dim, f2p, f2m, phi)
    o3 = DoubledOneForm.off_diagonal(dim, f3p, f3m, phi)
    zero = ResidueValue(qi(0), dim)
    ev = DoubledEvaluator(dim)

    rb.exact("case-1 diag,diag,diag", zero, ev.residue(d1, d2, d3))
    case2 = ev.residue(d1, d2, o3)
    expect2 = (metric_functional(w1p, w2p, dim).scale(f3p)
               + metric_functional(w1m, w2m, dim).scale(f3m)).scale(phi.abs2())
    rb.exact("case-2 diag,diag,off", expect2, case2,
             note="|phi|^2 (g(w1+,w2+) f3+ + g(w1-,w2-) f3-)")
    rb.exact("case-3 diag,off,off", zero, ev.residue(d1, o2, o3))
    case4 = ev.residue(o1, o2, o3)
    expect4 = volume_functional(f1p * f2m * f3p + f1m * f2p * f3m,
                                dim).scale(phi.abs2() ** 2)
    rb.exact("case-4 off,off,off", expect4, case4,
             note="|phi|^4 Vol(f1+ f2- f3+ + f1- f2+ f3-)")
    free = doubled_torsion_free_test(ev, phi)
    rb.add("torsion-free iff phi=0", free == (not phi),
           computed=str(free), expected=str(not phi))
    return rb.report()


def _examples_nctorus(cfg: RunConfig) -> Dict[str, Any]:
    rb = ReportBuilder(cfg)
    pairs = ((1, 0), (0, -1), (2, -1), (-1, -1))
    tol = 1e-10
    rng = seeded(cfg.seed)
    for dim in cfg.dims:
        theta = random_theta(rng, dim)
        for trial in range(min(cfg.trials, 10)):
            h = random_torus_h(rng, theta)
            j = rng.randint(1, dim)
            for alpha, beta in pairs:
                t0 = time.perf_counter()
                res = torus_trace_identity(h, alpha, beta, j, cfg.trunc_k)
                elapsed = time.perf_counter() - t0
                rb.bounded(
                    f"torus-identity n={dim} h#{trial} (a,b)=({alpha},{beta}) d_{j}",
                    res, tol, elapsed=elapsed)
    return rb.report()


def _examples_suq2(cfg: RunConfig) -> Dict[str, Any]:
    rb = ReportBuilder(cfg)
    q, big_n = cfg.q, cfg.trunc_n
    tol = 1e-8
    w = zstar_z(q)
    samples = [("1", QuantumDiscElement.one(q)), ("z", QuantumDiscElement.z(q))]
    samples += [(f"(z*z)^{k}", w.power(k)) for k in (1, 2, 3)]
    results = []  # each sample's report, or the ConvergenceError it raised
    for label, x in samples:
        name = f"cancellation x={label}"
        t0 = time.perf_counter()
        try:
            rep = suq2_residue_cancellation(x, big_n, tol)
        except ConvergenceError as exc:
            # truncations N and N//2 disagree: an honest failed check, not a crash
            results.append(exc)
            rb.add(name, False, expected=f"< {tol:g}", note=str(exc),
                   elapsed=time.perf_counter() - t0)
            continue
        elapsed = time.perf_counter() - t0
        results.append(rep)
        rb.bounded(name, rep.residual, tol,
                   note=f"tau1={format_complex(rep.tau1)} "
                        f"tau0_up={format_complex(rep.tau0_up)} "
                        f"tau0_dn={format_complex(rep.tau0_dn)}",
                   elapsed=elapsed)
    for a, b in ((0, 2), (2, 3), (1, 2)):
        name = f"paired x={samples[a][0]} y={samples[b][0]}"
        # a pairing fails with the first of its elements that did not converge
        errors = [r for r in (results[a], results[b]) if isinstance(r, ConvergenceError)]
        if errors:
            rb.add(name, False, expected=f"< {tol:g}", note=str(errors[0]))
            continue
        rb.bounded(name, suq2_paired_combination(results[a], results[b]), tol)
    half, full = (Suq2DiracSpec.partial_zeta(3.5, m) for m in (100, 200))
    rb.bounded("zeta-finite s=3.5 (tail ratio)", full / half - 1.0, 0.05,
               note=f"S(200)={_fmt_float(full)} S(100)={_fmt_float(half)}")
    half, full = (Suq2DiracSpec.partial_zeta(2.5, m) for m in (100, 200))
    rb.add("zeta-growth s=2.5", full / half > 1.3,
           computed=_fmt_float(full / half), expected="> 1.3",
           note=f"S(200)={_fmt_float(full)} S(100)={_fmt_float(half)}")
    return rb.report()


class Command(NamedTuple):
    """A command's default dims, its rules on n (load_config applies them) and its
    runner.  A row with a help line is a subcommand; one without is an example."""

    dims: Tuple[int, ...]
    run: Callable[[RunConfig], Dict[str, Any]]
    single: bool = False  # runs at one n
    even: bool = False    # every n must be even
    help: Optional[str] = None


COMMANDS: Dict[str, Command] = {
    "verify": Command((3, 4), cmd_verify, help="pipeline vs closed form, per dimension"),
    # looked up at call time, so a replaced cli.cmd_eval is the one that runs
    "eval": Command((3,), lambda cfg: cmd_eval(cfg), single=True,
                    help="evaluate one torsion configuration"),
    "eym": Command((2, 4), _examples_eym, even=True),
    "doubled": Command((4,), _examples_doubled, single=True, even=True),
    "nctorus": Command((2, 3), _examples_nctorus),
    "suq2": Command((3, 4), _examples_suq2),
}


# entry point ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every main call.

    parse_args keeps no state between calls: each returns a fresh Namespace."""
    ap = argparse.ArgumentParser(
        prog="spectral-torsion",
        description="Exact verification of the spectral torsion functional "
                    "and its model computations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dims", help="comma-separated dimensions, e.g. 3,4")
        p.add_argument("--trials", type=int, help="random trials per dimension")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the JSON report here as well")
        p.add_argument("--mask-timing", action="store_true",
                       help="zero timestamp/elapsed fields for byte-stable output")

    for name, row in COMMANDS.items():
        if row.help:
            common(sub.add_parser(name, help=row.help))
    px = sub.add_parser("examples", help="run one of the model computations")
    px.add_argument("which", choices=[name for name, row in COMMANDS.items() if not row.help])
    common(px)
    px.add_argument("--phi", help="doubled-space scalar, e.g. 1+2i or 0")
    px.add_argument("--q", type=float, help="disc deformation parameter in (0,1)")
    px.add_argument("--N", type=int, help="truncation rank / matrix size")
    px.add_argument("--K", type=int, help="series truncation order")
    px.add_argument("--size", type=int, help="gauge matrix size for eym")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        report = COMMANDS[cfg.which or cfg.command].run(cfg)
        text = json.dumps(report, indent=2)
        # write --out first, so an unwritable one leaves no report on stdout
        if cfg.out:
            try:
                with open(cfg.out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write report: {exc}") from exc
        print(text)
        return 0 if report["pass"] else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not read as a failed check (1) or as bad input (2)
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
