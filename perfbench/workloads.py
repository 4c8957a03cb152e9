"""The benchmark's four workloads: seeded inputs, timed rounds and exact checks.

Inputs come from the benchmark's own generator (random.Random seeded with a
string naming the workload, the seed, the stream and the round), never from
`spectral_torsion.sampling`, so an edit to the program cannot change them.
Every input is plain data (ints, Fractions, floats, tuples) so that a round's
inputs have a stable digest.  Every result is compared with a value computed
here, from closed forms that do not use the program.

A workload runs in rounds.  Round r has a fixed composition and fresh inputs
drawn for (seed, stream, r), so no input repeats within a run.  The class of
an evaluation ("small", "large" or None) decides which latency metric it
feeds; every timed evaluation feeds work_xref.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Tuple

Gauss = Tuple[Fraction, Fraction]   # exact a + b*i
ZERO_G: Gauss = (Fraction(0), Fraction(0))


def gmul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] + b[0], a[1] + b[1])


def abs2(a: Gauss) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def round_rng(workload: str, seed: int, stream: str, r: int) -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{stream}/{r}")


def rational(rng: random.Random) -> Fraction:
    """Nonzero p/q with 1 <= |p| <= 9 and 1 <= q <= 3."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))


def gauss(rng: random.Random) -> Gauss:
    return (rational(rng), rational(rng))


def digest(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


# exact reference values ----------------------------------------------------------

def sphere_volume(n: int) -> Tuple[Fraction, int]:
    """V(S^(n-1)) = rational * pi^k, as (rational, k)."""
    if n % 2 == 0:
        return Fraction(2, math.factorial(n // 2 - 1)), n // 2
    dfact = 1
    for k in range(n - 2, 1, -2):
        dfact *= k
    return Fraction(2 ** ((n + 1) // 2), dfact), (n - 1) // 2


def contraction(entries, u, v, w) -> Fraction:
    """sum_abc u_a v_b w_c T_abc over the antisymmetric extension of T."""
    total = Fraction(0)
    for key, t in entries:
        for p in permutations(range(3)):
            sign = 1 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            a, b, c = (key[i] for i in p)
            total += sign * t * u[a - 1] * v[b - 1] * w[c - 1]
    return total


def torsion_expected(n: int, entries, u, v, w) -> Tuple[Gauss, int]:
    """-3 * 2^(m-1) * i * contraction * V(S^(n-1)) as (Gaussian rational, pi power).

    This is the constant the symbol calculus produces, 3/2 times the stated
    closed form -2^m i (see the README's frame anchors)."""
    m = (n + 1) // 2
    vol, pipow = sphere_volume(n)
    return (Fraction(0), -3 * 2 ** (m - 1) * contraction(entries, u, v, w) * vol), pipow


# spanning one-forms of the doubled space, labelled by kind and frame index
SHEETS = {"D+": (0, 0), "D-": (1, 1), "O+": (0, 1), "O-": (1, 0)}


def spanning_labels(n: int) -> List[Tuple[str, int]]:
    out = []
    for a in range(1, n + 1):
        out += [("D+", a), ("D-", a)]
    return out + [("O+", 0), ("O-", 0)]


def scan_expected(labels, phi2: Fraction, n: int) -> Fraction:
    """Residue of a spanning triple in units of V(S^(n-1)).

    A triple's block product sits in one block; it contributes only when the
    sheets chain and the product is off-diagonal (diagonal products are
    spectrally closed).  Three off-diagonal forms give 2^m |phi|^4; one, with
    diagonal forms e_a and e_b, gives 2^m |phi|^2 delta_ab, negated when the
    off-diagonal form sits in the middle (chi g chi = -g)."""
    (s1, e1), (s2, e2), (s3, e3) = (SHEETS[k] for k, _ in labels)
    if e1 != s2 or e2 != s3 or s1 == e3:
        return Fraction(0)
    tr1 = 2 ** (n // 2)
    offs = [k[0] == "O" for k, _ in labels]
    if all(offs):
        return tr1 * phi2 * phi2
    a, b = (idx for (k, idx), off in zip(labels, offs) if not off)
    if a != b:
        return Fraction(0)
    return (-1 if offs[1] else 1) * tr1 * phi2


def dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def four_case_expected(n: int, phi: Gauss, w, f) -> List[Gauss]:
    """Cases (d,d,d), (d,d,o), (d,o,o), (o,o,o) in units of V(S^(n-1)).

    w = (w1+, w1-, w2+, w2-, w3+, w3-), f = (f1+, f1-, f2+, f2-, f3+, f3-)."""
    tr1 = 2 ** (n // 2)
    p2 = abs2(phi)
    case2 = gadd(gmul((dot(w[0], w[2]), Fraction(0)), f[4]),
                 gmul((dot(w[1], w[3]), Fraction(0)), f[5]))
    case4 = gadd(gmul(gmul(f[0], f[3]), f[4]), gmul(gmul(f[1], f[2]), f[5]))
    return [ZERO_G, (tr1 * p2 * case2[0], tr1 * p2 * case2[1]), ZERO_G,
            (tr1 * p2 * p2 * case4[0], tr1 * p2 * p2 * case4[1])]


# running context -----------------------------------------------------------------

class Context:
    """What a round needs: the program, the meter, and the pass/fail tally."""

    def __init__(self, st, cli, meter, scratch):
        self.st = st
        self.cli = cli
        self.meter = meter
        self.scratch = scratch
        self.tracer = None
        # per process, so that overlapping runs never read each other's config
        self.config_path = scratch / f"eval_config-{os.getpid()}.json"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def qqi(self, g: Gauss):
        return self.st.QQi(g[0], g[1])

    def residue_is(self, val, n: int, want: Gauss, what: str) -> None:
        """Check a ResidueValue equals want * V(S^(n-1)) exactly."""
        ok = (not isinstance(val, Exception) and val.dim == n and val.vpow == 1
              and (val.mult.re, val.mult.im) == want)
        self.outcome(ok, f"{what}: got {val!r}, want {want[0]}+{want[1]}i times V")


class Workload:
    name = ""
    # per-layer metrics the traced run must see nonzero, or it fails loudly
    reaches: Tuple[str, ...] = ()

    def inputs(self, seed: int, stream: str, r: int) -> list:
        raise NotImplementedError

    def warmup(self, ctx: Context) -> None:
        """Checked evaluations, timed by a discarded meter, that run every code path once."""

    def run(self, ctx: Context, inputs: list) -> None:
        raise NotImplementedError


# torsion_sweep -------------------------------------------------------------------

class TorsionSweep(Workload):
    name = "torsion_sweep"
    reaches = ("scalars.qqi_new", "scalars.qqi_mul", "scalars.qqi_add",
               "clifford.mv_mul_calls", "clifford.mv_mul_s", "clifford.word_products",
               "clifford.reduce_word_calls",
               "symcalc.compose_calls", "symcalc.compose_s", "symcalc.compose_lead_s",
               "symcalc.parametrix_s", "symcalc.sqrt_symbol_s", "symcalc.negative_power_s",
               "symcalc.sphere_integrate_s", "symcalc.out_terms_max",
               "symcalc.coeff_terms_max", "symcalc.den_bits_max",
               *(f"torsion.functional_s.n{n}" for n in range(3, 9)),
               "torsion.dirac_symbol_s", "torsion.inverse_power_symbol_s",
               "torsion.residue_of_symbol_s", "torsion.self_s", "torsion.residue_yield",
               "cli.main_s", "cli.self_s", "cli.load_config_s", "cli.scalar_json_s",
               "cli.report_bytes")
    # Two draws of the larger dimension and one of the smaller keep each class
    # median inside one cost cluster, not on the gap between n and n+1; the
    # larger one is picked because fixed per-call noise weighs less on it.
    DIMS = ((3, "small"), (4, "small"), (4, "small"), (5, None), (6, None),
            (7, "large"), (8, "large"), (8, "large"))

    @staticmethod
    def support(n: int):
        """The cyclic band {a, a+1, a+2 mod n}: n nonzero components (one at n=3).

        Which components are nonzero decides which Clifford words the symbols
        carry, so the support is fixed per dimension and only values are drawn:
        every draw of one dimension does the same shape of work."""
        return sorted({tuple(sorted((a + d) % n + 1 for d in range(3))) for a in range(n)})

    @classmethod
    def draw(cls, rng: random.Random, n: int):
        entries = tuple((k, rational(rng)) for k in cls.support(n))
        u, v, w = (tuple(rational(rng) for _ in range(n)) for _ in range(3))
        return n, entries, u, v, w

    def inputs(self, seed, stream, r):
        rng = round_rng(self.name, seed, stream, r)
        return [(label,) + self.draw(rng, n) for n, label in self.DIMS]

    def _eval(self, ctx: Context, n, entries, u, v, w, label, what):
        cfg = {"dims": [n],
               "torsion": [{"indices": list(k), "value": str(t)} for k, t in entries],
               "u": [str(x) for x in u], "v": [str(x) for x in v], "w": [str(x) for x in w]}
        ctx.config_path.write_text(json.dumps(cfg))
        try:
            code, text = ctx.meter.time(self.cli_eval, ctx.cli, str(ctx.config_path), label=label)
            got = json.loads(text)["checks"][0]["computed"]
            got = ((Fraction(*got["re"]), Fraction(*got["im"])), got["piPow"])
        except Exception as exc:
            ctx.outcome(False, f"{what}: {exc!r}")
            return
        if ctx.tracer is not None:
            ctx.tracer.add("cli.report_bytes", len(text.encode()))
        want = torsion_expected(n, entries, u, v, w)
        ctx.outcome(code == 0 and got == want, f"{what}: exit {code}, got {got}, want {want}")

    @staticmethod
    def cli_eval(cli, path: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["eval", "--config", path, "--mask-timing"])
        return code, buf.getvalue()

    def warmup(self, ctx):
        # README frame anchors (T_123 = 1, u, v, w = e^1, e^2, e^3): -24 pi i at
        # n=3 and -12 pi^2 i at n=4 check the checker before any draw
        for n, want in ((3, ((Fraction(0), Fraction(-24)), 1)),
                        (4, ((Fraction(0), Fraction(-12)), 2))):
            frame = [tuple(Fraction(int(i == a)) for i in range(1, n + 1)) for a in (1, 2, 3)]
            entries = (((1, 2, 3), Fraction(1)),)
            ok = torsion_expected(n, entries, *frame) == want
            ctx.outcome(ok, f"checker anchor n={n}")
            self._eval(ctx, n, entries, *frame, label=None, what=f"anchor n={n}")

    def run(self, ctx, inputs):
        for label, n, entries, u, v, w in inputs:
            self._eval(ctx, n, entries, u, v, w, label, f"n={n} T={entries}")


# doubled_scan --------------------------------------------------------------------

class DoubledScan(Workload):
    name = "doubled_scan"
    reaches = ("scalars.qqi_new", "scalars.qqi_mul", "scalars.qqi_add",
               "clifford.mv_mul_calls", "clifford.mv_mul_s", "clifford.word_products",
               "clifford.reduce_word_calls",
               "symcalc.compose_calls", "symcalc.compose_s", "symcalc.compose_lead_s",
               "symcalc.parametrix_s", "symcalc.negative_power_s",
               "symcalc.sphere_integrate_s", "torsion.dirac_symbol_s",
               "torsion.residue_of_symbol_s", "torsion.residue_yield",
               "almostcommutative.evaluator_builds", "almostcommutative.evaluator_build_s",
               "almostcommutative.residue_calls", "almostcommutative.residue_s",
               "almostcommutative.residues_per_build")
    DIMS = ((4, "small"), (6, "large"))

    def inputs(self, seed, stream, r):
        rng = round_rng(self.name, seed, stream, r)
        out = []
        for n, label in self.DIMS:
            phi = gauss(rng)
            w = tuple(tuple(rational(rng) for _ in range(n)) for _ in range(6))
            f = tuple(gauss(rng) for _ in range(6))
            out.append((n, label, phi, w, f))
        return out

    def _forms(self, ctx, n, phi: Gauss):
        st, ph = ctx.st, ctx.qqi(phi)
        zero = st.OneForm(n, (0,) * n)
        forms = []
        for kind, a in spanning_labels(n):
            if kind == "D+":
                forms.append(st.DoubledOneForm.diagonal(st.OneForm.frame(n, a), zero, ph))
            elif kind == "D-":
                forms.append(st.DoubledOneForm.diagonal(zero, st.OneForm.frame(n, a), ph))
            else:
                f_plus = int(kind == "O+")
                forms.append(st.DoubledOneForm.off_diagonal(n, f_plus, 1 - f_plus, ph))
        return forms

    @staticmethod
    def _row(ev, o1, forms):
        out = []
        for o2 in forms:
            for o3 in forms:
                try:
                    out.append(ev.residue(o1, o2, o3))
                except Exception as exc:
                    out.append(exc)
        return out

    def _scan(self, ctx, ev, n, phi: Gauss, label):
        forms = self._forms(ctx, n, phi)
        labels = spanning_labels(n)
        for i, o1 in enumerate(forms):
            # a latency sample is the mean residue over two rows, each row timed
            # between its own kernels: one row (50-100 ms) is short enough for a
            # host hiccup to make the class tail jump between runs
            row = ctx.meter.time(self._row, ev, o1, forms, label=label, evals=len(forms) ** 2,
                                 group=(ctx.meter.round, n, phi, i // 2))
            k = 0
            for l2 in labels:
                for l3 in labels:
                    trip = (labels[i], l2, l3)
                    want = (scan_expected(trip, abs2(phi), n), Fraction(0))
                    ctx.residue_is(row[k], n, want, f"n={n} phi={phi} {trip}")
                    k += 1

    def _four_cases(self, ctx, ev, n, phi: Gauss, w, f):
        st = ctx.st
        ph = ctx.qqi(phi)
        d = [st.DoubledOneForm.diagonal(st.OneForm(n, w[2 * k]), st.OneForm(n, w[2 * k + 1]), ph)
             for k in range(3)]
        o = [st.DoubledOneForm.off_diagonal(n, ctx.qqi(f[2 * k]), ctx.qqi(f[2 * k + 1]), ph)
             for k in range(3)]
        cases = [(d[0], d[1], d[2]), (d[0], d[1], o[2]), (d[0], o[1], o[2]), (o[0], o[1], o[2])]
        for k, (triple, want) in enumerate(zip(cases, four_case_expected(n, phi, w, f))):
            try:
                val = ctx.meter.time(ev.residue, *triple)
            except Exception as exc:
                val = exc
            ctx.residue_is(val, n, want, f"n={n} case-{k + 1} phi={phi}")

    def warmup(self, ctx):
        ev = ctx.st.DoubledEvaluator(4)
        self._scan(ctx, ev, 4, (Fraction(1), Fraction(1)), None)

    def run(self, ctx, inputs):
        for n, label, phi, w, f in inputs:
            ev = ctx.meter.time(ctx.st.DoubledEvaluator, n, evals=0)
            self._scan(ctx, ev, n, ZERO_G, label)
            self._scan(ctx, ev, n, phi, label)
            self._four_cases(ctx, ev, n, phi, w, f)


# eym_gauge -----------------------------------------------------------------------

def anti_hermitian_traceless(rng: random.Random, size: int):
    """Rows of (re, im) pairs of a random anti-hermitian traceless matrix."""
    diag = [rational(rng) for _ in range(size - 1)]
    diag.append(-sum(diag, Fraction(0)))
    rows = [[ZERO_G] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = (Fraction(0), diag[i])
        for j in range(i + 1, size):
            x, y = gauss(rng)
            rows[i][j] = (x, y)
            rows[j][i] = (-x, y)
    return tuple(tuple(r) for r in rows)


class EymGauge(Workload):
    name = "eym_gauge"
    reaches = ("scalars.qqi_new", "scalars.qqi_mul", "scalars.qqi_add",
               "matrices.mul_calls", "matrices.mul_s", "matrices.add_calls",
               "clifford.mv_mul_calls", "clifford.mv_mul_s", "clifford.word_products",
               "clifford.reduce_word_calls",
               "symcalc.compose_calls", "symcalc.compose_s", "symcalc.compose_lead_s",
               "symcalc.negative_power_s", "symcalc.sphere_integrate_s",
               "almostcommutative.eym_density_s", "almostcommutative.adjoint_matrix_s",
               "almostcommutative.left_mult_s")
    # Six cheap draws per round give a 20 s run about 40 small samples, so the
    # small tail sits near p75; the large class fits only about 14 samples,
    # so its tail is the median or the order statistic just above it.
    SHAPES = ((2, 2, "small"), (2, 2, "small"), (2, 2, "small"), (4, 2, "large"),
              (2, 2, "small"), (2, 2, "small"), (2, 2, "small"), (4, 2, "large"),
              (2, 3, None))

    def inputs(self, seed, stream, r):
        rng = round_rng(self.name, seed, stream, r)
        out = []
        for n, size, label in self.SHAPES:
            gauge = tuple(anti_hermitian_traceless(rng, size) for _ in range(n))
            forms = tuple(tuple(anti_hermitian_traceless(rng, size) for _ in range(n))
                          for _ in range(3))
            out.append((n, size, label, gauge, forms))
        return out

    def _eval(self, ctx, n, size, label, gauge, forms):
        st = ctx.st

        def matrix(rows):
            return st.MatrixQQ.from_rows([[ctx.qqi(x) for x in r] for r in rows])

        try:
            model = st.EymModel(n, size, tuple(matrix(x) for x in gauge))
            uvw = [st.MatrixOneForm(n, tuple(matrix(x) for x in comps)) for comps in forms]
            val = ctx.meter.time(st.eym_torsion_density, model, *uvw, label=label)
        except Exception as exc:
            val = exc
        ctx.residue_is(val, n, ZERO_G, f"eym n={n} size={size}")

    def warmup(self, ctx):
        self.run(ctx, self.inputs(0, "warmup", 0)[:1])

    def run(self, ctx, inputs):
        for item in inputs:
            self._eval(ctx, *item)


# float_models --------------------------------------------------------------------

TORUS_TOL = 1e-10
DISC_TOL = 1e-8


class FloatModels(Workload):
    name = "float_models"
    reaches = ("qmodels.torus_identity_s", "qmodels.series_mul_s", "qmodels.torus_mul_calls",
               "qmodels.disc_trace_calls", "qmodels.disc_trace_s")
    # N range per disc element, inversely to its per-N cost, so that the
    # small class is one cost cluster
    DISC = (("1", 9500, 10500), ("z*z", 2850, 3150), ("(z*z)^3", 950, 1050))
    PAIRS = ((2, -1), (-1, -1))
    TORUS_K = 9

    @staticmethod
    def torus_input(rng: random.Random, n: int):
        theta = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                theta[i][j] = rng.uniform(-1.0, 1.0)
                theta[j][i] = -theta[i][j]
        # two independent modes with no zero component: the Weyl phase skips
        # zero components, so zeros would make some draws of one (n, K) up
        # to a quarter cheaper than others and spread the class tail
        while True:
            p1, p2 = (tuple(rng.choice((-2, -1, 1, 2)) for _ in range(n)) for _ in range(2))
            if any(p1[a] * p2[b] != p1[b] * p2[a] for a in range(n) for b in range(a + 1, n)):
                break
        c1, c2 = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        return tuple(map(tuple, theta)), ((p1, c1), (p2, c2)), rng.randint(1, n)

    def inputs(self, seed, stream, r):
        rng = round_rng(self.name, seed, stream, r)
        out = []
        for _ in range(2):
            for kind, lo, hi in self.DISC:
                out.append(("disc", "small", kind, rng.uniform(0.3, 0.7), rng.randint(lo, hi)))
        # n=4 costs about 1.25x n=3; two n=4 draws keep the class median in one cluster
        for n in (3, 4, 4):
            theta, modes, j = self.torus_input(rng, n)
            for alpha, beta in self.PAIRS:
                out.append(("torus", "large", n, theta, modes, j, alpha, beta, self.TORUS_K))
        return out

    def _disc(self, ctx, label, kind, q, big_n):
        st = ctx.st
        x = {"1": st.QuantumDiscElement.one(q), "z*z": st.zstar_z(q),
             "(z*z)^3": st.zstar_z(q).power(3)}[kind]
        try:
            rep = ctx.meter.time(st.suq2_residue_cancellation, x, big_n, label=label)
            res = rep.residual
        except Exception as exc:
            res = exc
        ok = isinstance(res, float) and res < DISC_TOL
        ctx.outcome(ok, f"disc x={kind} q={q} N={big_n}: residual {res!r}")

    def _torus(self, ctx, label, n, theta, modes, j, alpha, beta, k):
        st = ctx.st
        try:
            h = st.TorusElement(theta, {p: c for p, c in modes})
            h = h + h.adjoint()
            res = ctx.meter.time(st.torus_trace_identity, h, alpha, beta, j, k, label=label)
        except Exception as exc:
            res = exc
        ok = isinstance(res, float) and res < TORUS_TOL
        ctx.outcome(ok, f"torus n={n} modes={modes} j={j} ({alpha},{beta}): residual {res!r}")

    def warmup(self, ctx):
        items = self.inputs(0, "warmup", 0)
        self.run(ctx, [items[0], items[-1]])

    def run(self, ctx, inputs):
        for item in inputs:
            if item[0] == "disc":
                self._disc(ctx, *item[1:])
            else:
                self._torus(ctx, *item[1:])


WORKLOADS: Dict[str, Workload] = {w.name: w for w in
                                  (TorsionSweep(), DoubledScan(), EymGauge(), FloatModels())}
