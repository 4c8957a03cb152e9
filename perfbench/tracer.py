"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of `spectral_torsion` with
wrappers that count calls, time them, and record spans.  A function is
replaced under every name any package module binds it to, because
`torsion`, `almostcommutative` and `cli` import `compose`,
`torsion_functional` and friends by name.  Methods are replaced on their
classes.  Nothing in the program changes on disk, and `uninstall` puts every
original back, so a run can alternate traced and untraced rounds.

Three kinds of wrapper, chosen by how often the target runs:
- counters (QQi arithmetic, reduce_word, MatrixQQ addition, torus products)
  only count, because a timer on each of their ~10^5 calls per evaluation
  would swamp the run;
- timers (Multivector and MatrixQQ products) add up count and busy time;
- spans (symbol operations and everything above them) also sit on a stack,
  so each span knows its parent and self time (its duration minus that of
  its child spans).  Spans of the first traced round are kept in memory and
  written out at the end.

Counts come from the first traced round, which has the same inputs for the
same seed, so they repeat exactly.  Busy times are medians over the traced
rounds.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (name, unit, better): the per-layer metrics, in report order
PER_LAYER = [
    ("scalars.qqi_new", "count", "lower"),
    ("scalars.qqi_mul", "count", "lower"),
    ("scalars.qqi_add", "count", "lower"),
    ("scalars.errors", "count", "lower"),
    ("matrices.mul_calls", "count", "lower"),
    ("matrices.mul_s", "s", "lower"),
    ("matrices.add_calls", "count", "lower"),
    ("matrices.errors", "count", "lower"),
    ("clifford.mv_mul_calls", "count", "lower"),
    ("clifford.mv_mul_s", "s", "lower"),
    ("clifford.word_products", "count", "lower"),
    ("clifford.reduce_word_calls", "count", "lower"),
    ("clifford.errors", "count", "lower"),
    ("symcalc.compose_calls", "count", "lower"),
    ("symcalc.compose_s", "s", "lower"),
    ("symcalc.compose_lead_s", "s", "lower"),
    ("symcalc.parametrix_s", "s", "lower"),
    ("symcalc.sqrt_symbol_s", "s", "lower"),
    ("symcalc.negative_power_s", "s", "lower"),
    ("symcalc.sphere_integrate_s", "s", "lower"),
    ("symcalc.out_terms_max", "count", "lower"),
    ("symcalc.coeff_terms_max", "count", "lower"),
    ("symcalc.den_bits_max", "bits", "lower"),
    ("symcalc.errors", "count", "lower"),
] + [(f"torsion.functional_s.n{n}", "s", "lower") for n in range(3, 9)] + [
    ("torsion.dirac_symbol_s", "s", "lower"),
    ("torsion.inverse_power_symbol_s", "s", "lower"),
    ("torsion.residue_of_symbol_s", "s", "lower"),
    ("torsion.self_s", "s", "lower"),
    ("torsion.residue_yield", "ratio", "higher"),
    ("torsion.errors", "count", "lower"),
    ("almostcommutative.eym_density_s", "s", "lower"),
    ("almostcommutative.adjoint_matrix_s", "s", "lower"),
    ("almostcommutative.left_mult_s", "s", "lower"),
    ("almostcommutative.evaluator_builds", "count", "lower"),
    ("almostcommutative.evaluator_build_s", "s", "lower"),
    ("almostcommutative.residue_calls", "count", "lower"),
    ("almostcommutative.residue_s", "s", "lower"),
    ("almostcommutative.residues_per_build", "ratio", "higher"),
    ("almostcommutative.errors", "count", "lower"),
    ("qmodels.torus_identity_s", "s", "lower"),
    ("qmodels.series_mul_s", "s", "lower"),
    ("qmodels.torus_mul_calls", "count", "lower"),
    ("qmodels.disc_trace_calls", "count", "lower"),
    ("qmodels.disc_trace_s", "s", "lower"),
    ("qmodels.errors", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cli.scalar_json_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.errors", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
]


def _den_bits(c) -> int:
    rows = getattr(c, "rows", None)
    if rows is not None:   # MatrixQQ coefficient
        return max((_den_bits(x) for r in rows for x in r), default=0)
    return max(c.re.denominator.bit_length(), c.im.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.rounds: List[Dict[str, float]] = []
        self.cur: Dict[str, float] = defaultdict(int)
        self.eval_id = 0
        self.recording = False
        self.spans: List[tuple] = []
        self._stack: List[list] = []     # [child seconds, span id] per open span
        self._active: Dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._saved: List[tuple] = []   # (owner, attr, original or None if inherited)

    # rounds and results -----------------------------------------------------------
    def start_round(self, r: int) -> None:
        self.cur = defaultdict(int)
        self.rounds.append(self.cur)
        self.recording = r == 0

    def add(self, key: str, amount: float) -> None:
        self.cur[key] += amount

    def metrics(self) -> Dict[str, float]:
        first = self.rounds[0]
        out: Dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            if unit == "s":
                out[name] = statistics.median(r.get(name, 0.0) for r in self.rounds)
            else:
                out[name] = first.get(name, 0)
        attempted = first.get("torsion.yield_attempted", 0)
        out["torsion.residue_yield"] = first.get("torsion.yield_useful", 0) / attempted \
            if attempted else 0.0
        builds = first.get("almostcommutative.evaluator_builds", 0)
        out["almostcommutative.residues_per_build"] = \
            first.get("almostcommutative.residue_calls", 0) / builds if builds else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, eval_id, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "eval": eval_id,
                                     "self_s": self_s}) + "\n")

    # wrappers --------------------------------------------------------------------------
    def _counter(self, fn: Callable, key: str, errors: str) -> Callable:
        tr = self

        def wrapper(*args, **kwargs):
            tr.cur[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                tr.cur[errors] += 1
                raise
        return wrapper

    def _timer(self, fn: Callable, calls: str, busy: str, errors: str,
               on_call: Optional[Callable] = None) -> Callable:
        tr = self

        def wrapper(*args, **kwargs):
            cur = tr.cur
            cur[calls] += 1
            if on_call is not None:
                on_call(cur, args)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                cur[errors] += 1
                raise
            finally:
                cur[busy] += perf_counter() - t0
        return wrapper

    def _span(self, fn: Callable, name: str, module: str, busy, calls: Optional[str] = None,
              on_call: Optional[Callable] = None, on_return: Optional[Callable] = None) -> Callable:
        """busy is a metric key, or a function of the call's arguments giving a tuple of them."""
        tr = self
        self_key, errors = f"{module}.self_s", f"{module}.errors"
        busy_keys = busy if callable(busy) else (lambda args, keys=(busy,): keys)

        def wrapper(*args, **kwargs):
            cur = tr.cur
            if calls:
                cur[calls] += 1
            if on_call is not None:
                on_call(cur, args)
            stack = tr._stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, tr._next_id]
            tr._next_id += 1
            stack.append(frame)
            tr._active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                cur[errors] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tr._active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                cur[self_key] += dur - frame[0]
                if not tr._active[name]:   # re-entrant calls count once
                    for key in busy_keys(args):
                        cur[key] += dur
                if tr.recording:
                    tr.spans.append((frame[1], name, t0, t1, parent, tr.eval_id, dur - frame[0]))
            if on_return is not None:
                on_return(cur, args, out)
            return out
        return wrapper

    def _set(self, owner, attr: str, wrapped: Callable) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapped)

    def _wrap_method(self, klass, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._set(klass, attr, make(getattr(klass, attr)))

    def _replace_function(self, orig: Callable, wrapped: Callable) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "spectral_torsion" or modname.startswith("spectral_torsion."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapped)

    # installation ------------------------------------------------------------------------
    def uninstall(self) -> None:
        """Put back everything install replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the program's public layers; the program must already be imported."""
        m = {name: sys.modules[f"spectral_torsion.{name}"] for name in
             ("scalars", "matrices", "clifford", "symcalc", "torsion",
              "almostcommutative", "qmodels", "cli")}
        QQi = m["scalars"].QQi
        for attr, key in (("__init__", "scalars.qqi_new"), ("__mul__", "scalars.qqi_mul"),
                          ("__rmul__", "scalars.qqi_mul"), ("__add__", "scalars.qqi_add"),
                          ("__radd__", "scalars.qqi_add")):
            self._wrap_method(QQi, attr, lambda f, key=key: self._counter(f, key, "scalars.errors"))
        MatrixQQ = m["matrices"].MatrixQQ
        self._wrap_method(MatrixQQ, "__add__", lambda f: self._counter(
            f, "matrices.add_calls", "matrices.errors"))
        self._wrap_method(MatrixQQ, "__mul__", lambda f: self._timer(
            f, "matrices.mul_calls", "matrices.mul_s", "matrices.errors"))
        self._wrap_method(m["qmodels"].TorusElement, "__mul__", lambda f: self._counter(
            f, "qmodels.torus_mul_calls", "qmodels.errors"))
        reduce_word = m["clifford"].reduce_word
        self._replace_function(reduce_word, self._counter(
            reduce_word, "clifford.reduce_word_calls", "clifford.errors"))

        Multivector = m["clifford"].Multivector

        def word_products(cur, args):
            a, b = args
            if isinstance(b, Multivector):
                cur["clifford.word_products"] += len(a.terms) * len(b.terms)
        self._wrap_method(Multivector, "__mul__", lambda f: self._timer(
            f, "clifford.mv_mul_calls", "clifford.mv_mul_s", "clifford.errors", word_products))

        self._install_spans(m)

    def _install_spans(self, m) -> None:
        def fn(module: str, attr: str, busy, calls: Optional[str] = None, **hooks) -> None:
            orig = getattr(m[module], attr)
            self._replace_function(orig, self._span(orig, f"{module}.{attr}", module, busy,
                                                    calls, **hooks))

        def method(module: str, cls: str, attr: str, busy, calls: Optional[str] = None) -> None:
            self._wrap_method(getattr(m[module], cls), attr, lambda f: self._span(
                f, f"{module}.{cls}.{attr}", module, busy, calls))

        def compose_keys(args):
            # a zero-order left factor independent of xi: the "lead x operator" step
            a = args[0]
            zero = ((0,) * a.dim, 0, 0)
            if set(a.parts) == {0} and all(k == zero for k in a.parts[0].terms):
                return ("symcalc.compose_s", "symcalc.compose_lead_s")
            return ("symcalc.compose_s",)

        def compose_sizes(cur, args, out):
            terms = sum(len(h.terms) for h in out.parts.values())
            cur["symcalc.out_terms_max"] = max(cur["symcalc.out_terms_max"], terms)
            ct, bits = cur["symcalc.coeff_terms_max"], cur["symcalc.den_bits_max"]
            for h in out.parts.values():
                for mv in h.terms.values():
                    ct = max(ct, len(mv.terms))
                    for c in mv.terms.values():
                        bits = max(bits, _den_bits(c))
            cur["symcalc.coeff_terms_max"], cur["symcalc.den_bits_max"] = ct, bits

        def residue_yield(cur, args):
            # useful: scalar-word terms of the degree -n part that survive the
            # sphere moment (x-free, even exponents) and so reach the trace;
            # attempted: every coefficient word the final compose produced
            sym, dim = args[0], args[1]
            cur["torsion.yield_attempted"] += sum(
                len(mv.terms) for h in sym.parts.values() for mv in h.terms.values())
            comp = sym.parts.get(-dim)
            if comp is not None:
                cur["torsion.yield_useful"] += sum(
                    1 for (alpha, _, xj), mv in comp.terms.items()
                    if not xj and () in mv.terms and all(a % 2 == 0 for a in alpha))

        def functional_key(args):
            return (f"torsion.functional_s.n{args[4]}",)

        fn("symcalc", "compose", compose_keys, "symcalc.compose_calls", on_return=compose_sizes)
        for attr in ("parametrix", "sqrt_symbol", "negative_power", "sphere_integrate"):
            fn("symcalc", attr, f"symcalc.{attr}_s")
        fn("torsion", "torsion_functional", functional_key)
        fn("torsion", "dirac_symbol", "torsion.dirac_symbol_s")
        fn("torsion", "inverse_power_symbol", "torsion.inverse_power_symbol_s")
        fn("torsion", "residue_of_symbol", "torsion.residue_of_symbol_s", on_call=residue_yield)
        fn("almostcommutative", "eym_torsion_density", "almostcommutative.eym_density_s")
        fn("almostcommutative", "adjoint_matrix", "almostcommutative.adjoint_matrix_s")
        fn("almostcommutative", "left_mult_matrix", "almostcommutative.left_mult_s")
        method("almostcommutative", "DoubledEvaluator", "__init__",
               "almostcommutative.evaluator_build_s", "almostcommutative.evaluator_builds")
        method("almostcommutative", "DoubledEvaluator", "residue",
               "almostcommutative.residue_s", "almostcommutative.residue_calls")
        fn("qmodels", "torus_trace_identity", "qmodels.torus_identity_s")
        fn("qmodels", "disc_truncated_trace", "qmodels.disc_trace_s", "qmodels.disc_trace_calls")
        method("qmodels", "FormalSeries", "__mul__", "qmodels.series_mul_s")
        fn("cli", "main", "cli.main_s")
        fn("cli", "load_config", "cli.load_config_s")
        fn("cli", "scalar_json", "cli.scalar_json_s")
