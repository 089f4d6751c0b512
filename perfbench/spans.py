"""Spans and counts around calls into fracpow, recorded from outside.

``prepare`` wraps public functions and methods of the seven modules
(cli, solver, series, cyclotomic, arith, lattice, counting), and
``switch`` rebinds every name that refers to them in every fracpow
module, because the modules import each other with
``from .x import y``.  Nothing in ``src/`` is edited; the wrappers only
exist in the process that runs the traced rounds.

A span is (name, start, end, parent index, op id), kept in memory and
written out at the end.  A span's self time is its duration minus the
time its child spans cover.  The size data the wrappers compute after
a call (term counts, coefficient bits) is timed as bookkeeping and
taken out of the parent's self time, so the self times of all layers
plus bookkeeping plus the reported remainder add up to the traced wall
time.
"""

import os
import time
from collections import defaultdict

LAYERS = ("cli", "solver", "series", "cyclotomic", "arith", "lattice", "counting")


class Tracer:
    def __init__(self):
        self.op_id = None
        self.spans: list = []
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # inclusive time, outermost span per name
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.bookkeeping = 0.0
        self.rounds = []  # contraction rounds of each solve_formal call

    def call(self, name, fn, args, kwargs, after):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._covered.append(0.0)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            covered = self._covered.pop()
            self._depth[name] -= 1
            self.spans[index] = (name, start, end, parent, self.op_id)
            duration = end - start
            self.calls[name] += 1
            self.self_time[name] += duration - covered
            if not self._depth[name]:
                self.total[name] += duration
            if self._covered:
                self._covered[-1] += duration
        if after is not None:
            t0 = time.perf_counter()
            after(self, index, args, result)
            spent = time.perf_counter() - t0
            self.bookkeeping += spent
            if self._covered:
                self._covered[-1] += spent
        return result

    def children(self, index: int, name: str) -> int:
        """Number of direct children named `name` of the span `index`,
        which has just ended (every later span is its descendant)."""
        return sum(
            1 for span in self.spans[index + 1 :] if span[3] == index and span[0] == name
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _wrapper(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        if tracer.op_id is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs, after)

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__wrapped__ = fn
    return traced


# -- size data computed after a call -----------------------------------


def _terms(series) -> dict | None:
    """The exponent -> coefficient map of a FracSeries, None for anything
    else (a scalar operand, NotImplemented)."""
    terms = getattr(series, "_terms", None)
    if terms is None and hasattr(series, "items"):
        terms = dict(series.items())
    return terms


def _series_sizes(tracer, index, args, result):
    terms = _terms(result)
    if terms is None:
        return
    m = tracer.maxima
    m["series.max_terms"] = max(m["series.max_terms"], len(terms))
    den = max((e.denominator for e in terms), default=1)
    m["series.max_exp_den"] = max(m["series.max_exp_den"], den)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()),
        default=0,
    )
    m["series.max_coef_bits"] = max(m["series.max_coef_bits"], bits)


def _mul_sizes(tracer, index, args, result):
    if _terms(result) is None:
        return
    other = _terms(args[1])
    tracer.counts["series.mul_pairs"] += len(_terms(args[0])) * (len(other) if other else 1)
    _series_sizes(tracer, index, args, result)


def _exp_sizes(tracer, index, args, result):
    tracer.counts["series.exp_terms"] += len(_terms(result))
    _series_sizes(tracer, index, args, result)


def _solve_rounds(tracer, index, args, result):
    m = args[0]
    if m.thetas:
        subs = tracer.children(index, "series.substitute")
        tracer.rounds.append(subs / len(m.thetas))


def _enumerate_sizes(tracer, index, args, result):
    tracer.counts["lattice.points"] += len(result)


def _convolve_sizes(tracer, index, args, result):
    m, elements, upto = args[0], args[1], args[2]
    cells = 0
    for b_i, e_i in m.pairs:
        shifts = [b_i * a for a in set(elements) if b_i * a <= upto]
        cells += e_i * sum(upto - s + 1 for s in shifts)
    tracer.counts["counting.cells"] += cells


def _set_bytes(tracer, index, args, result):
    tracer.counts["counting.set_bytes"] += os.path.getsize(args[0])


def _verdict(tracer, index, args, result):
    tracer.counts["solver.verdict." + result.verdict] += 1


# -- installation --------------------------------------------------------


def prepare(tracer: Tracer, modules: dict) -> tuple[list, list[str]]:
    """Wrappers for the traced callables of `modules` (name -> module).

    Returns the swaps, one (owner, attribute, original, wrapper) for
    every name in every fracpow module or class that refers to a traced
    callable, and the names that no longer exist and so go untraced.
    """
    missing: list[str] = []
    swaps = []
    cli, solver, series = modules["cli"], modules["solver"], modules["series"]
    cyclo, arith = modules["cyclotomic"], modules["arith"]
    lattice, counting = modules["lattice"], modules["counting"]

    functions = [
        (cli, "main", "cli.main", None),
        (cli, "_emit", "cli.emit", None),
        (solver, "solve_formal", "solver.solve_formal", _solve_rounds),
        (solver, "_log_substituted_rhs", "solver.log_rhs", None),
        (solver, "verify_solution", "solver.verify", None),
        (solver, "decide", "solver.decide", _verdict),
        (solver, "hypothesis_check", "solver.hypothesis_check", None),
        (solver, "product_exponent", "solver.product_exponent", None),
        (solver, "almost_rational_bound", "solver.almost_rational_bound", None),
        (solver, "recurrence_data", "solver.recurrence_data", None),
        (solver, "integrality_report", "solver.integrality_report", None),
        (series, "exp_series", "series.exp", _exp_sizes),
        (series, "log1p_series", "series.log1p", _series_sizes),
        (series, "pow_alpha", "series.pow_alpha", _series_sizes),
        (series, "_divide", "series.div", _series_sizes),
        (series, "one_minus_x_power", "series.one_minus_x_power", None),
        (cyclo, "cyclotomic_poly", "cyclotomic.poly", None),
        (cyclo, "nprime_cyclotomic_part", "cyclotomic.part", None),
        (cyclo, "phi_multiplicity_split", "cyclotomic.split", None),
        (arith, "factorize", "arith.factorize", None),
        (arith, "divisors", "arith.divisors", None),
        (arith, "is_prime", "arith.is_prime", None),
        (arith, "ord_p", "arith.ord_p", None),
        (arith, "mobius", "arith.mobius", None),
        (arith, "euler_phi", "arith.euler_phi", None),
        (arith, "in_nprime", "arith.in_nprime", None),
        (lattice, "enumerate_below", "lattice.enumerate", _enumerate_sizes),
        (lattice, "theta_monomials", "lattice.theta_monomials", None),
        (counting, "representation_counts", "counting.convolve", _convolve_sizes),
        (counting, "constancy_scan", "counting.scan", None),
        (counting, "read_set_file", "counting.read_set", _set_bytes),
    ]
    methods = [
        (series, "FracSeries", "__mul__", "series.mul", _mul_sizes),
        (series, "FracSeries", "__rmul__", "series.mul", _mul_sizes),
        (series, "FracSeries", "__pow__", "series.pow", _series_sizes),
        (series, "FracSeries", "__add__", "series.add", None),
        (series, "FracSeries", "__radd__", "series.add", None),
        (series, "FracSeries", "__sub__", "series.sub", None),
        (series, "FracSeries", "__neg__", "series.neg", None),
        (series, "FracSeries", "substitute_power", "series.substitute", None),
        (series, "FracSeries", "truncate", "series.truncate", None),
        (series, "FracSeries", "to_json_dict", "cli.emit", None),
        (solver, "RhsSpec", "expand", "solver.rhs_expand", None),
        (solver, "DecisionReport", "to_json_dict", "cli.emit", None),
        (counting, "CountReport", "to_json_dict", "cli.emit", None),
        (cyclo, "IntPolynomial", "divmod", "cyclotomic.divmod", None),
        (cyclo, "IntPolynomial", "__mul__", "cyclotomic.poly_mul", None),
        (cyclo, "IntPolynomial", "to_series", "cyclotomic.to_series", None),
    ]
    replaced = {}
    for module, attr, name, after in functions:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        replaced[id(fn)] = (fn, _wrapper(tracer, name, fn, after))
    for module in modules.values():
        for attr, value in vars(module).items():
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                swaps.append((module, attr, value, hit[1]))
    for module, cls_name, attr, name, after in methods:
        cls = getattr(module, cls_name, None)
        fn = vars(cls).get(attr) if cls is not None else None
        if fn is None:
            missing.append(f"{module.__name__}.{cls_name}.{attr}")
            continue
        swaps.append((cls, attr, fn, _wrapper(tracer, name, fn, after)))
    return swaps, missing


def switch(swaps: list, on: bool) -> None:
    """Put the wrappers in place (on) or the original callables back."""
    for owner, attr, original, wrapper in swaps:
        setattr(owner, attr, wrapper if on else original)


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float, ops: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (times in ms)."""
    ms = 1000.0
    calls, total, self_time, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts

    def t(name):
        return total[name] * ms

    out = {
        "series.mul_calls": (calls["series.mul"], "count"),
        "series.mul_ms": (t("series.mul"), "ms"),
        "series.mul_pairs": (counts["series.mul_pairs"], "count"),
        "series.pow_ms": (t("series.pow"), "ms"),
        "series.exp_ms": (t("series.exp"), "ms"),
        "series.exp_terms": (counts["series.exp_terms"], "count"),
        "series.log1p_ms": (t("series.log1p"), "ms"),
        "series.pow_alpha_ms": (t("series.pow_alpha"), "ms"),
        "series.substitute_ms": (t("series.substitute"), "ms"),
        "series.div_ms": (t("series.div"), "ms"),
        "series.max_terms": (tracer.maxima["series.max_terms"], "count"),
        "series.max_exp_den": (tracer.maxima["series.max_exp_den"], "count"),
        "series.max_coef_bits": (tracer.maxima["series.max_coef_bits"], "bits"),
        "solver.solve_formal_ms": (t("solver.solve_formal"), "ms"),
        "solver.solve_formal_self_ms": (self_time["solver.solve_formal"] * ms, "ms"),
        "solver.verify_ms": (t("solver.verify"), "ms"),
        "solver.verify_self_ms": (self_time["solver.verify"] * ms, "ms"),
        "solver.contraction_rounds": (
            sum(tracer.rounds) / len(tracer.rounds) if tracer.rounds else 0.0,
            "count",
        ),
        "solver.decide_ms": (t("solver.decide"), "ms"),
        "solver.product_exponent_ms": (t("solver.product_exponent"), "ms"),
        "solver.product_exponent_calls": (calls["solver.product_exponent"], "count"),
    }
    for verdict in ("impossible_by_theorem", "outside_hypothesis", "degenerate_gcd"):
        key = "solver.verdict." + verdict
        out[key] = (counts[key], "count")
    hits, misses = counts["cyclotomic.poly_hits"], counts["cyclotomic.poly_misses"]
    out.update(
        {
            "cyclotomic.part_ms": (t("cyclotomic.part"), "ms"),
            "cyclotomic.poly_calls": (calls["cyclotomic.poly"], "count"),
            "cyclotomic.poly_cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0,
                "ratio",
            ),
            "cyclotomic.divmod_calls": (calls["cyclotomic.divmod"], "count"),
            "cyclotomic.divmod_ms": (t("cyclotomic.divmod"), "ms"),
            "arith.factorize_calls": (calls["arith.factorize"], "count"),
            "arith.in_nprime_calls": (calls["arith.in_nprime"], "count"),
            "arith.ms": (_layer_outer(tracer, "arith") * ms, "ms"),
            "lattice.enumerate_ms": (t("lattice.enumerate"), "ms"),
            "lattice.points": (counts["lattice.points"], "count"),
            "counting.convolve_ms": (t("counting.convolve"), "ms"),
            "counting.cells": (counts["counting.cells"], "count"),
            "counting.read_set_ms": (t("counting.read_set"), "ms"),
            "counting.set_bytes": (counts["counting.set_bytes"], "bytes"),
            "cli.emit_ms": (t("cli.emit"), "ms"),
            "cli.output_bytes": (output_bytes, "bytes"),
        }
    )
    layer_self = defaultdict(float)
    for name, value in self_time.items():
        layer_self[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (layer_self[layer] * ms, "ms")
    covered = sum(layer_self.values()) + tracer.bookkeeping
    out.update(
        {
            "trace.ops": (ops, "count"),
            "trace.wall_ms": (wall * ms, "ms"),
            "trace.bookkeeping_ms": (tracer.bookkeeping * ms, "ms"),
            "trace.remainder_ms": ((wall - covered) * ms, "ms"),
            "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
        }
    )
    return out


def _layer_outer(tracer: Tracer, layer: str) -> float:
    """Time inside spans of `layer` that have no ancestor of the same layer."""
    spans = tracer.spans
    prefix = layer + "."
    total = 0.0
    for name, start, end, parent, _ in spans:
        if not name.startswith(prefix):
            continue
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0].startswith(prefix):
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += end - start
    return total
