#!/usr/bin/env python3
"""fracpow benchmark: seeded closed-loop workloads run through the CLI.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --record-digests

Run from the repository root.  Each workload (see workloads.py) is one
client issuing one op at a time: an argv list handed to
``fracpow.cli.main`` in this process, stdout captured.  Every output is
checked (checks.py) outside the timed region.

--trace 0 times ops until their summed wall time reaches --seconds and
reports the end-to-end metrics.  A fixed reference loop
(reference.py) runs before the first timed op and after each one, and
each op's time is reported at the machine's nominal speed, scaled by
the loops on either side of it, so that the shared machine's swings in
speed do not swamp the program's own cost; the raw times are printed
beside them.  --trace 1 runs a fixed number of whole
rounds, each once untraced and once with spans around the calls into
each fracpow module (spans.py), and reports the per-layer metrics; the
fixed op count makes its counts repeat exactly for a given seed.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print the same
metrics for a reader, with units and sample counts.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench-out")
DIGESTS = HERE / "digests.json"
MODULES = ("cli", "solver", "series", "cyclotomic", "arith", "lattice", "counting")

# setup_s is the median of this many complete set-ups in one run.
SETUP_REPEATS = 9
# Rounds of a traced run: whole cycles of the rotating slots (7 rounds
# cycle the consecutive decide forms, 5 the count-tau size bands).  With
# both sides of each round, a traced run took 15 to 30 s on a 2-core
# machine at the commit that defined the benchmark.
TRACE_ROUNDS = {"solve": 6, "decide": 7, "count-tau": 10}

sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def setup(workload: str, seed: int):
    """Import fracpow afresh, warm its prime sieve, generate the ops and
    write the digit-set files.  Returns (modules, ops)."""
    for name in [n for n in sys.modules if n == "fracpow" or n.startswith("fracpow.")]:
        del sys.modules[name]
    importlib.import_module("fracpow.cli")
    modules = {name: sys.modules["fracpow." + name] for name in MODULES}
    modules["arith"].primes()
    modules["arith"].is_prime(2)
    set_paths = _write_set_files() if workload == "count-tau" else None
    return modules, workloads.generate(workload, seed, set_paths)


def _write_set_files() -> dict:
    folder = WORK / "sets"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, spec in workloads.DIGIT_SETS.items():
        elements = workloads.digit_set(spec["k"], spec["period"], workloads.SET_BOUND)
        path = folder / f"{name}.txt"
        lines = [f"# bound={workloads.SET_BOUND}"] + [str(a) for a in elements]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        paths[name] = str(path)
    return paths


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as ex:  # an op that raises is a failed op, not a crash
            rc = f"{type(ex).__name__}: {ex}"
    return rc, out.getvalue(), err.getvalue()


class Pass:
    """Ops run one after another; per-op wall times and failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.loops: list[float] = []  # reference loops: one before the first op, one after each
        self.failures: list[tuple[str, str]] = []
        self.busy = 0.0
        self.output_bytes = 0

    def run(self, cli, ops, checker, *, seconds=None, step=1, count=None, tracer=None, calibrate=False):
        """Run `count` ops, or whole steps of `step` ops until the ops'
        summed wall time reaches `seconds`."""
        i = 0
        if calibrate:
            self.loops.append(reference.seconds())
        while (self.busy < seconds or i % step) if count is None else (i < count):
            op = ops[i % len(ops)]
            if tracer is not None:
                tracer.op_id = len(self.latencies)
            start = time.perf_counter()
            rc, out, err = run_op(cli, op.argv)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op_id = None
            self.busy += elapsed
            self.latencies.append(elapsed)
            if calibrate:
                self.loops.append(reference.seconds())
            self.output_bytes += len(out)
            problem = checker.check(op, rc, out)
            if problem is not None:
                self.failures.append((op.key, f"{problem} {err.strip()}".strip()))
            i += 1
        return self


def _load_digests() -> dict:
    with open(DIGESTS, encoding="ascii") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    setup_times = []  # (raw seconds, reference loop seconds) per set-up
    for _ in range(SETUP_REPEATS):
        modules = ops = None
        gc.collect()  # free the previous import, so peak RSS holds one set-up
        start = time.perf_counter()
        modules, ops = setup(workload, seed)
        elapsed = time.perf_counter() - start
        setup_times.append((elapsed, reference.seconds(3)))
    checker = checks.Checker(modules["lattice"], _load_digests())
    if traced:
        metrics, notes, passes = _per_layer(workload, seed, modules, ops, checker)
    else:
        metrics, notes, passes = _end_to_end(modules, ops, checker, seconds, setup_times)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)

    for p in passes:
        for key, problem in p.failures[:5]:
            print(f"FAILED {key[:200]}: {problem[:300]}", file=sys.stderr)
    print(f"workload {workload}  seed {seed}  trace {int(traced)}  ops {attempted}  failed {failed}")
    print(f"  {'error_rate':<34} {failed / attempted:>14.6g} ratio  ({failed}/{attempted} ops)")
    print(f"  {'digest_checked':<34} {checker.digest_checked:>14d} ops")
    for name, (value, unit) in metrics.items():
        note = f"({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _end_to_end(modules, ops, checker, seconds, setup_times):
    modules["cyclotomic"].cyclotomic_poly.cache_clear()
    # Whole rounds, so that every run holds the same mix of op kinds.
    per_round = len(ops) // workloads.ROUNDS
    timed = Pass().run(modules["cli"], ops, checker, seconds=seconds, step=per_round, calibrate=True)
    attempted = len(timed.latencies)
    completed = attempted - len(timed.failures)
    # Times at the nominal machine speed (reference.py), each op scaled by
    # the reference loops just before and after it; raw times in the notes.
    loops = [(a + b) / 2 for a, b in zip(timed.loops, timed.loops[1:])]
    scaled = [reference.scale(t, loop) for t, loop in zip(timed.latencies, loops)]
    q, raw_q = statistics.quantiles(scaled, n=10), statistics.quantiles(timed.latencies, n=10)
    setup_scaled = [reference.scale(t, loop) for t, loop in setup_times]
    loop_ms = statistics.median(timed.loops) * 1000
    metrics = {
        "ops_per_s": (completed / sum(scaled), "ops/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "latency_p90_ms": (q[8] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    notes = {
        "ops_per_s": f"{completed} ops; raw {completed / timed.busy:.4g} ops/s in {timed.busy:.2f} s",
        "latency_p50_ms": f"n={attempted}; raw {statistics.median(timed.latencies) * 1000:.4g} ms",
        "latency_p90_ms": f"n={attempted}, {attempted - int(0.9 * attempted)} beyond; raw {raw_q[8] * 1000:.4g} ms",
        "peak_rss_mb": "ru_maxrss",
        "setup_s": f"median of {SETUP_REPEATS} set-ups; raw {statistics.median(t for t, _ in setup_times):.4g} s",
    }
    print(f"reference loop: median {loop_ms:.4g} ms over {len(timed.loops)} loops, nominal {reference.NOMINAL_MS} ms")
    return metrics, notes, [timed]


def _per_layer(workload, seed, modules, ops, checker):
    # Untraced and traced rounds alternate, each round starting with an
    # empty cyclotomic cache, so both sides do the same work on a machine
    # whose speed drifts.
    cli = modules["cli"]
    poly_cache = modules["cyclotomic"].cyclotomic_poly
    per_round = len(ops) // workloads.ROUNDS
    tracer = spans.Tracer()
    swaps, missing = spans.prepare(tracer, modules)
    for name in missing:
        print(f"not traced: {name} does not exist", file=sys.stderr)
    plain, traced = Pass(), Pass()
    for r in range(TRACE_ROUNDS[workload]):
        chunk = ops[r * per_round : (r + 1) * per_round]
        poly_cache.cache_clear()
        plain.run(cli, chunk, checker, count=per_round)
        spans.switch(swaps, True)
        poly_cache.cache_clear()
        traced.run(cli, chunk, checker, count=per_round, tracer=tracer)
        spans.switch(swaps, False)
        info = poly_cache.cache_info()
        tracer.counts["cyclotomic.poly_hits"] += info.hits
        tracer.counts["cyclotomic.poly_misses"] += info.misses
    metrics = spans.layer_metrics(
        tracer,
        wall=traced.busy,
        untraced_wall=plain.busy,
        ops=len(traced.latencies),
        output_bytes=traced.output_bytes,
    )
    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / f"spans-{workload}-{seed}.tsv"))
    return metrics, {}, [plain, traced]


def run_all(seed: int, seconds: int, traced: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    return results


def record_digests() -> None:
    """Rewrite digests.json: the stdout digest of every op of the
    default seed, keyed by the digest of its command line."""
    table = {}
    for workload in workloads.WORKLOADS:
        modules, ops = setup(workload, workloads.DEFAULT_SEED)
        modules["cyclotomic"].cyclotomic_poly.cache_clear()
        for op in ops:
            rc, out, err = run_op(modules["cli"], op.argv)
            if rc != 0:
                raise SystemExit(f"{op.key}: exit {rc}: {err.strip()}")
            table[checks.digest(op.key)] = checks.digest(out)
        print(f"{workload}: {len(ops)} ops", file=sys.stderr)
    with open(DIGESTS, "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        importlib.import_module("fracpow")
    except ImportError as ex:
        print(f"cannot import fracpow from {ROOT / 'src'}: {ex}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
