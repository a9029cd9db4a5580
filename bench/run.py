"""Benchmark of the toroidal package: one seeded workload per process.

    python3 bench/run.py --workload calculus_q --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.  One
closed-loop client runs the workload's operations one after another, in whole
rounds, until the timed operations add up to about ``--seconds``.  Every outcome is
checked right after its operation, outside the timed span.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs half
the time untraced, then the same operations again with every public function
of ``toroidal`` wrapped by ``tracer.Tracer``, and prints the per-layer metrics
with the tracing overhead.  The last line of standard output is one JSON
object; the exit code is 1 when any check failed.

``--all`` runs every workload, untraced and traced, each in its own process,
prints every metric with its unit, and writes BENCHMARK.json.

Times are scaled to a reference core speed by ``speed.SpeedLog``, which
probes the core's speed around and during every timed span, so that a
co-tenant slowing the shared core shows in neither the run nor its spread.
On the 2-vCPU VM the baseline was measured on, the spread of ops_per_s over
ten seeds was 16-28% unscaled and 1-3% scaled.  Each run prints its unscaled
throughput, its speed factor (scaled over measured time) and the bases of its
ratios to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """p90, or the highest quantile with ten samples beyond it when n < 100."""
    return max(0.5, min(0.9, 1 - 10 / n))


class Pass:
    """Outcomes of one timed pass over whole rounds."""

    def __init__(self, log: SpeedLog):
        self.log = log
        self.spans: list[tuple[float, float]] = []
        self.misses: dict[str, int] = {}
        self.errors: list[str] = []
        self.rounds = 0

    @property
    def latencies(self) -> list[float]:
        """Latencies scaled to the reference speed."""
        return [self.log.scaled(t0, t1) for t0, t1 in self.spans]

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def unscaled_busy(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.spans)


def timed_pass(wl, rounds, prepared: set, log, seconds, n_rounds=None, tracer=None) -> Pass:
    """Run whole rounds, ``n_rounds`` of them or as many as come nearest ``seconds``.

    After each round the pass stops if another round would take it further
    past ``seconds`` of scaled time than it now falls short, judged by the
    mean round so far.  Counting scaled time keeps the amount of work in a
    run, and so its sample count and memory, independent of the host's load.
    """
    from toroidal.bigcell import OutsideDomain

    out = Pass(log)
    perf = time.perf_counter
    log.edge()
    while True:
        k = out.rounds % len(rounds)
        ops = rounds[k]
        if k not in prepared:
            wl.prepare(ops)
            prepared.add(k)
            log.edge()
        for op in ops:
            frame = None
            if tracer is not None:
                tracer.enabled = True
                frame = tracer.begin_op(len(out.spans), op.kind)
            t0 = perf()
            try:
                value, exc = wl.execute(op), None
            except Exception as e:  # the check decides which exceptions are expected
                value, exc = None, e
            t1 = perf()
            if tracer is not None:
                tracer.end_op(frame)
                tracer.enabled = False
            log.edge()
            out.spans.append((t0, t1))
            if isinstance(exc, OutsideDomain):
                step = exc.report.step
                out.misses[step] = out.misses.get(step, 0) + 1
            error = wl.check(op, value, exc, t1 - t0)
            if error:
                out.errors.append(f"{op.uid}: {error}")
            log.edge()
        out.rounds += 1
        if n_rounds is not None:
            if out.rounds >= n_rounds:
                return out
        elif out.busy * (1 + 0.5 / out.rounds) >= seconds:
            return out


def _setup(wl, seed: int, repeats: int, least_s: float, log):
    """Set up at least ``repeats`` times and ``least_s`` scaled seconds in all.

    Returns the stream and each scaled set-up time; a cheap set-up is
    repeated more often, so its median is as steady as a costly one's.
    """
    times = []
    while len(times) < repeats or sum(times) < least_s:
        log.edge()
        t0 = time.perf_counter()
        rounds = wl.setup(seed, OUT / wl.name)
        t1 = time.perf_counter()
        log.edge()
        times.append(log.scaled(t0, t1))
    return rounds, times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    with SpeedLog() as log:
        result, notes = _measure(wl, seed, seconds, trace, log)
    print(json.dumps({"workload": name, "seed": seed, **notes}), file=sys.stderr)
    return result


def _measure(wl, seed: int, seconds: float, trace: bool, log) -> tuple[dict, dict]:
    from definition import SETUP_LEAST_S, SETUP_REPEATS

    repeats, least_s = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_LEAST_S)
    rounds, setup_times = _setup(wl, seed, repeats, least_s, log)
    prepared: set = set()
    if not trace:
        run = timed_pass(wl, rounds, prepared, log, seconds)
        passes = [run]
        n = len(run.latencies)
        misses = sum(run.misses.values())
        metrics = {
            "ops_per_s": (n / run.busy, "1/s"),
            "latency_p50_ms": (1e3 * percentile(run.latencies, 0.5), "ms"),
            "latency_p90_ms": (1e3 * percentile(run.latencies, tail_quantile(n)), "ms"),
            "in_domain_ratio": (1 - misses / n, "ratio"),
            "correct_ratio": (1 - len(run.errors) / n, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        notes = {
            "ops": n,
            "rounds": run.rounds,
            "tail_quantile": tail_quantile(n),
            "domain_misses": run.misses,
            "domain_miss_ratio": f"{misses}/{n}",
            "error_ratio": f"{len(run.errors)}/{n}",
            "setup_runs_s": setup_times,
            "speed": run.busy / run.unscaled_busy,
            "unscaled_ops_per_s": n / run.unscaled_busy,
        }
    else:
        from definition import PER_LAYER
        from tracer import Tracer

        plain = timed_pass(wl, rounds, prepared, log, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(wl, rounds, prepared, log, 0, plain.rounds, tracer)
        finally:
            tracer.uninstall()
        passes = [plain, traced]
        speed = traced.busy / traced.unscaled_busy
        values = tracer.metrics()
        for key, (unit, _) in PER_LAYER.items():
            if unit in ("s", "us") and key in values:
                values[key] *= speed
        n = len(traced.latencies)
        values["trace.ops"] = n
        values["trace.ops_per_s"] = n / traced.busy
        values["trace.untraced_ops_per_s"] = len(plain.latencies) / plain.busy
        values["trace.overhead_ratio"] = traced.busy / plain.busy - 1
        values["trace.tail_quantile"] = tail_quantile(n)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{wl.name}")
        metrics = {k: (values[k], unit) for k, (unit, _) in PER_LAYER.items()}
        unlisted = sorted(set(values) - set(PER_LAYER))
        if unlisted:
            raise RuntimeError(f"tracer metrics missing from the definition: {unlisted}")
        notes = {
            "ops": n,
            "rounds": traced.rounds,
            "domain_misses": traced.misses,
            "domain_miss_ratio": f"{sum(traced.misses.values())}/{n}",
            "speed": speed,
        }
    errors = [e for p in passes for e in p.errors]
    attempted = sum(len(p.latencies) for p in passes)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return result, notes


def run_all(seed: int, seconds: float) -> int:
    from definition import (
        END_TO_END,
        PER_LAYER,
        WORKLOADS,
        isolation_failures,
        write_benchmark_json,
    )

    status = 0
    traced = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                continue
            result = json.loads(lines[-1])
            print(
                f"\n== {name} (trace={trace}) correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            wanted = PER_LAYER if trace else END_TO_END
            for metric in wanted:
                m = result["metrics"][metric]
                print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
            if trace:
                traced[name] = {k: m["value"] for k, m in result["metrics"].items()}
    failures = isolation_failures(traced)
    print("\nisolation:", "as predicted" if not failures else "")
    for failure in failures:
        print(f"  {failure}")
    write_benchmark_json(ROOT)
    print(f"\nwrote {ROOT / 'BENCHMARK.json'}")
    return status


def main(argv=None) -> int:
    from definition import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toroidal" / "__init__.py").is_file():
        print(f"error: no toroidal package at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload or --all is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
