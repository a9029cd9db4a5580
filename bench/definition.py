"""What the benchmark measures: workloads, metrics, units, directions, bounds.

``run.py --all`` writes BENCHMARK.json from these tables, so the file and
the metrics the runs print cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 15
# set-up runs at least this often and this long (scaled seconds) per run
SETUP_REPEATS = 5
SETUP_LEAST_S = 1.5

WORKLOADS = {
    "calculus_q": "Big-cell maps over Q on SL2/SL3 (small SL4 share), torus and boundary charts: "
    "linalg, chevalley, charts and bigcell do the work; ratfun and cones do none.",
    "calculus_eps": "The same maps on Q(eps) curves, mostly rank 1: RatFun arithmetic in ratfun "
    "dominates, through the same bigcell code as calculus_q over another field.",
    "polyhedral": "CLI analyze on chamber fans and star subdivisions (A2, B2, G2, A3) plus rejected "
    "fixtures, CLI hilbert, validated chart points: cones, snf, charts; no bigcell.",
    "verify_cli": "In-process `toroidal verify`: suite all at rank 1; signs, f_i, equivalence, "
    "functoriality at rank 2. The only workload running the suites' sampling loops.",
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "in_domain_ratio": ("ratio", "higher", 0.1),
    "correct_ratio": ("ratio", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

_LAYERS = (
    "ratfun",
    "linalg",
    "rootdata",
    "cones",
    "charts",
    "chevalley",
    "bigcell",
    "catalog",
    "suites",
    "analysis",
    "serialize",
    "cli",
    "bench",
)


def _per_layer() -> dict:
    out = {}
    for layer in _LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
    for group in (
        "ratfun.mul",
        "ratfun.add",
        "ratfun.div",
        "ratfun.pow",
        "linalg.matmul",
        "linalg.matrix_init",
        "linalg.inverse",
        "linalg.snf",
        "chevalley.ldu",
        "chevalley.refactor",
        "chevalley.unipotent_product",
        "charts.validate",
        "cones.relations",
        "cones.cone_init",
        "cones.fan_validate",
        "cones.orbit_fan",
        "cones.is_proper",
        "bigcell.reflect_simple",
        "bigcell.reorder",
        "bigcell.act",
        "bigcell.check_equivalence",
        "bigcell.anchors",
        "analysis.analyze",
        "suites.run_suite",
        "serialize.dumps",
        "cli.main",
    ):
        out[f"{group}.calls"] = ("count", "lower")
        out[f"{group}.self_s"] = ("s", "lower")
    out["cones.hilbert.self_s"] = ("s", "lower")
    out["cones.hilbert.accesses"] = ("count", "lower")
    out["cones.hilbert.computed"] = ("count", "lower")
    out["cones.fan_validate.pairs"] = ("count", "lower")
    out["cones.orbit_fan.cones"] = ("count", "lower")
    out["serialize.bytes"] = ("B", "lower")
    out["bigcell.anchors.hit_ratio"] = ("ratio", "higher")
    out["bigcell.equivalence.attempts"] = ("count", "lower")
    out["bigcell.equivalence.decided_ratio"] = ("ratio", "higher")
    for step in ("reflect_simple", "reorder", "act", "anchors", "reorder_direct", "act_direct"):
        out[f"bigcell.domain_miss.{step}"] = ("count", "lower")
    for micro in (
        "linalg.matmul.n2",
        "linalg.matmul.n3",
        "linalg.matmul.n4",
        "linalg.inverse.q",
        "linalg.inverse.eps",
        "chevalley.ldu.q",
        "chevalley.ldu.eps",
        "ratfun.mul",
        "ratfun.add",
        "cones.cone_init",
        "cones.hilbert",
    ):
        out[f"{micro}.us_per_call"] = ("us", "lower")
    out["trace.ops"] = ("count", "higher")
    out["trace.ops_per_s"] = ("1/s", "higher")
    out["trace.untraced_ops_per_s"] = ("1/s", "higher")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    out["trace.spans"] = ("count", "lower")
    out["trace.spans_dropped"] = ("count", "lower")
    out["trace.tail_quantile"] = ("ratio", "higher")
    return out


PER_LAYER = _per_layer()


def isolation_failures(traced: dict) -> list[str]:
    """The isolation each workload was built for, checked on traced metrics.

    ``traced`` maps a workload to its per-layer metric values.  These are
    predictions about where the program spends its work, not checks of its
    outputs: a failure is reported, and a change that moves work between
    layers may make one fail legitimately.
    """
    out = []

    def zero(workload, prefix, suffix=".calls"):
        values = traced.get(workload)
        if values is None:
            return
        for key, value in values.items():
            if key.startswith(prefix) and key.endswith(suffix) and value:
                out.append(f"{key} = {value} on {workload}, predicted 0")

    def largest(workload, layer):
        values = traced.get(workload)
        if values is None:
            return
        program = [name for name in _LAYERS if name != "bench"]
        top = max(program, key=lambda name: values[f"{name}.self_s"])
        if top != layer:
            out.append(f"largest self time on {workload} is {top}, predicted {layer}")

    zero("calculus_q", "ratfun.")
    for workload in ("calculus_q", "calculus_eps"):
        zero(workload, "cones.fan_validate.")
        zero(workload, "cones.orbit_fan.")
    zero("polyhedral", "bigcell.")
    largest("calculus_eps", "ratfun")
    largest("polyhedral", "cones")
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }


def write_benchmark_json(root: Path) -> None:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    (root / "BENCHMARK.json").write_text(text, encoding="utf-8")
