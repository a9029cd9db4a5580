"""JSON input/output: root data, fans, and deterministic report dumps."""

from __future__ import annotations

import json
from fractions import Fraction

from .cones import MAX_DIM, Cone, Fan
from .rootdata import RootDatum, cartan_matrix_of_type

__all__ = [
    "rational_str",
    "parse_rational",
    "load_root_datum",
    "load_fan",
    "dumps_report",
]


def rational_str(x) -> str:
    """Exact decimal-free rendering: "p" for integers, "p/q" otherwise."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def load_root_datum(data: dict) -> RootDatum:
    """Build a root datum from {"type","rank"} or {"cartan_matrix"} JSON.

    No fan has more than MAX_DIM dimensions, so a larger rank can never be
    analyzed; it is refused before any matrix or root system is built.
    """
    if not isinstance(data, dict):
        raise ValueError("root datum must be a JSON object")
    if "cartan_matrix" in data:
        if "type" in data or "rank" in data:
            raise ValueError('root datum names both "cartan_matrix" and "type"/"rank"')
        cartan = data["cartan_matrix"]
        if not isinstance(cartan, list) or not all(isinstance(r, list) for r in cartan):
            raise ValueError('"cartan_matrix" must be a list of integer rows')
        if len(cartan) > MAX_DIM:
            raise ValueError(f"rank must be at most {MAX_DIM}, got {len(cartan)}")
        return RootDatum(cartan)
    if "type" in data and "rank" in data:
        rank = data["rank"]
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if rank > MAX_DIM:
            raise ValueError(f"rank must be at most {MAX_DIM}, got {rank}")
        return RootDatum(cartan_matrix_of_type(data["type"], rank))
    raise ValueError('root datum needs "cartan_matrix" or "type" and "rank"')


def load_fan(data: dict, dim: int | None = None) -> Fan:
    """Build a fan from {"cones": [{"rays": [[...]]}]} JSON; faces are added."""
    if not isinstance(data, dict) or not isinstance(data.get("cones"), list):
        raise ValueError('fan JSON needs a "cones" list')
    cones = []
    for entry in data["cones"]:
        rays = entry.get("rays") if isinstance(entry, dict) else entry
        if not isinstance(rays, list) or not all(isinstance(r, list) for r in rays):
            raise ValueError(
                'fan JSON needs a "cones" list of ray-vector lists or {"rays": [...]} objects'
            )
        cones.append(Cone(rays, dim=dim))
    if dim is None:
        if not cones:
            raise ValueError("cannot infer fan dimension from an empty cone list")
        dim = cones[0].dim
    return Fan(cones, dim)


def dumps_report(report) -> str:
    """Deterministic rendering: sorted keys, two-space indent, one newline;
    a Fraction at any depth renders as ``rational_str``."""
    return json.dumps(report, sort_keys=True, indent=2, default=rational_str) + "\n"
