"""Fan analysis over a fixed root datum, producing a JSON-ready report."""

from __future__ import annotations

from .charts import identity_point, limit_point, wonderful_coords
from .cones import (
    Fan,
    cone_index,
    cone_is_smooth,
    face_witness,
    fan_validate,
    interior_cocharacter,
    is_proper_in_chamber,
    is_smooth,
    supported_in_chamber,
)
from .rootdata import RootDatum
from .serialize import rational_str

__all__ = ["analyze", "report_status"]


def _cone_entry(cone, faces, index_of, chamber_ok, rd):
    entry = {
        "rays": [list(r) for r in cone.rays],
        "index": cone_index(cone),
        "smooth": cone_is_smooth(cone),
        "hilbert_basis": [list(h) for h in cone.hilbert_basis],
        "faces": sorted(index_of[f] for f in faces),
        "gluing": [
            {
                "face_rays": [list(r) for r in f.rays],
                "witness": list(face_witness(f, cone)),
            }
            for f in faces
        ],
        "interior_cocharacter": (
            None if cone.is_zero() else list(interior_cocharacter(cone))
        ),
    }
    if chamber_ok:
        if cone.is_zero():
            base = identity_point(cone)
        else:
            base = limit_point(interior_cocharacter(cone), cone)
        entry["wonderful_coords"] = [
            rational_str(v) for v in wonderful_coords(base, rd)
        ]
    else:
        entry["wonderful_coords"] = None
    return entry


def analyze(rd: RootDatum, fan: Fan) -> dict:
    """Classification report for one fan; always returns a full schema."""
    report = {
        "root_datum": {
            "rank": rd.rank,
            "cartan_matrix": [[int(rd.cartan[i, j]) for j in range(rd.rank)] for i in range(rd.rank)],
        },
        "fan": {
            "dim": fan.dim,
            "cones": [{"rays": [list(r) for r in c.rays]} for c in fan.cones],
        },
        "valid": None,
        "violations": [],
        "chamber_supported": None,
        "cones": None,
        "smooth": None,
        "proper": None,
        "chart_count": None,
        "adjacency": None,
    }
    violations = fan_validate(fan)
    report["valid"] = not violations
    report["violations"] = violations
    if violations:
        return report

    chamber_ok = supported_in_chamber(fan, rd)
    report["chamber_supported"] = chamber_ok
    index_of = {c: k for k, c in enumerate(fan.cones)}
    # the fan is face-closed, so every face is already one of its cones
    by_rays = {frozenset(c.rays): c for c in fan.cones}
    faces_of = {c: [by_rays[s] for s in c.face_ray_sets()] for c in fan.cones}
    report["cones"] = [
        _cone_entry(c, faces_of[c], index_of, chamber_ok, rd) for c in fan.cones
    ]
    report["smooth"] = is_smooth(fan)
    report["chart_count"] = len(fan.cones)
    adjacency = []
    for c in fan.cones:
        for f in faces_of[c]:
            if f != c:
                adjacency.append([index_of[f], index_of[c]])
    report["adjacency"] = sorted(adjacency)
    if chamber_ok:
        # The closed chamber C is a strict fundamental domain for W: the
        # translates of C cover N_R and meet only along their walls.  So the
        # Weyl translates of a valid fan in C cover N_R iff the fan covers C,
        # which its walls decide without building the orbit fan.
        report["proper"] = is_proper_in_chamber(fan, rd.negative_chamber())
    return report


def report_status(report: dict) -> str:
    """Map a report to "ok", "invalid_fan" or "chamber_violation"."""
    if not report["valid"]:
        return "invalid_fan"
    if not report["chamber_supported"]:
        return "chamber_violation"
    return "ok"
