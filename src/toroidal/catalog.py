"""Shared catalogs of cones, fans, and chamber data used by suites and tests."""

from __future__ import annotations

from .cones import Cone, Fan, interior_cocharacter
from .rootdata import RootDatum

__all__ = ["cone_catalog", "fan_catalog", "chamber_cones"]


def cone_catalog():
    """Thirty cones of ambient rank 1 to 3, from zero cones to non-simplicial."""
    specs = [
        (1, ()),
        (1, ((1,),)),
        (1, ((-1,),)),
        (2, ()),
        (2, ((1, 0), (1, 2))),
        (2, ((-1, 0),)),
        (2, ((-1, 0), (-1, -2))),
        (2, ((-1, -2), (0, -1))),
        (2, ((-1, -1), (0, -1))),
        (2, ((-1, -1), (-1, -2))),
        (2, ((1, 0), (0, 1))),
        (2, ((1, 1), (1, -1))),
        (2, ((2, 1), (1, 2))),
        (2, ((1, 0), (1, 3))),
        (2, ((-2, -1), (-1, -2))),
        (2, ((1, 2),)),
        (2, ((2, 3),)),
        (2, ((0, 1),)),
        (3, ()),
        (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        (3, ((1, 0, 0), (0, 1, 0), (1, 1, 2))),
        (3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))),
        (3, ((1, 0, 0), (1, 1, 0), (1, 1, 1))),
        (3, ((1, 0, 0), (1, 2, 0), (1, 0, 2))),
        (3, ((2, 1, 1), (1, 2, 1), (1, 1, 2))),
        (3, ((1, 0, 0), (0, 1, 0))),
        (3, ((1, 1, 1),)),
        (3, ((0, 0, -1),)),
        (3, ((1, 0, 0), (0, 1, 1), (1, 1, 3))),
        (3, ((-1, 0, 0), (0, -1, 0), (-1, -1, -2))),
    ]
    return [Cone(rays, dim=dim) for dim, rays in specs]


def fan_catalog():
    """Named fans exercising validity, completeness, and smoothness checks."""
    fans = {
        "a1_embedding": Fan([Cone([(-1,)], dim=1)], dim=1),
        "line_complete": Fan([Cone([(1,)], dim=1), Cone([(-1,)], dim=1)], dim=1),
        "a2_chamber": Fan([Cone([(-2, -1), (-1, -2)])], dim=2),
        "two_cones_valid": Fan(
            [Cone([(-1, 0), (-1, -2)]), Cone([(-1, -2), (0, -1)])], dim=2
        ),
        "two_cones_overlap": Fan(
            [Cone([(-1, 0), (-1, -2)]), Cone([(-1, -1), (0, -1)])], dim=2
        ),
        "quadrants": Fan(
            [
                Cone([(1, 0), (0, 1)]),
                Cone([(0, 1), (-1, 0)]),
                Cone([(-1, 0), (0, -1)]),
                Cone([(0, -1), (1, 0)]),
            ],
            dim=2,
        ),
        "single_singular": Fan([Cone([(1, 0), (1, 2)])], dim=2),
        "pentagon": Fan(
            [
                Cone([(1, 0), (1, 1)]),
                Cone([(1, 1), (0, 1)]),
                Cone([(0, 1), (-1, 0)]),
                Cone([(-1, 0), (0, -1)]),
                Cone([(0, -1), (1, 0)]),
            ],
            dim=2,
        ),
        "octant": Fan([Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])], dim=3),
        "two_cones_open": Fan(
            [Cone([(1, 0), (1, 2)]), Cone([(1, 2), (0, 1)])], dim=2
        ),
    }
    return fans


def chamber_cones(rd: RootDatum):
    """Cones supported in the closed negative chamber of a root datum.

    Returns the faces of the chamber itself together with a few subdivided
    cones through the chamber's interior, giving boundary charts of every
    dimension for downstream sampling.  The cones are built once per root
    datum and kept on it; each call returns a fresh list of them.
    """
    if rd._chamber_cones is None:
        rd._chamber_cones = tuple(_build_chamber_cones(rd))
    return list(rd._chamber_cones)


def _build_chamber_cones(rd: RootDatum):
    chamber = rd.negative_chamber()
    cones = list(chamber.faces())
    center = interior_cocharacter(chamber)
    center_ray = Cone([center], dim=rd.rank)
    if center_ray not in cones:
        cones.append(center_ray)
    for ray in chamber.rays:
        mixed = Cone([ray, center], dim=rd.rank)
        if len(mixed.rays) == 2 and mixed not in cones:
            cones.append(mixed)
    return cones
