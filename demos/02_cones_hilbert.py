"""Polyhedral layer: dual cones, Hilbert bases, faces, fans, properness.

Each chart of an embedding is governed by the monoid of lattice characters
that are nonnegative on a cone; its Hilbert basis is the minimal chart
coordinate system, and binomial relations between basis elements cut out
the chart as an affine variety.  A point of the chart is a monoid map: it is
nonzero exactly on the basis elements of one face, and there it satisfies a
lattice basis of the relations among them.
"""

from toroidal.charts import ChartPoint, InvalidChartValues
from toroidal.cones import (
    Cone,
    Fan,
    InvalidFan,
    cone_index,
    cone_is_smooth,
    face_witness,
    fan_validate,
    interior_cocharacter,
    is_proper,
)
from toroidal.rootdata import RootDatum

wedge = Cone([(1, 0), (1, 2)])
print("cone rays:", wedge.rays)
print("dual generators:", wedge.dual_generators())
print("Hilbert basis of the dual monoid:", wedge.hilbert_basis)
print("lattice index:", cone_index(wedge), "| smooth:", cone_is_smooth(wedge))
# the basis is (0,1), (1,0), (2,-1), tied by the relation 2*(1,0) = (0,1) + (2,-1)
point = ChartPoint(wedge, {(0, 1): 1, (1, 0): 2, (2, -1): 4})
print("accepted chart point:", point)
try:
    ChartPoint(wedge, {(0, 1): 1, (1, 0): 1, (2, -1): 2})
except InvalidChartValues as e:
    print("rejected value map:", e)

print("\nfaces of the wedge:")
for f in wedge.faces():
    print("  rays", f.rays, "witness", face_witness(f, wedge))
print("interior cocharacter:", interior_cocharacter(wedge))

# fans are face-closed collections; validity means pairwise face intersections
good = Fan([Cone([(-1, 0), (-1, -2)]), Cone([(-1, -2), (0, -1)])], dim=2)
bad = Fan([Cone([(-1, 0), (-1, -2)]), Cone([(-1, -1), (0, -1)])], dim=2)
print("\nvalid fan violations:", fan_validate(good))
print("overlapping fan violations:", len(fan_validate(bad)), "found")

# properness asks whether the Weyl translates of the fan tile the whole lattice
rd = RootDatum.of_type("A", 2)
chamber_fan = Fan([rd.negative_chamber()], dim=2)
print("\nA_2 chamber fan proper:", is_proper(chamber_fan, rd.weyl))

rd11 = RootDatum([[2, 0], [0, 2]])
lone = Fan([Cone([(1, 0), (1, 2)])], dim=2)
print("single wedge proper under A_1 x A_1:", is_proper(lone, rd11.weyl))

pentagon = Fan(
    [
        Cone([(1, 0), (1, 1)]),
        Cone([(1, 1), (0, 1)]),
        Cone([(0, 1), (-1, 0)]),
        Cone([(-1, 0), (0, -1)]),
        Cone([(0, -1), (1, 0)]),
    ],
    dim=2,
)
try:
    is_proper(pentagon, rd11.weyl)
except InvalidFan as e:
    print("pentagon orbit fan invalid:", len(e.args[0]), "violations")
