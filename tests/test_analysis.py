import json
import random
from fractions import Fraction

import pytest

from toroidal.analysis import analyze, report_status
import toroidal.cli as cli
from toroidal.cones import (
    Cone,
    Fan,
    fan_validate,
    is_proper,
    is_proper_in_chamber,
    orbit_fan,
)
from toroidal.linalg import primitive_vector
from toroidal.rootdata import RootDatum
from toroidal.serialize import (
    dumps_report,
    load_fan,
    load_root_datum,
    parse_rational,
    rational_str,
)

RD11 = RootDatum([[2, 0], [0, 2]])


def wedge_fan():
    return Fan([Cone([(-1, 0), (-1, -2)])], dim=2)


def test_analyze_valid_fan_report():
    report = analyze(RD11, wedge_fan())
    assert report_status(report) == "ok"
    assert report["valid"] is True
    assert report["violations"] == []
    assert report["chamber_supported"] is True
    assert report["chart_count"] == 4
    assert report["smooth"] is False
    assert report["proper"] is False
    cones = report["cones"]
    assert [c["rays"] for c in cones] == [
        [],
        [[-1, -2]],
        [[-1, 0]],
        [[-1, -2], [-1, 0]],
    ]
    big = cones[-1]
    assert big["index"] == 2
    assert big["smooth"] is False
    assert big["interior_cocharacter"] == [-2, -2]
    assert sorted(big["faces"]) == [0, 1, 2, 3]
    zero = cones[0]
    assert zero["interior_cocharacter"] is None
    assert zero["wonderful_coords"] == ["1", "1"]


def test_analyze_adjacency_lists_face_pairs():
    report = analyze(RD11, wedge_fan())
    adjacency = report["adjacency"]
    assert [0, 3] in adjacency  # zero cone is a face of the wedge
    assert all(f < c or f != c for f, c in adjacency)
    for f, c in adjacency:
        assert f != c


def test_analyze_gluing_witnesses_cut_faces():
    report = analyze(RD11, wedge_fan())
    for cone_entry, cone in zip(report["cones"], wedge_fan().cones):
        for glue in cone_entry["gluing"]:
            witness = tuple(glue["witness"])
            face_rays = [tuple(r) for r in glue["face_rays"]]
            for r in cone.rays:
                pairing = sum(a * b for a, b in zip(witness, r))
                if r in face_rays:
                    assert pairing == 0
                else:
                    assert pairing > 0


def test_analyze_invalid_fan_short_circuits():
    fan = Fan(
        [Cone([(-1, 0), (-1, -2)]), Cone([(-1, -1), (0, -1)])], dim=2
    )
    report = analyze(RD11, fan)
    assert report_status(report) == "invalid_fan"
    assert report["valid"] is False
    assert report["violations"]
    assert report["cones"] is None
    assert report["proper"] is None


def test_analyze_rejects_sub_cone_that_is_not_a_face():
    # the second cone's rays lie among the square's rays, but it cuts
    # through the square's interior instead of being its face
    square = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    diagonal = Cone([(1, 0, 1), (-1, 0, 1)])
    rd = RootDatum([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    report = analyze(rd, Fan([square, diagonal], dim=3))
    assert report_status(report) == "invalid_fan"
    assert report["valid"] is False
    assert report["violations"]
    assert report["proper"] is None


def test_analyze_chamber_violation():
    fan = Fan([Cone([(1, 0)], dim=2)], dim=2)
    report = analyze(RD11, fan)
    assert report_status(report) == "chamber_violation"
    assert report["valid"] is True
    assert report["chamber_supported"] is False


def test_analyze_proper_fan():
    fan = Fan(
        [Cone([(-1, 0), (-1, -2)]), Cone([(-1, -2), (0, -1)])], dim=2
    )
    report = analyze(RD11, fan)
    assert report_status(report) == "ok"
    assert report["proper"] is True


def test_serialization_roundtrip():
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert rational_str(Fraction(-5)) == "-5"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    report = analyze(RD11, wedge_fan())
    text = dumps_report(report)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["chart_count"] == 4


def test_report_renders_nested_fractions():
    report = {"b": (Fraction(1, 2), [Fraction(-3), {"c": Fraction(4, 6)}]), "a": Fraction(0)}
    assert dumps_report(report) == (
        '{\n  "a": "0",\n  "b": [\n    "1/2",\n    [\n      "-3",\n'
        '      {\n        "c": "2/3"\n      }\n    ]\n  ]\n}\n'
    )


def test_load_root_datum_forms():
    rd = load_root_datum({"type": "A", "rank": 2})
    assert rd.rank == 2
    rd2 = load_root_datum({"cartan_matrix": [[2, -1], [-1, 2]]})
    assert rd2.rank == 2
    assert rd2.cartan == rd.cartan


def test_load_fan_face_closes():
    fan = load_fan({"cones": [{"rays": [[-1, 0], [-1, -2]]}]}, dim=2)
    assert len(fan.cones) == 4


def _chamber_fans():
    """Valid fans in the chamber: whole chambers, star subdivisions, parts of a chamber."""
    out = []
    for letter, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2)):
        rd = RootDatum.of_type(letter, rank)
        out.append((rd, Fan([rd.negative_chamber()], dim=rank)))
    for letter, a, b, whole in (("A", 1, 1, True), ("A", 1, 2, True), ("B", 1, 1, True),
                                ("B", 1, 2, False)):
        rd = RootDatum.of_type(letter, 2)
        r1, r2 = rd.negative_chamber().rays
        v = primitive_vector([a * x + b * y for x, y in zip(r1, r2)])
        cones = [Cone([r1, v]), Cone([v, r2])] if whole else [Cone([r1, v])]
        out.append((rd, Fan(cones, dim=2)))
    rd = RootDatum.of_type("A", 2)
    out.append((rd, Fan([Cone([rd.negative_chamber().rays[0]])], dim=2)))
    return out


def test_weyl_translates_of_chamber_fans_form_a_fan():
    for rd, fan in _chamber_fans():
        assert fan_validate(fan) == []
        assert fan_validate(orbit_fan(fan, rd.weyl)) == []
        assert isinstance(analyze(rd, fan)["proper"], bool)


def _random_chamber_fans(rd, rng, count):
    """Seeded star subdivisions of the chamber, with cones dropped or cut to faces."""
    n = rd.rank
    out = []
    for _ in range(count):
        maximal = [rd.negative_chamber()]
        for _ in range(rng.randint(0, 3)):
            # the cones stay simplicial, so their facets are the faces of n - 1 rays
            cone = maximal.pop(rng.randrange(len(maximal)))
            weights = [rng.randint(1, 3) for _ in cone.rays]
            v = primitive_vector(
                [sum(w * r[k] for w, r in zip(weights, cone.rays)) for k in range(n)]
            )
            maximal += [
                Cone(list(f) + [v]) for f in cone.face_ray_sets() if len(f) == n - 1
            ]
        kept = []
        for cone in maximal:
            roll = rng.random()
            if roll < 0.15:
                continue
            if roll < 0.3:
                cone = rng.choice(cone.faces()[1:-1])
            kept.append(cone)
        out.append((rd, Fan(kept, dim=n)))
    return out


def _basic_chamber_fans(rd):
    """The chamber fan, the zero fan and the single-ray fans of a root datum."""
    chamber = rd.negative_chamber()
    fans = [Fan([chamber], dim=rd.rank), Fan([], dim=rd.rank)]
    return [(rd, fan) for fan in fans + [Fan([Cone([r])], dim=rd.rank) for r in chamber.rays]]


def _wall_count_verdicts(cases):
    """Chamber wall-count verdicts, each checked against the orbit oracle."""
    verdicts = []
    for rd, fan in cases:
        assert fan_validate(fan) == []
        chamber = rd.negative_chamber()
        assert all(chamber.contains(r) for c in fan.cones for r in c.rays)
        got = is_proper_in_chamber(fan, chamber)
        assert got == is_proper(fan, rd.weyl), fan.cones
        verdicts.append(got)
    return verdicts


def test_chamber_wall_count_matches_orbit_properness():
    cases = []
    for letter, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2)):
        cases += _basic_chamber_fans(RootDatum.of_type(letter, rank))
    cases += _chamber_fans()
    rng = random.Random(8)
    for rd, count in ((RD11, 6), (RootDatum.of_type("A", 2), 6), (RootDatum.of_type("B", 2), 6),
                      (RootDatum.of_type("G", 2), 4)):
        cases += _random_chamber_fans(rd, rng, count)
    verdicts = _wall_count_verdicts(cases)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("letter", ["A", "B", "C"])
def test_chamber_wall_count_matches_orbit_properness_at_rank_3(letter):
    # the orbit oracle takes seconds per rank-3 chamber fan, hence one test per type
    verdicts = _wall_count_verdicts(_basic_chamber_fans(RootDatum.of_type(letter, 3)))
    assert verdicts == [True, False, False, False, False]


def test_analyze_answers_at_rank_4(tmp_path):
    for letter in ("A", "B", "C", "D"):
        rd = RootDatum.of_type(letter, 4)
        report = analyze(rd, Fan([rd.negative_chamber()], dim=4))
        assert report["valid"] is True, letter
        assert report["chamber_supported"] is True, letter
        assert report["proper"] is True, letter
    rays = [list(r) for r in RootDatum.of_type("D", 4).negative_chamber().rays]
    (tmp_path / "rd.json").write_text(json.dumps({"type": "D", "rank": 4}))
    (tmp_path / "fan.json").write_text(json.dumps({"cones": [{"rays": rays}]}))
    argv = ["analyze", "--root-datum", tmp_path / "rd.json", "--fan", tmp_path / "fan.json",
            "--out", tmp_path / "out.json"]
    assert cli.main([str(a) for a in argv]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["proper"] is True
