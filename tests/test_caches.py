"""Per-process reuse: chamber data kept on the root datum, face cones kept on
their cone, one CLI parser.  Reuse must never change a report."""

import contextlib
import gc
import io

import toroidal.cli as cli
import toroidal.cones as cones
from toroidal import suites
from toroidal.catalog import chamber_cones
from toroidal.cones import Cone
from toroidal.rootdata import RootDatum
from toroidal.suites import run_suite

# verify runs over ranks 1-3, with a usage error and --help between them
_ARGV = [
    ["verify", "--suite", "all", "--rank", "1", "--cases", "2", "--seed", "0"],
    ["verify", "--suite", "f_i", "--rank", "2", "--cases", "2", "--seed", "1"],
    ["verify", "--rank", "2"],
    ["verify", "--suite", "equivalence", "--rank", "2", "--cases", "2", "--seed", "3"],
    ["verify", "--suite", "functoriality", "--rank", "2", "--cases", "2", "--seed", "0"],
    ["verify", "--help"],
    ["verify", "--suite", "theta", "--rank", "3", "--cases", "1", "--seed", "0"],
    ["verify", "--suite", "limits", "--rank", "2", "--cases", "2", "--seed", "4"],
    ["verify", "--suite", "action", "--rank", "3", "--cases", "1", "--seed", "2"],
    ["verify", "--suite", "signs", "--rank", "3", "--cases", "1", "--seed", "0"],
    ["verify", "--suite", "signs", "--rank", "2"],
    ["verify", "--suite", "all", "--rank", "1", "--cases", "2", "--seed", "0"],
    ["verify", "--suite", "functoriality", "--rank", "3", "--cases", "1", "--seed", "5"],
]


def _run(argv, out):
    """Exit code, --out bytes (or stdout) and stderr of one in-process call."""
    if out.exists():
        out.unlink()
    if "--suite" in argv:
        argv = argv + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = out.read_bytes() if out.exists() else stdout.getvalue().encode()
    return code, text, stderr.getvalue()


def test_warm_runs_equal_cold_runs(tmp_path):
    out = tmp_path / "out.json"
    cold = []
    for argv in _ARGV:
        suites._CALCULI.clear()
        cli._build_parser.cache_clear()
        cold.append(_run(argv, out))
    suites._CALCULI.clear()
    warm = [_run(argv, out) for _ in range(2) for argv in _ARGV]
    assert warm == cold + cold
    codes = [c for c, _, _ in cold]
    assert codes[2] == 1 and codes[5] == 0
    assert b"--suite" in cold[5][1]
    assert cold[0] == cold[11]


def _spy_on_double_description(monkeypatch):
    calls = []
    inner = cones.generators_from_halfspaces

    def spy(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cones, "generators_from_halfspaces", spy)
    return calls


def test_chamber_cones_are_built_once_per_root_datum(monkeypatch):
    rd = RootDatum.of_type("A", 2)
    first = chamber_cones(rd)
    stray = Cone([(1, 0)])
    calls = _spy_on_double_description(monkeypatch)
    second = chamber_cones(rd)
    assert calls == []
    assert second == first and second is not first
    assert all(a is b for a, b in zip(first, second))
    second.clear()
    first.append(stray)
    third = chamber_cones(rd)
    assert calls == []
    assert third == first[:-1]

    chamber = rd.negative_chamber()
    assert chamber is rd.negative_chamber()
    assert chamber.faces() is chamber.faces()
    assert chamber.faces()[-1] is chamber
    assert calls == []

    fresh = RootDatum.of_type("A", 2)
    fresh_cones = chamber_cones(fresh)
    assert calls, "a fresh root datum builds its own cones"
    assert fresh_cones == third
    assert all(a is not b for a, b in zip(fresh_cones, third))
    assert fresh.negative_chamber() is not chamber


def test_face_cones_are_kept_on_the_cone():
    cone = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    faces = cone.faces()
    assert faces is cone.faces()
    assert [f.rays for f in faces] == [tuple(sorted(s)) for s in cone.face_ray_sets()]
    assert faces[-1] is cone and faces[0].is_zero()
    zero = faces[0]
    assert zero.faces() == (zero,)


def _census():
    """Live cones and the entries of their monoid-decomposition memos."""
    gc.collect()
    live = [o for o in gc.get_objects() if isinstance(o, Cone)]
    return len(live), sum(len(c._decomposed) for c in live)


def test_memo_growth_plateaus():
    suites._CALCULI.clear()
    counts = {}
    for seed in range(400):
        run_suite("all", rank=1, cases=1, seed=seed)
        run_suite("equivalence", rank=2, cases=1, seed=seed)
        run_suite("functoriality", rank=2, cases=1, seed=seed)
        if seed + 1 in (200, 400):
            counts[seed + 1] = _census()
    assert counts[200][1] > 0
    assert counts[400] == counts[200]
