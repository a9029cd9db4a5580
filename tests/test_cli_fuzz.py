"""Seeded fuzz of the command line: every input ends in an exit code, never a traceback.

``analyze``, ``hilbert`` and ``verify`` get well-formed, malformed and
ill-typed JSON and arguments.  Every run must return an exit code from 0 to 4
with no traceback on standard error, and finish within ``SECONDS_PER_RUN``.
Ranks, dimensions and coordinates stay small, so no example can ask for a
large allocation: integer rays reach -4..4 in dimensions 1-3 and -1..1 in
dimension 4, where the Hilbert candidate box grows fastest.  ``verify`` runs
at ranks 1 and 2 only; rank 3 is left to the tests of the suites.
"""

import contextlib
import io
import json
import signal

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toroidal.cli as cli
from toroidal.suites import SUITE_NAMES

SECONDS_PER_RUN = 10
VALID_TYPES = (("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3))

# JSON values of the wrong kind wherever a number or a list is expected
odd = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)
# the Hilbert candidate box grows with the coordinates, fastest in
# dimension 4: coordinates stay within -4..4, and within -1..1 there
coordinate = st.one_of(st.integers(-1, 1), odd)
ray = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-1, 1), min_size=4, max_size=4),
    st.lists(coordinate, max_size=4),
)
rays = st.lists(ray, max_size=4)
square_rays = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), max_size=4)
)
cartan = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.one_of(st.integers(-3, 0), st.integers(-3, 0), odd), min_size=d, max_size=d),
        min_size=d,
        max_size=d,
    ).map(lambda m: [[2 if i == j else x for j, x in enumerate(r)] for i, r in enumerate(m)])
)
root_datum = st.one_of(
    st.fixed_dictionaries(
        {
            "type": st.one_of(st.sampled_from("ABCDGEabq"), odd, st.integers(-1, 2)),
            "rank": st.one_of(st.integers(-1, 6), odd),
        }
    ),
    st.fixed_dictionaries({"cartan_matrix": st.one_of(cartan, st.lists(rays, max_size=3), odd)}),
    st.dictionaries(st.sampled_from(["type", "rank", "cartan_matrix", "x"]), odd, max_size=3),
    odd,
)
fan = st.one_of(
    st.fixed_dictionaries({"cones": st.lists(st.fixed_dictionaries({"rays": square_rays}), max_size=3)}),
    st.fixed_dictionaries(
        {"cones": st.lists(st.one_of(rays, st.fixed_dictionaries({"rays": rays}), odd), max_size=3)}
    ),
    st.dictionaries(st.sampled_from(["cones", "rays"]), odd, max_size=2),
    odd,
)
# text that is not JSON, or JSON cut short
garbage = st.one_of(st.text(max_size=12), st.just('{"type": "A", "rank"'), st.just("[[1, 0],"))


@st.composite
def well_formed_analyze(draw):
    letter, rank = draw(st.sampled_from(VALID_TYPES))
    cone = st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank), max_size=3)
    cones = draw(st.lists(cone.map(lambda r: {"rays": r}), max_size=3))
    return json.dumps({"type": letter, "rank": rank}), json.dumps({"cones": cones})


@st.composite
def analyze_argv(draw):
    if draw(st.booleans()):
        rd, fn = draw(well_formed_analyze())
    else:
        rd = draw(st.one_of(root_datum.map(json.dumps), garbage))
        fn = draw(st.one_of(fan.map(json.dumps), garbage))
    return "analyze", rd, fn


@st.composite
def hilbert_argv(draw):
    text = draw(st.one_of(rays.map(json.dumps), square_rays.map(json.dumps), garbage))
    argv = ["hilbert", "--rays", text]
    dim = draw(st.one_of(st.none(), st.integers(-1, 5), st.just(10**20), st.text(max_size=2)))
    if dim is not None:
        argv += ["--dim", str(dim)]
    return tuple(argv)


@st.composite
def verify_argv(draw):
    argv = ["verify", "--suite", draw(st.sampled_from(SUITE_NAMES + ("all", "nope")))]
    argv += ["--rank", str(draw(st.sampled_from([1, 2, 1, 2, -1, 0, 4, 10**20])))]
    argv += ["--cases", str(draw(st.sampled_from([1, 2, 1, 2, -1, 0])))]
    argv += ["--seed", str(draw(st.one_of(st.integers(0, 10**6), st.integers(-(10**20), 10**20))))]
    return tuple(argv)


class _TooSlow(Exception):
    pass


def _alarm(signum, frame):
    raise _TooSlow(f"a run took more than {SECONDS_PER_RUN} s")


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.one_of(analyze_argv(), hilbert_argv(), verify_argv()))
def test_cli_ends_in_an_exit_code_without_traceback(tmp_path, argv):
    if argv[0] == "analyze":
        rd, fn = tmp_path / "rd.json", tmp_path / "fan.json"
        rd.write_text(argv[1])
        fn.write_text(argv[2])
        argv = ["analyze", "--root-datum", rd, "--fan", fn, "--out", tmp_path / "r.json"]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(SECONDS_PER_RUN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith(("error:", "usage:")), (argv, err.getvalue())
