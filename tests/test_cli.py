"""Command-line contract: exit codes, report determinism, payload shapes."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import toroidal.cli as cli
from toroidal.cones import MAX_DIM

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_args(root, fan, out):
    return [
        "analyze",
        "--root-datum",
        FIXTURES / root,
        "--fan",
        FIXTURES / fan,
        "--out",
        out,
    ]


@pytest.mark.parametrize(
    "root, fan, expected",
    [
        ("root_a1.json", "fan_a1.json", 0),
        ("root_a1a1.json", "fan_wedge.json", 0),
        ("root_a1a1.json", "fan_complete_pair.json", 0),
        ("root_a1a1.json", "fan_overlap.json", 2),
        ("root_a1a1.json", "fan_positive.json", 3),
    ],
)
def test_analyze_exit_codes(root, fan, expected, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(analyze_args(root, fan, out), capsys)
    assert code == expected
    # diagnostics are still written when the fan is rejected
    assert out.exists()


def test_analyze_invalid_fan_report_has_violations(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(analyze_args("root_a1a1.json", "fan_overlap.json", out), capsys)
    assert code == 2
    report = json.loads(out.read_text())
    assert report["valid"] is False
    assert report["violations"]
    assert report["cones"] is None


def test_analyze_parse_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run_cli(analyze_args("root_a1a1.json", "broken.json", out), capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not out.exists()


def test_analyze_missing_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run_cli(analyze_args("root_a1a1.json", "no_such_fan.json", out), capsys)
    assert code == 1
    assert err.startswith("error:")


def test_analyze_requires_out(capsys):
    argv = [
        "analyze",
        "--root-datum",
        str(FIXTURES / "root_a1a1.json"),
        "--fan",
        str(FIXTURES / "fan_wedge.json"),
    ]
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_analyze_deterministic_bytes(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    run_cli(analyze_args("root_a1a1.json", "fan_wedge.json", first), capsys)
    run_cli(analyze_args("root_a1a1.json", "fan_wedge.json", second), capsys)
    assert first.read_bytes() == second.read_bytes()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_verify_stdout_payload(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "signs", "--rank", "1", "--cases", "2", "--seed", "0"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "signs"
    assert payload["rank"] == 1
    assert payload["seed"] == 0
    assert payload["all_pass"] is True
    assert payload["properties"]
    for prop in payload["properties"]:
        assert prop["passed"] is True
        assert prop["counterexample"] is None


def test_verify_deterministic_bytes(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["verify", "--suite", "all", "--rank", "1", "--cases", "2", "--seed", "7"]
    run_cli(argv + ["--out", first], capsys)
    run_cli(argv + ["--out", second], capsys)
    assert first.read_bytes() == second.read_bytes()


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "mystery"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value",
    [("--rank", "0"), ("--rank", "4"), ("--cases", "0")],
)
def test_verify_rejects_bad_bounds(flag, value, capsys):
    code, _, err = run_cli(["verify", "--suite", "signs", flag, value], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_verify_failure_exits_four(monkeypatch, capsys):
    failing = types.SimpleNamespace(
        suite="signs",
        rank=1,
        seed=0,
        cases=2,
        all_pass=False,
        properties=[
            types.SimpleNamespace(
                name="signs_are_units",
                passed=False,
                cases=2,
                counterexample={"root": [1, 0]},
            )
        ],
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: failing)
    code, out, _ = run_cli(["verify", "--suite", "signs"], capsys)
    assert code == 4
    payload = json.loads(out)
    assert payload["all_pass"] is False
    assert payload["properties"][0]["counterexample"] == {"root": [1, 0]}


def test_hilbert_saturation_example(capsys):
    code, out, _ = run_cli(["hilbert", "--rays", "[[1,0],[1,2]]"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["dual_generators"] == [[0, 1], [2, -1]]
    assert payload["hilbert_basis"] == [[0, 1], [1, 0], [2, -1]]


def test_hilbert_single_ray(capsys):
    code, out, _ = run_cli(["hilbert", "--rays", "[[-1]]"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert_basis"] == [[-1]]


def test_hilbert_zero_cone_lists_signed_basis(capsys):
    code, out, _ = run_cli(["hilbert", "--rays", "[]", "--dim", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["hilbert_basis"]) == [[-1, 0], [0, -1], [0, 1], [1, 0]]


def test_hilbert_empty_rays_need_dim(capsys):
    code, _, err = run_cli(["hilbert", "--rays", "[]"], capsys)
    assert code == 1
    assert "dim" in err


def test_hilbert_rejects_dim_contradicting_rays(capsys):
    code, out, err = run_cli(["hilbert", "--rays", "[[1,0]]", "--dim", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "dimension 3" in err


def test_analyze_rejects_rays_of_wrong_dimension(tmp_path, capsys):
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps({"type": "A", "rank": 2}))
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"cones": [{"rays": [[-1, 0, 0], [0, -1, 0]]}]}))
    argv = ["analyze", "--root-datum", rd, "--fan", fan, "--out", tmp_path / "r.json"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "dimension 2" in err


@pytest.mark.parametrize(
    "fan, message",
    [
        ({"cones": 5}, 'fan JSON needs a "cones" list'),
        ({"cones": [{"rays": 5}]}, 'fan JSON needs a "cones" list of ray-vector lists'),
        ({"cones": [[1, 2]]}, 'fan JSON needs a "cones" list of ray-vector lists'),
        ({"cones": [{"ray": [[1, 0]]}]}, 'fan JSON needs a "cones" list of ray-vector lists'),
    ],
)
def test_analyze_rejects_a_malformed_fan(fan, message, tmp_path, capsys):
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps({"type": "A", "rank": 2}))
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan))
    code, out, err = run_cli(analyze_args(rd, path, tmp_path / "r.json"), capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_hilbert_rejects_cone_with_a_line(capsys):
    code, out, err = run_cli(["hilbert", "--rays", "[[1,0],[-1,0]]"], capsys)
    assert code == 1
    assert out == ""
    assert "contains a line" in err


def test_module_entry_point_runs(capsys):
    argv = ["verify", "--suite", "signs", "--rank", "1"]
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "toroidal.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, out, _ = run_cli(argv, capsys)
    assert result.returncode == code == 0
    assert result.stdout == out


def test_hilbert_rays_from_file(tmp_path, capsys):
    rays = tmp_path / "rays.json"
    rays.write_text("[[1,0],[1,2]]")
    code, out, _ = run_cli(["hilbert", "--rays", rays], capsys)
    assert code == 0
    assert json.loads(out)["hilbert_basis"] == [[0, 1], [1, 0], [2, -1]]


def test_hilbert_out_file(tmp_path, capsys):
    dest = tmp_path / "basis.json"
    code, out, _ = run_cli(["hilbert", "--rays", "[[-1]]", "--out", dest], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["hilbert_basis"] == [[-1]]


def test_hilbert_rejects_non_list(capsys):
    code, _, err = run_cli(["hilbert", "--rays", '{"rays": []}'], capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("rays", ["[1,2]", "[[1,0],5]"])
def test_hilbert_rejects_rays_that_are_not_vectors(rays, capsys):
    code, out, err = run_cli(["hilbert", "--rays", rays], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --rays must be a JSON list of integer vectors\n"


def test_hilbert_rejects_boolean_coordinates(capsys):
    code, _, err = run_cli(["hilbert", "--rays", "[[true,0]]"], capsys)
    assert code == 1
    assert "non-integer" in err


@pytest.mark.parametrize(
    "root, fan",
    [
        ({"cartan_matrix": [[2, False], [False, 2]]}, "fan_wedge.json"),
        ({"type": "A", "rank": 2.7}, "fan_wedge.json"),
        ({"type": "A", "rank": True}, "fan_a1.json"),
        ({"type": "A", "rank": "2"}, "fan_wedge.json"),
    ],
)
def test_analyze_rejects_non_integer_root_datum(root, fan, tmp_path, capsys):
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps(root))
    argv = ["analyze", "--root-datum", rd, "--fan", FIXTURES / fan, "--out", tmp_path / "r.json"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "integer" in err


@pytest.mark.parametrize(
    "root",
    [
        {"cartan_matrix": [[2, 0], [0, 2]], "type": "A"},
        {"cartan_matrix": [[2, 0], [0, 2]], "rank": 2},
        {"cartan_matrix": [[2, 0], [0, 2]], "type": "A", "rank": 2},
    ],
)
def test_analyze_rejects_conflicting_root_datum_keys(root, tmp_path, capsys):
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps(root))
    argv = analyze_args(rd, "fan_wedge.json", tmp_path / "r.json")
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "cartan_matrix" in err


@pytest.mark.parametrize("cartan", [5, [5], [[2, -1], 5], {"a": 1}, "[[2]]"])
def test_analyze_rejects_a_cartan_matrix_that_is_not_a_list_of_rows(cartan, tmp_path, capsys):
    # 5, [5] and [[2,-1],5] used to print "'int' object is not iterable",
    # and {"a": 1} "Cartan matrix diagonal must be 2"
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps({"cartan_matrix": cartan}))
    code, _, err = run_cli(analyze_args(rd, "fan_wedge.json", tmp_path / "r.json"), capsys)
    assert code == 1
    assert err == 'error: "cartan_matrix" must be a list of integer rows\n'


@pytest.mark.parametrize("letter", [1, None, ["A"], {"A": 1}])
def test_analyze_rejects_a_type_that_is_not_a_string(letter, tmp_path, capsys):
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps({"type": letter, "rank": 2}))
    code, _, err = run_cli(analyze_args(rd, "fan_wedge.json", tmp_path / "r.json"), capsys)
    assert code == 1
    assert "type must be a string" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rank", [5, 100000, 10**9])
def test_analyze_refuses_a_rank_no_fan_can_have(rank, tmp_path, capsys, monkeypatch):
    import toroidal.serialize as serialize

    built = []

    def spy(letter, rank):
        built.append(rank)
        raise AssertionError(f"a rank-{rank} Cartan matrix was built")

    monkeypatch.setattr(serialize, "cartan_matrix_of_type", spy)
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps({"type": "A", "rank": rank}))
    code, _, err = run_cli(analyze_args(rd, "fan_wedge.json", tmp_path / "r.json"), capsys)
    assert code == 1
    assert f"rank must be at most {MAX_DIM}" in err
    assert not built


@pytest.mark.parametrize("size", [5, 40])
def test_analyze_refuses_a_cartan_matrix_no_fan_can_have(size, tmp_path, capsys, monkeypatch):
    import toroidal.serialize as serialize

    built = []

    def spy(cartan):
        built.append(len(cartan))
        raise AssertionError(f"a rank-{len(cartan)} root datum was built")

    monkeypatch.setattr(serialize, "RootDatum", spy)
    cartan = [
        [2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(size)]
        for i in range(size)
    ]
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps({"cartan_matrix": cartan}))
    code, _, err = run_cli(analyze_args(rd, "fan_wedge.json", tmp_path / "r.json"), capsys)
    assert code == 1
    assert f"rank must be at most {MAX_DIM}, got {size}" in err
    assert not built


def test_analyze_still_builds_a_root_datum_of_the_largest_rank(tmp_path, capsys, monkeypatch):
    import toroidal.serialize as serialize

    built = []
    real = serialize.cartan_matrix_of_type

    def spy(letter, rank):
        built.append(rank)
        return real(letter, rank)

    monkeypatch.setattr(serialize, "cartan_matrix_of_type", spy)
    rd = tmp_path / "rd.json"
    rd.write_text(json.dumps({"type": "A", "rank": MAX_DIM}))
    code, _, err = run_cli(analyze_args(rd, "fan_wedge.json", tmp_path / "r.json"), capsys)
    # the wedge fan has dimension 2, so the fan is refused after the datum is built
    assert code == 1
    assert built == [MAX_DIM]
    assert f"dimension {MAX_DIM}" in err
