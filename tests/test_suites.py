import pytest

import toroidal.cli as cli
from toroidal.bigcell import Calculus, DomainReport, OutsideDomain
from toroidal.suites import SUITE_NAMES, PropertyResult, UnknownSuite, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense")


def test_every_suite_passes_small():
    for name in SUITE_NAMES:
        report = run_suite(name, rank=1, cases=4, seed=0)
        assert report.suite == name
        assert report.all_pass, [p for p in report.properties if not p.passed]
        assert report.properties
        for prop in report.properties:
            assert prop.cases > 0
            assert prop.counterexample is None


def test_aggregate_suite_prefixes_names():
    report = run_suite("all", rank=1, cases=2, seed=3)
    assert report.all_pass
    names = [p.name for p in report.properties]
    for name in SUITE_NAMES:
        assert any(n.startswith(f"{name}:") for n in names)


def test_reports_are_deterministic():
    a = run_suite("theta", rank=2, cases=4, seed=11)
    b = run_suite("theta", rank=2, cases=4, seed=11)
    assert a.properties == b.properties
    assert a.rank == b.rank == 2
    assert a.seed == 11


def test_rank_two_suites_pass():
    for name in ("f_i", "theta", "action", "limits"):
        report = run_suite(name, rank=2, cases=3, seed=5)
        assert report.all_pass, (name, report.properties)


def test_starved_property_fails_without_counterexample(monkeypatch, capsys):
    def outside(self, *args):
        raise OutsideDomain(DomainReport("act_direct", "a forced miss", "test"))

    monkeypatch.setattr(Calculus, "act_direct", outside)
    report = run_suite("action", rank=1, cases=2, seed=0)
    props = {p.name: p for p in report.properties}
    # every draw was redrawn, so no case was decided and none failed
    assert props["torus_agreement"] == PropertyResult("torus_agreement", False, 0, None)
    assert props["boundary_identity"].passed
    assert cli.main(["verify", "--suite", "action", "--rank", "1", "--cases", "2"]) == 4
    capsys.readouterr()

