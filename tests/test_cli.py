"""File formats, round-trips, and the command-line surface."""

from __future__ import annotations

import json

import pytest

from rankloss import fileio
from rankloss.cli import main
from rankloss.errors import LoadError
from rankloss.exactla import IndexSet

from conftest import FIXTURES, e1, t6


def run(capsys, *argv) -> tuple[int, dict | None]:
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_load_e1_fixture():
    ensemble = fileio.load_ensemble(str(FIXTURES / "E1.json"))
    assert (ensemble.n, ensemble.K, ensemble.R) == (4, 2, 4)
    assert ensemble == e1()


def test_ensemble_round_trip(tmp_path):
    data = fileio.emit_ensemble(e1())
    path = tmp_path / "e.json"
    path.write_text(json.dumps(data))
    assert fileio.load_ensemble(str(path)) == e1()


def test_rank_deficient_block_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "matrices": [[["1", "2"], ["2", "4"]]]}))
    with pytest.raises(LoadError) as err:
        fileio.load_ensemble(str(path))
    assert "block 1" in str(err.value)


def test_bad_rational_literal(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "matrices": [[["1/0", "2"]]]}))
    with pytest.raises(LoadError):
        fileio.load_ensemble(str(path))
    path.write_text(json.dumps({"n": 2, "matrices": [[[0.5, "2"]]]}))
    with pytest.raises(LoadError):
        fileio.load_ensemble(str(path))
    # An exponent literal would expand to ten million digits before any check.
    path.write_text(json.dumps({"n": 2, "matrices": [[["1e10000000", "1"]]]}))
    with pytest.raises(LoadError, match="1e10000000"):
        fileio.load_ensemble(str(path))
    assert main(["certify", str(path)]) == 3


@pytest.mark.parametrize(
    "loader, data, location",
    [
        ("ensemble", {"n": True, "matrices": [[["1"]]]}, "n must be"),
        ("scheme", {"n": True, "beamformers": [[["1"]]]}, "n must be"),
        ("topology", {"K": True, "interference_sets": [[]]}, "K must be"),
        ("topology", {"K": 2, "interference_sets": [[], [True]]}, "receiver 2"),
        ("scheme", {"n": 1, "beamformers": [[["1"]]], "sparse_assignment": [[True]]}, "receiver 1"),
    ],
)
def test_json_booleans_rejected(tmp_path, capsys, loader, data, location):
    # JSON true is a Python bool, which is an int; it must not load as 1.
    path = tmp_path / f"{loader}.json"
    path.write_text(json.dumps(data))
    with pytest.raises(LoadError, match=location):
        getattr(fileio, f"load_{loader}")(str(path))
    argv = {
        "ensemble": ["certify", str(path)],
        "topology": ["tim", "dof", str(path)],
        "scheme": ["tim", "verify", str(FIXTURES / "T6.json"), str(path)],
    }[loader]
    assert main(argv) == 3
    assert location in capsys.readouterr().err


def test_topology_round_trip(tmp_path):
    data = fileio.emit_topology(t6())
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    assert fileio.load_topology(str(path)) == t6()


def test_topology_validation(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"K": 2, "interference_sets": [[2], [2]]}))
    with pytest.raises(LoadError):
        fileio.load_topology(str(path))  # self-interference
    path.write_text(json.dumps({"K": 2, "interference_sets": [[], [0]]}))
    with pytest.raises(LoadError):
        fileio.load_topology(str(path))  # index out of range
    path.write_text(json.dumps({"K": 2, "interference_sets": [[], []]}))
    assert fileio.load_topology(str(path)).K == 2  # empty sets are valid


def test_scheme_round_trip(tmp_path):
    scheme, assignment = fileio.load_scheme(str(FIXTURES / "T9b_scheme.json"))
    data = fileio.emit_scheme(scheme, assignment)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    again, again_assignment = fileio.load_scheme(str(path))
    assert again == scheme
    assert again_assignment == assignment
    assert assignment.get(1) == IndexSet.of(7, [1, 2])


# ---------------------------------------------------------------------------
# CLI dispatch
# ---------------------------------------------------------------------------

def test_certify_e1(capsys):
    code, report = run(capsys, "certify", str(FIXTURES / "E1.json"), "--tau", "1")
    assert code == 0
    assert report["max_tau"] == 1
    assert report["c2"]["holds"] is True
    assert report["c2"]["witnesses"][0]["J"] == [1, 2, 3]


def test_certify_generic_variant(capsys):
    code, report = run(capsys, "certify", str(FIXTURES / "E1_generic.json"))
    assert code == 0
    assert report["max_tau"] == 0


def test_mc_rank(capsys):
    code, report = run(
        capsys, "mc-rank", str(FIXTURES / "E1.json"), "--trials", "10", "--seed", "3"
    )
    assert code == 0
    assert report["generic_rank"] == 3
    assert report["rank_loss"] == 1


def test_equiv_e3(capsys):
    code, report = run(
        capsys, "equiv", str(FIXTURES / "E3.json"), "--tau", "1", "--trials", "20", "--seed", "7"
    )
    assert code == 0
    assert report["agreement"] is True
    assert not any(report["verdicts"].values())


def test_matroid_check(capsys):
    code, report = run(
        capsys,
        "matroid-check",
        str(FIXTURES / "E1.json"),
        "--block", "1",
        "--rows", "1,2,3",
        "--cols", "1,2",
    )
    assert code == 0
    assert report["axioms_ok"] is True
    assert report["rank_table"]["1,2,3"] == 1
    assert report["dual_rank_table"]["1,2,3"] == 2


def test_tim_dof_t9a(capsys):
    code, report = run(capsys, "tim", "dof", str(FIXTURES / "T9a.json"))
    assert code == 0
    assert report["ldof_sym"] == "4/9"
    assert report["chi_reduced"] == 3
    assert report["half_dof_feasible"] is False


def test_tim_dof_t6(capsys):
    code, report = run(capsys, "tim", "dof", str(FIXTURES / "T6.json"))
    assert code == 0
    assert report["half_dof_feasible"] is True
    assert report["chi_regular"] == 3
    assert report["ldof_sym"] == "1/2"


def test_tim_scheme_and_verify(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    code, report = run(
        capsys, "tim", "scheme", str(FIXTURES / "T6.json"), "--scheme-out", str(scheme_path)
    )
    assert code == 0
    assert report["activation_pattern"] == [[2], [1], [2], [2], [1], [1, 2]]
    code, verify_report = run(
        capsys, "tim", "verify", str(FIXTURES / "T6.json"), str(scheme_path), "--trials", "5"
    )
    assert code == 0
    assert verify_report["all_decodable"] is True


def test_tim_verify_t9b_design(capsys):
    code, report = run(
        capsys,
        "tim", "verify",
        str(FIXTURES / "T9b.json"),
        str(FIXTURES / "T9b_scheme.json"),
        "--trials", "10",
    )
    assert code == 0
    assert report["all_decodable"] is True
    assert report["per_receiver"] == [True] * 9


def test_tim_normalize(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    code, _ = run(
        capsys,
        "tim", "scheme", str(FIXTURES / "T9a.json"),
        "--kind", "exclusive",
        "--scheme-out", str(scheme_path),
    )
    assert code == 0
    code, report = run(
        capsys, "tim", "normalize", str(FIXTURES / "T9a.json"), str(scheme_path)
    )
    assert code == 0
    assert report["windows"][0] == [1, 2, 3]


def test_exit_code_load_error(capsys):
    assert main(["certify", "does-not-exist.json"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [b'{"n": 1, "matrices": [[["\xff"]]]}', b"[" * 200000 + b"]" * 200000],
    ids=["not-utf8", "deeply-nested"],
)
def test_unreadable_json_is_a_load_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["certify", str(path)]) == 3
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["certify", "E1.json", "--out"], ["tim", "scheme", "T6.json", "--scheme-out"]],
    ids=["out", "scheme-out"],
)
def test_unwritable_output_is_a_load_error(tmp_path, capsys, argv):
    *command, source, flag = argv
    target = tmp_path / "missing" / "x.json"
    assert main([*command, str(FIXTURES / source), flag, str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}:")
    assert captured.err.count("\n") == 1


def test_exit_code_precondition(capsys):
    assert main(["certify", str(FIXTURES / "E1.json"), "--tau", "9"]) == 4
    capsys.readouterr()


def test_exit_code_usage(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_exit_code_internal_on_disagreement(monkeypatch, capsys):
    # force a fake verdict flip: the dispatcher must exit 5 and dump the report
    from rankloss import cli as cli_module
    from rankloss.conditions import CheckResult

    real = cli_module.cross_validate

    def broken(ensemble, tau, cfg=None):
        report = real(ensemble, tau, cfg)
        flipped = tuple(
            CheckResult("C3", not r.holds) if r.condition == "C3" else r
            for r in report.results
        )
        from rankloss.conditions import EquivalenceReport
        from rankloss.errors import EquivalenceViolation

        bad = EquivalenceReport(tau=report.tau, c1=report.c1, results=flipped)
        raise EquivalenceViolation("forced disagreement", report=bad)

    monkeypatch.setattr(cli_module, "cross_validate", broken)
    code = main(["equiv", str(FIXTURES / "E1.json"), "--tau", "1"])
    err = capsys.readouterr().err
    assert code == 5
    assert "invariant" in err


def test_reports_deterministic(capsys):
    _, a = run(capsys, "equiv", str(FIXTURES / "E1.json"), "--tau", "1", "--seed", "5")
    _, b = run(capsys, "equiv", str(FIXTURES / "E1.json"), "--tau", "1", "--seed", "5")
    a.pop("timing_seconds")
    b.pop("timing_seconds")
    assert a == b


def test_out_flag_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run(capsys, "certify", str(FIXTURES / "E1.json"), "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["max_tau"] == 1
