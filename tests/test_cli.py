"""File formats, round-trips, and the command-line surface."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankloss.exactla
from rankloss import fileio
from rankloss.cli import build_parser, main
from rankloss.conditions import Ensemble
from rankloss.errors import LoadError
from rankloss.exactla import ExactMatrix, IndexSet, parse_rational
from rankloss.tim import Scheme, SparseAssignment
from rankloss.randrank import TrialConfig

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
    "entry, location",
    [
        ('"' + "7" * 1_000_000 + '"', "block 1, column 1, row 2: bad rational literal '7777"),
        ("[" + ", ".join(["0"] * 300_000) + "]", "block 1, column 1, row 2: not a rational literal: [0, 0"),
        ("7" * 1_000_000, "holds a number too long to read"),
    ],
    ids=["string-numeral", "huge-repr", "json-number"],
)
def test_huge_literal_gives_one_short_error_line(tmp_path, capsys, entry, location):
    # A 1 MB literal is quoted by a short prefix, not echoed into a 1 MB line.
    path = tmp_path / "huge.json"
    path.write_text('{"n": 2, "matrices": [[["1", ' + entry + "]]]}")
    assert main(["certify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert location in err


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


def test_scheme_load_parses_each_entry_once(monkeypatch):
    # Every entry is validated once, as an integer pair read straight into
    # its column's grid: an integer scheme builds no Fraction rows.
    parsed = []
    pair = rankloss.exactla._rational_pair

    def counting_pair(literal):
        parsed.append(literal)
        return pair(literal)

    monkeypatch.setattr(fileio, "_rational_pair", counting_pair)
    path = FIXTURES / "T9b_scheme.json"
    scheme, _ = fileio.load_scheme(str(path))
    entries = [v for block in json.loads(path.read_text())["beamformers"] for col in block for v in col]
    assert parsed == entries
    assert len(entries) == sum(b.n_rows * b.n_cols for b in scheme.beamformers)
    for b in scheme.beamformers:
        assert set(b._scales) == {1} and "rows" not in vars(b)


def _fractional_scheme() -> tuple[Scheme, SparseAssignment]:
    """Three users over 3 slots, with mixed denominators inside a column."""
    return (
        Scheme(
            3,
            (
                ExactMatrix.from_columns([["2/4", "1", "0"], ["-1/3", "5/6", "7"]]),
                ExactMatrix.from_columns([["0", "-10/4", "3/9"]]),
                ExactMatrix.from_columns([["1", "0", "0"], ["0", "-1/7", "2/21"]]),
            ),
        ),
        SparseAssignment(3, (IndexSet.of(3, [2, 3]), None, None)),
    )


def test_fractional_files_survive_emit_load_emit_byte_for_byte(tmp_path):
    ensemble = Ensemble.of(
        [[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 6)], [1, Fraction(7, 4)]],
        [["4/6"], ["0"], ["-9/12"]],
    )
    scheme, assignment = _fractional_scheme()
    cases = [
        (ensemble, fileio.emit_ensemble, fileio.load_ensemble),
        ((scheme, assignment), lambda s: fileio.emit_scheme(*s), fileio.load_scheme),
    ]
    for value, emit, load in cases:
        for pretty in (False, True):
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            fileio.write_json(emit(value), str(first), pretty=pretty)
            fileio.write_json(emit(load(str(first))), str(second), pretty=pretty)
            assert first.read_bytes() == second.read_bytes()
            assert "/" in first.read_text() and "2/4" not in first.read_text()
    assert fileio.emit_scheme(scheme)["beamformers"][0] == [["1/2", "1", "0"], ["-1/3", "5/6", "7"]]


# Literals the grammar accepts, near misses it refuses, and other JSON values.
literals = st.one_of(
    st.from_regex(r"\s?[+-]?[0-9]{1,4}(/[0-9]{1,3})?\s?", fullmatch=True),
    st.sampled_from(["1_000", "1e5", "1.5", "/0", "3/0", "-0/0", "1/-2", "", " ", "\u0663", "0x1f", "1/2/3"]),
    st.text(max_size=6),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(literals, min_size=1, max_size=4))
def test_loader_reads_each_literal_as_parse_rational_does(col):
    # The loader's one grammar agrees with parse_rational entry by entry:
    # the same values, and the first refused entry's message with its location.
    data = {"n": len(col), "matrices": [[col]]}
    values = []
    for r, v in enumerate(col, start=1):
        where = f"ensemble, block 1, column 1, row {r}"
        if isinstance(v, float):
            expected = f"{where}: float literals are not accepted, got {v!r}"
            break
        try:
            values.append(parse_rational(v))
        except ValueError as exc:
            expected = f"{where}: {exc}"
            break
    else:
        if any(values):
            (block,) = fileio.parse_ensemble_data(data).blocks
            assert block.column(0) == tuple(values)
            assert all(type(v) is Fraction for v in block.rows[0])
            return
        expected = "ensemble: block 1 is not full column rank"
    with pytest.raises(LoadError) as info:
        fileio.parse_ensemble_data(data)
    assert str(info.value) == expected


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
    code, verify_report = run(capsys, "tim", "verify", str(FIXTURES / "T6.json"), str(scheme_path))
    assert code == 0
    assert verify_report["all_decodable"] is True


def test_tim_verify_t9b_design(capsys):
    code, report = run(
        capsys,
        "tim", "verify",
        str(FIXTURES / "T9b.json"),
        str(FIXTURES / "T9b_scheme.json"),
    )
    assert code == 0
    assert report["all_decodable"] is True
    assert report["per_receiver"] == [True] * 9


@pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--trials", "5"), ("--bits", "31")])
def test_tim_verify_takes_no_sampling_flag(capsys, flag, value):
    # The verdict is exact, so tim verify has no sampling setting to take.
    scheme = Path(__file__).parent / "golden" / "T6_scheme.json"
    assert main(["tim", "verify", str(FIXTURES / "T6.json"), str(scheme), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag} {value}" in captured.err


def test_readme_commands_are_the_benchmarked_ones(monkeypatch):
    # The README's command block, its /tmp/ paths moved into the benchmark's
    # working directory, is the list the readme workload and CI run against
    # bench/golden/, and each command parses, so no removed flag lingers there.
    root = FIXTURES.parent
    monkeypatch.syspath_prepend(str(root / "bench"))
    from workloads import README_COMMANDS, README_WORKDIR

    commands = [
        shlex.split(line.split("#")[0].replace("/tmp/", f"{README_WORKDIR}/"))[1:]
        for line in (root / "README.md").read_text().splitlines()
        if line.startswith("rankloss ")
    ]
    assert commands == [list(argv) for argv in README_COMMANDS]
    for argv in commands:
        build_parser().parse_args(argv)


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


def test_exit_code_usage(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["no-such-command"]) == 2
    assert capsys.readouterr().err.startswith(
        "usage: rankloss [-h] {certify,mc-rank,equiv,matroid-check,tim} ...\n"
    )


COMMANDS = [
    ["certify"], ["mc-rank"], ["equiv"], ["matroid-check"],
    ["tim", "dof"], ["tim", "scheme"], ["tim", "verify"], ["tim", "normalize"],
]


@pytest.mark.parametrize("argv", [[], ["tim"], *COMMANDS], ids=lambda argv: " ".join(argv) or "top")
def test_help_matches_the_full_parser(monkeypatch, capsys, argv):
    # main builds only the named command's sub-parser; --help must read the same.
    monkeypatch.setenv("COLUMNS", "80")
    assert_same_as_full_parser(capsys, [*argv, "--help"], 0)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["tim"],
        ["tim", "bogus"],
        ["tim", "scheme", "T6.json", "--kind", "bogus"],
        ["certify"],
        ["certify", "E1.json", "--bogus"],
        ["tim", "dof", "T6.json", "extra"],
    ],
    ids=lambda argv: " ".join(argv) or "none",
)
def test_usage_errors_match_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert_same_as_full_parser(capsys, argv, 2)


def assert_same_as_full_parser(capsys, argv, code):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert exit_info.value.code == code
    assert main(argv) == code
    assert capsys.readouterr() == expected
    assert expected.out or expected.err


def test_module_entry_point_reads_sys_argv(capsys):
    root = FIXTURES.parent
    topology = str(FIXTURES / "T6.json")
    proc = subprocess.run(
        [sys.executable, "-m", "rankloss.cli", "tim", "dof", topology],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    _, expected = run(capsys, "tim", "dof", topology)
    report.pop("timing_seconds")
    expected.pop("timing_seconds")
    assert report == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mc-rank", "E1.json", "--bits", "720"], "--bits 720 with --trials 20"),
        (["mc-rank", "E1.json", "--trials", "500"], "--bits 31 with --trials 500"),
        (["equiv", "E1.json", "--tau", "1", "--bits", "800"], "--bits 800 with --trials 20"),
        (["mc-rank", "E3.json", "--bits", "800"], "--bits 800 with --trials 20"),
        # (4 / 2**14287) ** 1 has a 4301-digit denominator, one past the limit.
        (["mc-rank", "E1.json", "--trials", "1", "--bits", "14287"], "--bits 14287 with --trials 1"),
        # (3 / 2) ** 9100 has a 4342-digit numerator.
        (["mc-rank", "E3.json", "--bits", "1", "--trials", "9100"], "--bits 1 with --trials 9100"),
        (["mc-rank", "E1.json", "--bits", "0"], "--bits must be >= 1, got 0"),
        (["equiv", "E1.json", "--tau", "1", "--bits", "-3"], "--bits must be >= 1, got -3"),
        (["equiv", "E1.json", "--tau", "1", "--trials", "0"], "--trials must be >= 1, got 0"),
    ],
)
def test_sampling_flags_refused_before_sampling(monkeypatch, capsys, argv, message):
    # The report prints the failure bound (n / 2**bits) ** trials exactly;
    # flags it cannot print exit 4 at once instead of a traceback after sampling.
    def no_sampling(self, trial):
        raise AssertionError("sampled before the flags were checked")

    monkeypatch.setattr(TrialConfig, "trial_rng", no_sampling)
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_longest_printable_failure_bound(capsys):
    code, report = run(capsys, "mc-rank", str(FIXTURES / "E1.json"), "--trials", "1", "--bits", "14286")
    assert code == 0
    assert len(report["failure_probability_bound"]) == len("1/") + 4300


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
