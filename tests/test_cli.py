"""File formats, round-trips, and the command-line surface."""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankloss.cli
import rankloss.exactla
from rankloss import fileio
from rankloss.cli import build_parser, main
from rankloss.conditions import Ensemble
from rankloss.errors import LoadError, ShapeError
from rankloss.exactla import ExactMatrix, IndexSet
from rankloss.tim import Scheme
from rankloss.randrank import TrialConfig

from conftest import FIXTURES, column, e1, parse_rational, t6


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
    assert_load_error(capsys, loader, path, location)


def assert_load_error(capsys, loader, path, message):
    """The loader refuses the file with the message, and a command that reads it exits 3 naming it."""
    with pytest.raises(LoadError, match=re.escape(message)):
        getattr(fileio, f"load_{loader}")(str(path))
    argv = {
        "ensemble": ["certify", str(path)],
        "topology": ["tim", "dof", str(path)],
        "scheme": ["tim", "verify", str(FIXTURES / "T6.json"), str(path)],
    }[loader]
    assert main(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "loader, text, message",
    [
        ("ensemble", '{"n": 2, "matrices": ', "is not well-formed JSON"),
        ("ensemble", '{"matrices": [[["1"]]]}', "missing required key 'n'"),
        ("ensemble", '{"n": 1, "matrices": []}', "matrices must be a nonempty list of blocks"),
        ("topology", '{"K": 2, "interference_sets": [[]]}', "interference_sets must list exactly K = 2 sets"),
        ("scheme", '{"n": 1, "beamformers": []}', "beamformers must be a nonempty list"),
        ("ensemble", '{"n": 2, "matrices": [[]]}', "block 1: expected a nonempty list of columns"),
        ("ensemble", '{"n": 2, "matrices": ["1"]}', "block 1: expected a nonempty list of columns"),
        ("ensemble", '{"n": 2, "matrices": [[["1", "0"], ["1"]]]}', "block 1, column 2: expected 2 entries"),
        ("scheme", '{"n": 1, "beamformers": [[["1"], ["2"]]]}', "user 1: 2 columns outside [1, 1]"),
        ("topology", '{"K": 3, "interference_sets": [[2, 2], [], [1]]}', "receiver 1: transmitter 2 repeated"),
    ],
    ids=[
        "malformed-json", "missing-key", "no-matrices", "sets-not-K", "no-beamformers",
        "empty-block", "block-not-a-list", "short-column", "columns-above-slots", "repeated-transmitter",
    ],
)
def test_malformed_files_are_load_errors(tmp_path, capsys, loader, text, message):
    path = tmp_path / f"{loader}.json"
    path.write_text(text)
    assert_load_error(capsys, loader, path, message)


@pytest.mark.parametrize(
    "window, message",
    [
        ([0, 1, 2], "index 0 out of range for universe [1, 9]"),
        ([-1, 1, 2], "index -1 out of range for universe [1, 9]"),
        ([1, 1, 2], "index 1 repeated"),
    ],
    ids=["zero", "negative", "repeated"],
)
def test_window_slots_below_1_or_repeated_are_load_errors(tmp_path, capsys, window, message):
    # T9a's exclusive scheme with receiver 1's window {1, 2, 3} mistyped: a
    # repeat is refused at load, not merged into a window that fails later.
    data = json.loads((Path(__file__).parent / "golden" / "T9a_exclusive_scheme.json").read_text())
    data["sparse_assignment"][0] = window
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    assert_load_error(capsys, "scheme", path, f"{path}, receiver 1: {message}")
    assert main(["tim", "normalize", str(FIXTURES / "T9a.json"), str(path)]) == 3
    assert capsys.readouterr().err == f"error: {path}, receiver 1: {message}\n"


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
    scheme = fileio.load_scheme(str(FIXTURES / "T9b_scheme.json"))
    data = fileio.emit_scheme(scheme)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert fileio.load_scheme(str(path)) == scheme
    assert scheme.windows[0] == IndexSet.of(7, [1, 2])


def test_scheme_refuses_windows_of_the_wrong_length_or_universe():
    blocks = (ExactMatrix.from_columns([["1", "0", "0"]]), ExactMatrix.from_columns([["0", "1", "0"]]))
    assert Scheme(3, blocks, (IndexSet.of(3, [2, 3]), None)).windows[1] is None
    for windows in ((None,), (None, None, None), (None, IndexSet.of(4, [2, 3]))):
        with pytest.raises(ShapeError):
            Scheme(3, blocks, windows)


@pytest.mark.parametrize(
    "windows, entry",
    [(None, None), ((None,) * 3, [None] * 3), ((IndexSet.of(3, [2, 3]), None, None), [[2, 3], None, None])],
    ids=["no windows", "windows, all None", "one window"],
)
def test_windows_emit_load_emit_byte_for_byte(tmp_path, windows, entry):
    # No windows writes no sparse_assignment key, as the half-DoF scheme's
    # file; windows that are all None write a list of nulls, as an exclusive
    # scheme on a chi = 1 topology does.  Loading tells the two apart.
    scheme = Scheme(3, _fractional_scheme().beamformers, windows)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    fileio.write_json(fileio.emit_scheme(scheme), str(first), pretty=True)
    assert json.loads(first.read_text()).get("sparse_assignment", "absent") == ("absent" if entry is None else entry)
    again = fileio.load_scheme(str(first))
    assert again == scheme and again.windows == windows
    fileio.write_json(fileio.emit_scheme(again), str(second), pretty=True)
    assert first.read_bytes() == second.read_bytes()


def test_scheme_load_reports_a_beamformer_fault_before_a_window_fault(tmp_path):
    path = tmp_path / "s.json"
    bad_windows = {
        ": sparse_assignment must list one entry per user": ({"x": 1}, [None]),
        ", receiver 1: index 4 out of range for universe [1, 2]": ([[4], None],),
        ", receiver 1: expected null or a list of slot indices": ([[True], None], [["1"], None]),
    }
    for message, cases in bad_windows.items():
        for windows in cases:
            for second, expected in (("1", message), ("0", ": user 2: beamformer is not full column rank")):
                data = {"n": 2, "beamformers": [[["1", "0"]], [["0", second]]], "sparse_assignment": windows}
                path.write_text(json.dumps(data))
                with pytest.raises(LoadError) as info:
                    fileio.load_scheme(str(path))
                assert str(info.value) == f"{path}{expected}"


def test_scheme_load_parses_each_entry_once(monkeypatch):
    # Every entry is validated once, as an integer pair read straight into
    # its column's grid: an integer scheme builds no Fraction rows.
    parsed = []
    pair = rankloss.exactla._rational_pair

    def counting_pair(literal):
        parsed.append(literal)
        return pair(literal)

    # The loader reads literals through ExactMatrix.from_columns and reads them
    # itself only to name a bad one: count both readers.
    for module in (fileio, rankloss.exactla):
        monkeypatch.setattr(module, "_rational_pair", counting_pair)
    path = FIXTURES / "T9b_scheme.json"
    scheme = fileio.load_scheme(str(path))
    entries = [v for block in json.loads(path.read_text())["beamformers"] for col in block for v in col]
    assert parsed == entries
    assert len(entries) == sum(b.n_rows * b.n_cols for b in scheme.beamformers)
    for b in scheme.beamformers:
        assert set(b._scales) == {1} and "rows" not in vars(b)


def _fractional_scheme() -> Scheme:
    """Three users over 3 slots, with mixed denominators inside a column."""
    return Scheme(
        3,
        (
            ExactMatrix.from_columns([["2/4", "1", "0"], ["-1/3", "5/6", "7"]]),
            ExactMatrix.from_columns([["0", "-10/4", "3/9"]]),
            ExactMatrix.from_columns([["1", "0", "0"], ["0", "-1/7", "2/21"]]),
        ),
        (IndexSet.of(3, [2, 3]), None, None),
    )


def test_fractional_files_survive_emit_load_emit_byte_for_byte(tmp_path):
    ensemble = Ensemble.of(
        [[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 6)], [1, Fraction(7, 4)]],
        [["4/6"], ["0"], ["-9/12"]],
    )
    scheme = _fractional_scheme()
    cases = [
        (ensemble, fileio.emit_ensemble, fileio.load_ensemble),
        (scheme, fileio.emit_scheme, fileio.load_scheme),
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
            assert column(block, 0) == tuple(values)
            assert all(type(v) is Fraction for v in block.rows[0])
            return
        expected = "ensemble: block 1 is not full column rank"
    with pytest.raises(LoadError) as info:
        fileio.parse_ensemble_data(data)
    assert str(info.value) == expected


# JSON values for the pretty writer: strings with quotes, backslashes,
# control and non-ASCII characters, ints past 100 digits, floats, bools and
# None, in lists, tuples and str-keyed dicts, empty ones at every depth.
json_strings = st.text(st.sampled_from('"\\\x00\n\t\x1f\x7f a\u00e9\u2028\U0001f600') | st.characters(), max_size=8)
json_ints = st.integers() | st.integers(10**100, 10**130) | st.integers(-(10**130), -(10**100))
json_scalars = json_strings | json_ints | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    json_scalars | st.lists(json_strings) | st.lists(json_ints).map(tuple) | st.sampled_from([[], (), {}]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(json_values)
def test_pretty_writer_is_json_dumps_indent_2(value):
    assert fileio.write_json(value, None, pretty=True) == json.dumps(value, indent=2)


def test_pretty_writer_matches_json_dumps_on_every_json_file(tmp_path):
    root = FIXTURES.parent
    paths = [*(root / "tests" / "golden").glob("*.json"), *(root / "bench" / "golden").glob("*.json"), *FIXTURES.glob("*.json")]
    assert len(paths) >= 40
    out = tmp_path / "out.json"
    for path in paths:
        data = json.loads(path.read_text())
        text = fileio.write_json(data, str(out), pretty=True)
        assert text == json.dumps(data, indent=2), path.name
        assert out.read_text() == text + "\n", path.name


def test_write_json_overwrites_a_longer_file_in_place(tmp_path):
    # Written over the old bytes, not truncated first: the same inode and
    # permission bits, through a symlink to its target, and cut to the new length.
    target = tmp_path / "report.json"
    target.write_bytes(b"x" * 10_000)
    target.chmod(0o640)
    inode = target.stat().st_ino
    link = tmp_path / "link.json"
    link.symlink_to(target)
    data = {"n": 2, "beamformers": [[["1", "0"]], [["0", "1"]]]}
    for path in (target, link):
        text = fileio.write_json(data, str(path), pretty=True)
        assert target.read_bytes() == (text + "\n").encode()
        assert (target.stat().st_ino, target.stat().st_mode & 0o777) == (inode, 0o640)
    assert link.is_symlink()


# ---------------------------------------------------------------------------
# CLI dispatch
# ---------------------------------------------------------------------------

def test_certify_e1(capsys):
    code, report = run(capsys, "certify", str(FIXTURES / "E1.json"), "--tau", "1")
    assert code == 0
    assert report["max_tau"] == 1
    assert report["c2"]["holds"] is True
    assert report["c2"]["witnesses"][0]["J"] == [1, 2, 3]


def test_certify_asks_c2_once_per_tau(capsys, monkeypatch):
    # The cross-check at max_tau is the report's C2 result when no other tau is asked.
    asked = []
    check = rankloss.cli.check_C2

    def counting_check(ensemble, tau):
        asked.append(tau)
        return check(ensemble, tau)

    monkeypatch.setattr(rankloss.cli, "check_C2", counting_check)
    for extra, expected in (((), [1]), (("--tau", "1"), [1]), (("--tau", "2"), [1, 2])):
        asked.clear()
        code, report = run(capsys, "certify", str(FIXTURES / "E1.json"), *extra)
        assert (code, report["tau"], asked) == (0, expected[-1], expected)


def test_certify_exits_5_when_c2_fails_at_c6s_max_tau(capsys, monkeypatch):
    # C2 must hold at the max_tau C6 gives; one above the truth is an internal fault.
    true_max_tau = rankloss.cli.max_tau
    monkeypatch.setattr(rankloss.cli, "max_tau", lambda ensemble: true_max_tau(ensemble) + 1)
    assert main(["certify", str(Path(__file__).parent / "golden" / "zero_row_n6.json")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant violation: C2 fails at max_tau = 2 from C6\n"


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


@pytest.mark.parametrize(
    "flag,index,universe",
    [("--rows", 0, 4), ("--rows", -1, 4), ("--rows", 5, 4), ("--cols", 0, 2), ("--cols", -1, 2), ("--cols", 3, 2)],
)
def test_matroid_check_index_errors_name_the_flag(capsys, flag, index, universe):
    # E1 has 4 rows, and its block 1 has 2 columns.
    args = {"--rows": "1,2,3", "--cols": "1,2"} | {flag: str(index)}
    argv = ["matroid-check", str(FIXTURES / "E1.json"), "--block", "1"]
    assert main(argv + [v for pair in args.items() for v in pair]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} indices must lie in [1, {universe}], got '{index}'\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--block", "0", "--rows", "1,2,3", "--cols", "1,2"], "block must be in [1, 2], got 0"),
        (
            ["--block", "1", "--rows", "1,x", "--cols", "1,2"],
            "--rows must be a comma-separated list of indices, got '1,x'",
        ),
        (["--block", "1", "--rows", "1,1,2", "--cols", "1,2"], "--rows: index 1 repeated, got '1,1,2'"),
        (["--block", "1", "--rows", "1,2,3", "--cols", "2,1,2"], "--cols: index 2 repeated, got '2,1,2'"),
    ],
    ids=["block", "rows", "rows-repeated", "cols-repeated"],
)
def test_matroid_check_refuses_a_bad_block_or_list(capsys, flags, message):
    assert main(["matroid-check", str(FIXTURES / "E1.json"), *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_tim_dof_t9b_violates_p2(capsys):
    # Without P1 and P2 the symmetric DoF is not known, so the report leaves it null.
    code, report = run(capsys, "tim", "dof", str(FIXTURES / "T9b.json"))
    assert code == 0
    assert report["P1_P2"] is False and report["P1_P2_violations"]
    assert report["ldof_sym"] is None


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


T9A_WINDOWS = [[1, 2, 3], [4, 5, 6], [7, 8, 9]] + [None] * 6


@pytest.mark.parametrize(
    "windows, narrowed, message",
    [
        ([[4, 5, 6], [1, 2, 3], *T9A_WINDOWS[2:]], (), "receiver 1: sparse surplus -3 below tau = 3"),
        (T9A_WINDOWS[:4] + [[1, 2]] + T9A_WINDOWS[5:], (), "receiver 5 has an assigned J but no size-2 alignment set"),
        ([T9A_WINDOWS[0], None, *T9A_WINDOWS[2:]], (), "receiver 2 has a size-2 alignment set but no assigned J"),
        (T9A_WINDOWS, (9,), "alignment windows apply to symmetric schemes (equal m_i)"),
        (T9A_WINDOWS, range(1, 10), "tau = 3m - n = 0 must be positive"),
    ],
    ids=["swapped", "stray", "missing", "unequal-m", "tau-below-1"],
)
def test_verify_and_normalize_refuse_windows_by_one_rule(tmp_path, capsys, windows, narrowed, message):
    # T9a's exclusive scheme with edited windows, or with its last column
    # dropped from the users in `narrowed`: both commands give one refusal.
    data = json.loads((Path(__file__).parent / "golden" / "T9a_exclusive_scheme.json").read_text())
    data["sparse_assignment"] = windows
    for user in narrowed:
        data["beamformers"][user - 1].pop()
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    for command in ("verify", "normalize"):
        assert main(["tim", command, str(FIXTURES / "T9a.json"), str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


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


# Each command once, well formed; the paths need not exist, since the
# corpus tests below replace every handler.
WELL_FORMED = [
    ["certify", "E1.json"],
    ["mc-rank", "E1.json", "--trials", "5", "--bits", "8", "--seed", "7"],
    ["equiv", "E3.json", "--tau", "1", "--pretty"],
    ["matroid-check", "E1.json", "--block", "1", "--rows", "1,2", "--cols", "1"],
    ["tim", "dof", "T6.json", "--out", "report.json"],
    ["tim", "scheme", "T6.json", "--kind", "exclusive", "--scheme-out", "s.json"],
    ["tim", "verify", "T6.json", "s.json"],
    ["tim", "normalize", "T9a.json", "s.json", "--scheme-out", "n.json"],
]

# argparse's corners: help at every level, `--` before, inside and after a
# command, `--opt=value`, abbreviations, negative values, repeats, options
# before positionals, missing values, extra positionals, unknown names.
ARGV_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["-x", "certify", "E1.json"],
    ["tim"], ["tim", "-h"], ["tim", "--help"],
    *([*command, "-h"] for command in COMMANDS),
    ["certify", "E1.json", "--he"], ["tim", "dof", "T6.json", "-h", "--bogus"],
    ["--", "certify", "E1.json"], ["certify", "--", "E1.json"], ["certify", "E1.json", "--"],
    ["tim", "--", "dof", "T6.json"], ["tim", "dof", "--", "T6.json"],
    ["tim", "dof", "T6.json", "--", "--pretty"], ["certify", "E1.json", "--tau", "--", "1"],
    ["certify", "E1.json", "--tau=2"], ["tim", "scheme", "T6.json", "--kind=half"], ["certify", "E1.json", "--out="],
    ["certify", "E1.json", "--pre"], ["certify", "E1.json", "--ta", "1"],
    ["tim", "scheme", "T6.json", "--sch", "s.json"], ["tim", "scheme", "T6.json", "--kind", "exc"],
    ["mc-rank", "E1.json", "--t", "3"], ["equiv", "E1.json", "--t", "1"],
    ["certify", "E1.json", "--tau", "-1"], ["equiv", "E1.json", "--tau", "-1", "--seed", "-5"],
    ["certify", "E1.json", "--tau", "1", "--tau", "2"], ["tim", "dof", "T6.json", "--pretty", "--pretty"],
    ["certify", "--tau", "1", "E1.json"], ["tim", "verify", "--pretty", "T6.json", "s.json"],
    ["certify", "E1.json", "--tau"], ["matroid-check", "E1.json", "--block"],
    ["tim", "scheme", "T6.json", "--scheme-out"], ["certify", "E1.json", "--tau", "one"],
    ["tim", "dof", "T6.json", "extra"], ["certify", "E1.json", "E3.json"], ["tim", "verify", "T6.json"],
    ["certify"], ["equiv", "E1.json"], ["matroid-check", "E1.json", "--block", "1", "--rows", "1"],
    ["certify", "E1.json", "--bogus"], ["tim", "normalize", "T9a.json", "s.json", "--bogus", "x"],
    ["Certify", "E1.json"], ["TIM", "dof", "T6.json"], ["tim", "DOF", "T6.json"],
    ["tim", "bogus"], ["bogus"], ["mc"], ["tim", "do", "T6.json"],
    *WELL_FORMED,
]


@pytest.fixture
def handed(monkeypatch, tmp_path):
    """The Namespaces main hands the commands, each handler replaced by a recorder."""
    seen = []

    def record(args):
        seen.append(args)
        return {}

    for table in (rankloss.cli._COMMANDS, rankloss.cli._TIM_COMMANDS):
        for name, (help_text, add_arguments, run) in table.items():
            if not isinstance(run, dict):
                monkeypatch.setitem(table, name, (help_text, add_arguments, record))
    monkeypatch.chdir(tmp_path)  # where --out writes
    return seen


@pytest.mark.parametrize("columns", ["17", "80", "200"])
@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "none")
def test_main_parses_argv_as_the_full_parser(monkeypatch, capsys, handed, columns, argv):
    # Help and errors: the same exit code, stdout and stderr.  Accepted argv:
    # the same Namespace, but for the full parser's command names.
    monkeypatch.setenv("COLUMNS", columns)
    try:
        expected = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        printed = capsys.readouterr()
        assert main(argv) == exc.code
        assert capsys.readouterr() == printed
        return
    assert main(argv) == 0
    capsys.readouterr()
    del expected["command"]
    expected.pop("tim_command", None)
    assert [vars(args) for args in handed] == [expected]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_main_builds_one_parser_per_command(monkeypatch, capsys, handed, argv):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    capsys.readouterr()
    # A well-formed call is read from the command table: no parser at all.
    assert progs == []


# argv near the well-formed ones: a well-formed call, then up to two
# changes, each a wrong-case, partial or prefixed command name, a value the
# argument may not take (negative, non-numeric, out of its choices, "",
# `-`, `--`, an option), an option abbreviated or as `--opt=value`, an
# argument left out or repeated, or a stray word (help, `--`, unknown).
VALUE_WORDS = [
    "1", "2", "0", "+3", " 4", "07", "1_0", "one", "1.5", "-1", "-5", "", "-", "--", "-h", "--pretty",
    "auto", "half", "exclusive", "exc", "1,2", "E1.json", "T6.json", "s.json",
]
STRAY_WORDS = ["-h", "--help", "--", "-", "", "--bogus", "extra", "-1", "-x", "--t", "--s", "--p"]


def command_arguments(names):
    table, arguments = rankloss.cli._COMMANDS, ()
    for name in names:
        _, arguments, table = table[name]
    return arguments


@st.composite
def near_well_formed_argv(draw):
    names = draw(st.sampled_from(COMMANDS))

    def value(keywords):
        if "choices" in keywords:
            return draw(st.sampled_from(keywords["choices"]))
        return draw(st.sampled_from(["1", "0", "+3", " 4", "07", "1_0"] if "type" in keywords else ["E1.json", "1,2", ""]))

    def words(name, keywords):
        if not name.startswith("-"):
            return [value(keywords)]
        return [name] if keywords.get("action") == "store_true" else [name, value(keywords)]

    groups = [
        (keywords, words(name, keywords))
        for name, keywords in command_arguments(names)
        if not name.startswith("-") or keywords.get("required") or draw(st.booleans())
    ]
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(["name", "stray", "value", "abbreviate", "equals", "drop", "repeat"]))
        if change == "name" and names:
            names = draw(
                st.sampled_from(
                    [
                        [names[0].upper(), *names[1:]],
                        [*names[:-1], names[-1].title()],
                        [*names[:-1], names[-1][:-1]],
                        names[:-1],
                        ["-h", *names],
                        ["--", *names],
                    ]
                )
            )
        elif change == "stray":
            groups.append(({}, [draw(st.sampled_from(STRAY_WORDS))]))
        elif groups:
            i = draw(st.integers(0, len(groups) - 1))
            keywords, (first, *rest) = groups[i]
            if change == "value":
                bad = draw(st.sampled_from(VALUE_WORDS))
                groups[i] = keywords, ([first, bad] if rest else [bad])
            elif change == "drop":
                del groups[i]
            elif change == "repeat":
                groups.append((keywords, [first, *(value(keywords) for _ in rest)]))
            elif change == "abbreviate" and first.startswith("--") and len(first) > 3:
                groups[i] = keywords, [first[: draw(st.integers(3, len(first) - 1))], *rest]
            elif change == "equals" and rest:
                groups[i] = keywords, [f"{first}={rest[0]}"]
    return [*names, *(word for _, group in draw(st.permutations(groups)) for word in group)]


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(near_well_formed_argv())
def test_reader_gives_the_full_parsers_namespace_or_none(argv):
    args = rankloss.cli._read_argv(argv)
    if args is None:
        return
    # Read here, so the full parser accepts argv too, to the same values.
    try:
        expected = vars(build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"read {argv}, which the full parser refuses")
    del expected["command"]
    expected.pop("tim_command", None)
    assert vars(args) == expected


def test_module_entry_point_imports_argparse_only_for_help():
    # A well-formed call neither builds nor imports a parser; help still prints.
    root = FIXTURES.parent
    imported = {}
    for last in (str(FIXTURES / "T6.json"), "-h"):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rankloss.cli", "tim", "dof", last],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        imported[last] = {
            line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")
        }
        if last == "-h":
            assert proc.stdout.startswith("usage: rankloss tim dof [-h]")
    assert "rankloss.fileio" in imported[str(FIXTURES / "T6.json")]
    assert "argparse" not in imported[str(FIXTURES / "T6.json")]
    assert "argparse" in imported["-h"]


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
        # 2**(20000 - 3) alone has 6020 digits: refused before 2**bits is built.
        (["mc-rank", "E1.json", "--bits", "20000"], "--bits 20000 with --trials 20"),
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


def test_bits_too_long_to_print_refused_before_the_config_is_built(monkeypatch, capsys):
    # --bits 20000 would build 2**20000 for the entry bound; the CLI refuses it first.
    def no_config(*args, **kwargs):
        raise AssertionError("built a TrialConfig for --bits 20000")

    monkeypatch.setattr(rankloss.cli, "TrialConfig", no_config)
    assert main(["mc-rank", str(FIXTURES / "E1.json"), "--bits", "20000"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: --bits 20000 with --trials 20") and err.count("\n") == 1


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


def test_out_to_the_null_device(capsys):
    # Not a regular file, so it is written but never truncated.
    code, report = run(capsys, "certify", str(FIXTURES / "E1.json"), "--out", os.devnull)
    assert code == 0 and report["max_tau"] == 1
