"""Mutated fixtures through the README commands: every run ends in a verdict or a one-line refusal.

Each mutant is one fixture with one random edit at a random place in its
JSON tree, drawn from a fixed seed: a value replaced by an off-type or
out-of-range one, a list element deleted or duplicated, a key dropped, or
two literals swapped.  The CLI's contract is exit 0 (verdict), 3 (load or
write failure) or 4 (violated precondition), with at most one line on
stderr; exit 5 or a traceback is a bug.  Every input has n <= 6, so each
run is quick.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from collections import Counter

from rankloss.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES.parent / "tests" / "golden"

REPLACEMENTS = (True, False, None, 0.5, -1.0, 1e300, 10**30, "1/0", "1e5", "٣", [], [[]], {})


def ensemble_commands(path: str, out: str) -> list[list[str]]:
    return [
        ["certify", path, "--tau", "1"],
        ["mc-rank", path, "--trials", "20", "--seed", "7"],
        ["equiv", path, "--tau", "1", "--trials", "20", "--seed", "7"],
        ["matroid-check", path, "--block", "1", "--rows", "1,2,3", "--cols", "1,2"],
    ]


def topology_commands(path: str, out: str) -> list[list[str]]:
    return [
        ["tim", "dof", path],
        ["tim", "scheme", path, "--scheme-out", out],
        ["tim", "scheme", path, "--kind", "exclusive", "--scheme-out", out],
    ]


def scheme_commands(path: str, out: str) -> list[list[str]]:
    topology = str(FIXTURES / "T9b.json")
    return [["tim", "verify", topology, path], ["tim", "normalize", topology, path]]


INPUTS = (
    (FIXTURES / "E1.json", ensemble_commands),
    (FIXTURES / "E3.json", ensemble_commands),
    (GOLDEN / "zero_row_n6.json", ensemble_commands),
    (FIXTURES / "T6.json", topology_commands),
    (FIXTURES / "T9a.json", topology_commands),
    (FIXTURES / "T9b.json", topology_commands),
    (FIXTURES / "T9b_scheme.json", scheme_commands),
)


def places(tree, path=()):
    """Every (path, value) in a JSON tree, the root first."""
    yield path, tree
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from places(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from places(value, path + (i,))


def parent_of(tree, path):
    for step in path[:-1]:
        tree = tree[step]
    return tree


def mutate(tree, rng: random.Random):
    """A copy of tree with one random edit, and a description of it."""
    tree = copy.deepcopy(tree)
    spots = list(places(tree))
    lists = [(p, v) for p, v in spots if isinstance(v, list) and v]
    dicts = [(p, v) for p, v in spots if isinstance(v, dict) and v]
    literals = [p for p, v in spots if p and not isinstance(v, (list, dict))]
    kinds = ["replace", "delete", "duplicate", "drop key", "swap"]
    kinds = [k for k in kinds if (lists or k not in ("delete", "duplicate")) and (dicts or k != "drop key")]
    kind = rng.choice(kinds)
    if kind == "replace":
        path, _ = rng.choice(spots)
        value = copy.deepcopy(rng.choice(REPLACEMENTS))
        if not path:
            return value, (kind, path, value)
        parent_of(tree, path)[path[-1]] = value
        return tree, (kind, path, value)
    if kind in ("delete", "duplicate"):
        path, items = rng.choice(lists)
        i = rng.randrange(len(items))
        if kind == "delete":
            del items[i]
        else:
            items.insert(i, copy.deepcopy(items[i]))
        return tree, (kind, path, i)
    if kind == "drop key":
        path, mapping = rng.choice(dicts)
        key = rng.choice(sorted(mapping))
        del mapping[key]
        return tree, (kind, path, key)
    first, second = rng.choice(literals), rng.choice(literals)
    a, b = parent_of(tree, first), parent_of(tree, second)
    a[first[-1]], b[second[-1]] = b[second[-1]], a[first[-1]]
    return tree, (kind, first, second)


def test_mutated_fixtures_exit_with_a_verdict_or_one_line_refusal(tmp_path):
    rng = random.Random(20261022)
    originals = [(json.loads(path.read_text()), commands) for path, commands in INPUTS]
    out = str(tmp_path / "scheme_out.json")
    codes: Counter = Counter()
    failures = []
    for index in range(400):
        original, commands = originals[index % len(originals)]
        mutant, edit = mutate(original, rng)
        path = tmp_path / f"mutant{index}.json"
        path.write_text(json.dumps(mutant))
        for argv in commands(str(path), out):
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
            except Exception as exc:  # a traceback breaks the contract as much as exit 5
                failures.append((edit, argv, repr(exc)))
                continue
            codes[code] += 1
            if code not in (0, 3, 4) or len(stderr.getvalue().splitlines()) > 1:
                failures.append((edit, argv, code, stderr.getvalue()))
    assert failures == []
    assert {0, 3, 4} <= codes.keys(), codes
