"""JSON file formats for ensembles, topologies, and schemes.

Rationals are serialized as strings ("3", "-7/2") so no float ever enters
the pipeline; indices are 1-based externally.  Loaders raise LoadError
with enough location detail to find the offending entry.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .conditions import Ensemble
from .errors import LoadError, PreconditionError, ShapeError
from .exactla import ExactMatrix, IndexSet, format_rational, parse_rational
from .tim import Scheme, SparseAssignment, Topology


def _read_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path} is not well-formed JSON: {exc}") from None


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise LoadError(f"{where}: missing required key {key!r}")
    return data[key]


def _is_int(value) -> bool:
    # JSON true/false load as Python bools, which are ints too.
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_literal(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise LoadError(f"{where}: float literals are not accepted, got {value!r}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise LoadError(f"{where}: {exc}") from None


def _parse_block(block_data, n: int, where: str) -> ExactMatrix:
    if not isinstance(block_data, list) or not block_data:
        raise LoadError(f"{where}: expected a nonempty list of columns")
    cols = []
    for c, col in enumerate(block_data, start=1):
        if not isinstance(col, list) or len(col) != n:
            raise LoadError(f"{where}, column {c}: expected {n} entries")
        cols.append([_parse_literal(v, f"{where}, column {c}, row {r}") for r, v in enumerate(col, start=1)])
    return ExactMatrix.from_columns(cols, n_rows=n)


def parse_ensemble_data(data, where: str = "ensemble") -> Ensemble:
    n = _require(data, "n", where)
    if not _is_int(n) or n < 1:
        raise LoadError(f"{where}: n must be a positive integer")
    matrices = _require(data, "matrices", where)
    if not isinstance(matrices, list) or not matrices:
        raise LoadError(f"{where}: matrices must be a nonempty list of blocks")
    blocks = [
        _parse_block(block, n, f"{where}, block {i}") for i, block in enumerate(matrices, start=1)
    ]
    try:
        return Ensemble(tuple(blocks))
    except (PreconditionError, ShapeError) as exc:
        raise LoadError(f"{where}: {exc}") from None


def load_ensemble(path: str) -> Ensemble:
    return parse_ensemble_data(_read_json(path), where=path)


def emit_ensemble(ensemble: Ensemble) -> dict:
    return {
        "n": ensemble.n,
        "matrices": [
            [[format_rational(v) for v in block.column(j)] for j in range(block.n_cols)]
            for block in ensemble.blocks
        ],
    }


def parse_topology_data(data, where: str = "topology") -> Topology:
    k = _require(data, "K", where)
    sets = _require(data, "interference_sets", where)
    if not _is_int(k) or k < 1:
        raise LoadError(f"{where}: K must be a positive integer")
    if not isinstance(sets, list) or len(sets) != k:
        raise LoadError(f"{where}: interference_sets must list exactly K = {k} sets")
    parsed = []
    for j, s in enumerate(sets, start=1):
        if not isinstance(s, list) or not all(_is_int(v) for v in s):
            raise LoadError(f"{where}, receiver {j}: interference set must be a list of integers")
        parsed.append(frozenset(s))
    try:
        return Topology(tuple(parsed))
    except PreconditionError as exc:
        raise LoadError(f"{where}: {exc}") from None


def load_topology(path: str) -> Topology:
    return parse_topology_data(_read_json(path), where=path)


def emit_topology(topology: Topology) -> dict:
    return {
        "K": topology.K,
        "interference_sets": [sorted(topology.interferers(j)) for j in range(1, topology.K + 1)],
    }


def parse_scheme_data(data, where: str = "scheme") -> tuple[Scheme, SparseAssignment | None]:
    n = _require(data, "n", where)
    if not _is_int(n) or n < 1:
        raise LoadError(f"{where}: n must be a positive integer")
    users = _require(data, "beamformers", where)
    if not isinstance(users, list) or not users:
        raise LoadError(f"{where}: beamformers must be a nonempty list")
    blocks = [_parse_block(b, n, f"{where}, user {i}") for i, b in enumerate(users, start=1)]
    try:
        scheme = Scheme(n, tuple(blocks))
    except (PreconditionError, ShapeError) as exc:
        raise LoadError(f"{where}: {exc}") from None
    assignment = None
    if data.get("sparse_assignment") is not None:
        raw = data["sparse_assignment"]
        if not isinstance(raw, list) or len(raw) != len(blocks):
            raise LoadError(f"{where}: sparse_assignment must list one entry per user")
        sets = []
        for j, entry in enumerate(raw, start=1):
            if entry is None:
                sets.append(None)
            elif isinstance(entry, list) and all(_is_int(v) for v in entry):
                try:
                    sets.append(IndexSet.of(n, entry))
                except ShapeError as exc:
                    raise LoadError(f"{where}, receiver {j}: {exc}") from None
            else:
                raise LoadError(f"{where}, receiver {j}: expected null or a list of slot indices")
        assignment = SparseAssignment(n, tuple(sets))
    return scheme, assignment


def load_scheme(path: str) -> tuple[Scheme, SparseAssignment | None]:
    return parse_scheme_data(_read_json(path), where=path)


def emit_scheme(scheme: Scheme, assignment: SparseAssignment | None = None) -> dict:
    out = {
        "n": scheme.n,
        "beamformers": [
            [[format_rational(v) for v in b.column(j)] for j in range(b.n_cols)]
            for b in scheme.beamformers
        ],
    }
    if assignment is not None:
        out["sparse_assignment"] = [
            list(s) if s is not None else None for s in assignment.sets
        ]
    return out


def write_json(data: dict, path: str | None, pretty: bool = False) -> str:
    text = json.dumps(data, indent=2 if pretty else None, sort_keys=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
