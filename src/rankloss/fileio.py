"""JSON file formats for ensembles, topologies, and schemes.

Rationals are serialized as strings ("3", "-7/2") so no float ever enters
the pipeline; indices are 1-based externally.  Loaders raise LoadError
with enough location detail to find the offending entry.  A block's
literals are read as integer pairs straight into its cleared grid, and an
emitter prints the grid back, so no entry becomes a Fraction on the way.
A scheme file's optional `sparse_assignment` is the `Scheme`'s windows:
absent for a scheme with none, else one slot list or null per receiver.
"""

from __future__ import annotations

import json
import os
import stat
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import Any

from .conditions import Ensemble
from .errors import LoadError, PreconditionError, ShapeError
from .exactla import ExactMatrix, IndexSet, _literal, _rational_pair
from .tim import Scheme, Topology


def _read_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path} is not well-formed JSON: {exc}") from None
    except RecursionError:
        raise LoadError(f"{path} nests JSON arrays or objects too deeply") from None
    except ValueError as exc:
        # CPython's limit on integer digits, hit by a JSON number too long to convert.
        raise LoadError(f"{path} holds a number too long to read: {exc}") from None


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise LoadError(f"{where}: missing required key {key!r}")
    return data[key]


def _is_int(value) -> bool:
    # JSON true/false load as Python bools, which are ints too.
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_block(block_data, n: int, where: str) -> ExactMatrix:
    """A block from its list of columns, read by one `ExactMatrix.from_columns` call.

    When a column is malformed or a literal bad, the columns are read again
    in order and the first fault met is the LoadError.
    """
    if not isinstance(block_data, list) or not block_data:
        raise LoadError(f"{where}: expected a nonempty list of columns")
    if all(isinstance(col, list) and len(col) == n for col in block_data):
        try:
            return ExactMatrix.from_columns(block_data, n)
        except PreconditionError:
            pass
    for c, col in enumerate(block_data, start=1):
        if not isinstance(col, list) or len(col) != n:
            raise LoadError(f"{where}, column {c}: expected {n} entries")
        for r, v in enumerate(col, start=1):
            at = f"{where}, column {c}, row {r}"
            if isinstance(v, float):
                raise LoadError(f"{at}: float literals are not accepted, got {v!r}")
            try:
                _rational_pair(v)
            except ValueError as exc:
                raise LoadError(f"{at}: {exc}") from None
    # Every literal reads: re-raise whatever else from_columns refused.
    return ExactMatrix.from_columns(block_data, n)


def _emit_block(block: ExactMatrix) -> list[list[str]]:
    """Each column's literals; an integer column prints its ints as they are."""
    return [
        [str(v) for v in col] if s == 1 else [_literal(v, s) for v in col]
        for col, s in zip(zip(*block._grid), block._scales)
    ]


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
        "matrices": [_emit_block(block) for block in ensemble.blocks],
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
        repeated = [v for v, count in Counter(s).items() if count > 1]
        if repeated:
            raise LoadError(f"{where}, receiver {j}: transmitter {repeated[0]} repeated")
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


def _parse_windows(raw, n: int, k: int, where: str) -> tuple[IndexSet | None, ...] | None:
    """The scheme's windows from its `sparse_assignment`: null or absent for none."""
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != k:
        raise LoadError(f"{where}: sparse_assignment must list one entry per user")
    windows = []
    for j, entry in enumerate(raw, start=1):
        if entry is None:
            windows.append(None)
        elif isinstance(entry, list) and all(_is_int(v) for v in entry):
            try:
                windows.append(IndexSet.of(n, entry))
            except ShapeError as exc:
                raise LoadError(f"{where}, receiver {j}: {exc}") from None
        else:
            raise LoadError(f"{where}, receiver {j}: expected null or a list of slot indices")
    return tuple(windows)


def parse_scheme_data(data, where: str = "scheme") -> Scheme:
    """A scheme and its windows; a beamformer's fault is reported before a window's."""
    n = _require(data, "n", where)
    if not _is_int(n) or n < 1:
        raise LoadError(f"{where}: n must be a positive integer")
    users = _require(data, "beamformers", where)
    if not isinstance(users, list) or not users:
        raise LoadError(f"{where}: beamformers must be a nonempty list")
    blocks = [_parse_block(b, n, f"{where}, user {i}") for i, b in enumerate(users, start=1)]
    try:
        windows, fault = _parse_windows(data.get("sparse_assignment"), n, len(blocks), where), None
    except LoadError as exc:
        windows, fault = None, exc
    try:
        scheme = Scheme(n, tuple(blocks), windows)
    except (PreconditionError, ShapeError) as exc:
        raise LoadError(f"{where}: {exc}") from None
    if fault is not None:
        raise fault
    return scheme


def load_scheme(path: str) -> Scheme:
    return parse_scheme_data(_read_json(path), where=path)


def emit_scheme(scheme: Scheme) -> dict:
    out = {
        "n": scheme.n,
        "beamformers": [_emit_block(b) for b in scheme.beamformers],
    }
    if scheme.windows is not None:
        out["sparse_assignment"] = [list(s) if s is not None else None for s in scheme.windows]
    return out


_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


def _pretty(value, indent: str) -> str:
    """`value` as `json.dumps(value, indent=2)` writes it at this indent.

    A nonempty list or tuple of only str or only int is encoded by one C
    function per item and joined once; any other scalar by `json.dumps`.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        types = set(map(type, value))
        leaf = _LEAVES.get(types.pop()) if len(types) == 1 else None
        body = (",\n" + inner).join(map(leaf, value) if leaf else [_pretty(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([f"{encode_basestring_ascii(k)}: {_pretty(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    return json.dumps(value)


def write_json(data: dict, path: str | None, pretty: bool = False) -> str:
    """`data` as JSON text, also written with a final newline over `path` if given.

    The compact form is `json.dumps(data)`; the pretty form is exactly the
    bytes of `json.dumps(data, indent=2)`, written by `_pretty` through the
    C string and int encoders instead of the pure-Python indenting encoder.
    Dict keys must be str.
    """
    text = _pretty(data, "") if pretty else json.dumps(data)
    if path:
        try:
            _overwrite(path, text + "\n")
        except OSError as exc:
            raise LoadError(f"cannot write {path}: {exc}") from None
    return text


def _overwrite(path: str, text: str) -> None:
    """Write `text` at the start of `path` (made if missing), then cut a regular file to it.

    Unlike `open(path, "w")`, nothing is truncated before the write; the
    inode, its mode and the following of symlinks are the same.  On ext4
    (auto_da_alloc), closing a nonempty file truncated to zero starts its
    writeback, and rewriting it before that ends waits for it.  Only a
    regular file is cut: ftruncate fails on /dev/null, a FIFO or a tty.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
