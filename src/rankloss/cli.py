"""Command-line surface tying the certifier, oracle, and analyzer together.

Subcommands:
  certify        maximum almost-sure rank loss and witnesses for an ensemble
  mc-rank        sampled generic rank of the scaled concatenation
  equiv          cross-validate all five rank-loss conditions at one tau
  matroid-check  rank tables and axiom verification for one block's matroid
  tim dof        conflict-graph analysis and the symmetric DoF formula
  tim scheme     beamformer synthesis (writes a scheme file)
  tim verify     exact almost-sure decodability of a scheme against a topology
  tim normalize  tighten an aligned design's sparse windows

Exit codes: 0 verdict computed, 2 usage, 3 load or write failure, 4
violated precondition, 5 internal invariant violation.

Only the sampling commands, `mc-rank` and `equiv` (for C1), take
`--trials/--bits/--seed`; every other verdict is exact and takes none.

Each command's arguments are data in the command table.  A well-formed
call is read straight from it; argparse is imported and the full parser
built only for help, usage errors and argv the reader leaves, so the
usage, help and error text are argparse's own.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import fileio
from .conditions import check_C2, cross_validate, max_tau
from .errors import EquivalenceViolation, InternalInvariantError, LoadError, PreconditionError, ShapeError
from .exactla import IndexSet, format_rational
from .matroid import dual, scaled_linear_matroid, verify_axioms
from .randrank import TrialConfig, _prints, check_printable_bound, failure_bound, sample_ranks
from .tim import (
    check_P1_P2,
    chromatic_number,
    half_dof_feasible,
    is_bipartite,
    ldof_sym,
    normalize_alignment,
    reduced_conflict_graph,
    regular_conflict_graph,
    synth_exclusive_scheme,
    synth_half_dof_scheme,
    verify_decodability,
    _require_same_users,
    _window_fault,
)

if TYPE_CHECKING:
    import argparse

USAGE_ERROR, LOAD_ERROR, PRECONDITION_ERROR, INTERNAL_ERROR = 2, 3, 4, 5


def _config(args, n: int) -> TrialConfig:
    """The sampling flags as a TrialConfig, checked before any sampling.

    Reports print the failure bound (n / 2**bits) ** trials as an exact
    fraction, so flags whose bound str() cannot convert are refused here
    (`check_printable_bound`), with a message that names them, instead of
    failing after the sampling.
    """
    if args.bits < 1:
        raise PreconditionError(f"--bits must be >= 1, got {args.bits}")
    if args.trials < 1:
        raise PreconditionError(f"--trials must be >= 1, got {args.trials}")
    refusal = (
        f"--bits {args.bits} with --trials {args.trials} gives a failure bound "
        f"(n/2^bits)^trials too long to print; lower --bits or --trials"
    )
    # The bound's denominator is a power of two above 2**(bits - n.bit_length()):
    # one too long to print is refused before 2**bits is built.
    if not _prints(2, max(args.bits - n.bit_length(), 0)):
        raise PreconditionError(refusal)
    cfg = TrialConfig(trials=args.trials, entry_bound=2**args.bits, seed=args.seed)
    try:
        check_printable_bound(n, cfg)
    except PreconditionError:
        raise PreconditionError(refusal) from None
    return cfg


def _indexset(text: str, universe: int, what: str) -> IndexSet:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise PreconditionError(f"{what} must be a comma-separated list of indices, got {text!r}") from None
    if not all(1 <= v <= universe for v in values):
        raise ShapeError(f"{what} indices must lie in [1, {universe}], got {text!r}")
    try:
        return IndexSet.of(universe, values)
    except ShapeError as exc:  # every index is in range, so one is repeated
        raise ShapeError(f"{what}: {exc}, got {text!r}") from None


def _with_scheme(report: dict, payload: dict, path: str | None) -> dict:
    """report with the scheme last: written pretty to path and named as scheme_file, else inline as scheme."""
    if path:
        fileio.write_json(payload, path, pretty=True)
        report["scheme_file"] = path
    else:
        report["scheme"] = payload
    return report


def _cmd_certify(args) -> dict:
    ensemble = fileio.load_ensemble(args.ensemble)
    tau_star = max_tau(ensemble)
    report = {
        "command": "certify",
        "input": args.ensemble,
        "n": ensemble.n,
        "K": ensemble.K,
        "R": ensemble.R,
        "max_tau": tau_star,
    }
    # C6 gave max_tau; C2 must hold there, which cross-checks the two routes.
    at_max = check_C2(ensemble, tau_star) if tau_star >= 1 else None
    if at_max is not None and not at_max.holds:
        raise InternalInvariantError(f"C2 fails at max_tau = {tau_star} from C6")
    probe = args.tau if args.tau is not None else (tau_star if tau_star >= 1 else None)
    if probe is not None:
        result = at_max if probe == tau_star and at_max is not None else check_C2(ensemble, probe)
        report["tau"] = probe
        report["c2"] = result.to_dict()
    return report


def _cmd_mc_rank(args) -> dict:
    ensemble = fileio.load_ensemble(args.ensemble)
    cfg = _config(args, ensemble.n)
    ranks = sample_ranks(ensemble, cfg)
    return {
        "command": "mc-rank",
        "input": args.ensemble,
        "R": ensemble.R,
        "sampled_ranks": list(ranks),
        "generic_rank": max(ranks),
        "rank_loss": ensemble.R - max(ranks),
        "failure_probability_bound": str(failure_bound(ensemble.n, cfg)),
    }


def _cmd_equiv(args) -> dict:
    ensemble = fileio.load_ensemble(args.ensemble)
    report = cross_validate(ensemble, args.tau, _config(args, ensemble.n))
    out = {"command": "equiv", "input": args.ensemble}
    out.update(report.to_dict())
    return out


def _cmd_matroid_check(args) -> dict:
    ensemble = fileio.load_ensemble(args.ensemble)
    if not 1 <= args.block <= ensemble.K:
        raise PreconditionError(f"block must be in [1, {ensemble.K}], got {args.block}")
    block = ensemble.blocks[args.block - 1]
    x = _indexset(args.rows, ensemble.n, "--rows")
    y = _indexset(args.cols, block.n_cols, "--cols")
    matroid = scaled_linear_matroid(block, x, y)
    report = {
        "command": "matroid-check",
        "input": args.ensemble,
        "block": args.block,
        "X": list(x),
        "Y": list(y),
    }
    axioms = verify_axioms(matroid)
    report["axioms_ok"] = axioms.ok
    report["violations"] = list(axioms.violations)
    if len(x) <= 6:
        report["rank_table"] = {
            ",".join(map(str, subset)) or "-": r for subset, r in matroid.rank_table().items()
        }
        report["dual_rank_table"] = {
            ",".join(map(str, subset)) or "-": r for subset, r in dual(matroid).rank_table().items()
        }
    return report


def _cmd_tim_dof(args) -> dict:
    topology = fileio.load_topology(args.topology)
    regular = regular_conflict_graph(topology)
    reduced = reduced_conflict_graph(topology)
    bipartite, parts = is_bipartite(reduced)
    p1p2, violations = check_P1_P2(topology)
    report = {
        "command": "tim dof",
        "input": args.topology,
        "K": topology.K,
        "regular_edges": sorted(list(e) for e in regular.edges),
        "reduced_edges": sorted(list(e) for e in reduced.edges),
        "reduced_bipartite": bipartite,
        "partition": [list(parts[0]), list(parts[1])] if parts else None,
        "half_dof_feasible": bipartite,
        "chi_regular": chromatic_number(regular),
        "chi_reduced": chromatic_number(reduced),
        "P1_P2": p1p2,
        "P1_P2_violations": [list(v) for v in violations],
    }
    if topology.has_interference() and p1p2:
        report["ldof_sym"] = format_rational(ldof_sym(topology))
    else:
        report["ldof_sym"] = None
    return report


def _cmd_tim_scheme(args) -> dict:
    topology = fileio.load_topology(args.topology)
    kind = args.kind
    if kind == "auto":
        kind = "half" if half_dof_feasible(topology) else "exclusive"
    scheme = synth_half_dof_scheme(topology) if kind == "half" else synth_exclusive_scheme(topology)
    report = {
        "command": "tim scheme",
        "input": args.topology,
        "kind": kind,
        "n": scheme.n,
        "symbols_per_user": list(scheme.symbol_counts),
        "activation_pattern": [list(p) for p in scheme.activation_pattern()],
        "dof_per_user": [format_rational(Fraction(m, scheme.n)) for m in scheme.symbol_counts],
    }
    return _with_scheme(report, fileio.emit_scheme(scheme), args.scheme_out)


def _cmd_tim_verify(args) -> dict:
    topology = fileio.load_topology(args.topology)
    scheme = fileio.load_scheme(args.scheme)
    # The window rule indexes beamformers by the topology's users, and a
    # refused scheme is refused before any receiver is eliminated.
    _require_same_users(topology, scheme)
    fault = _window_fault(topology, scheme)
    if fault is not None:
        raise PreconditionError(fault)
    result = verify_decodability(topology, scheme)
    return {
        "command": "tim verify",
        "topology": args.topology,
        "scheme": args.scheme,
        "per_receiver": list(result.per_receiver),
        "all_decodable": result.ok,
        # Kept, though the verdict is exact, because bench/golden/readme-07.json and -08.json pin it.
        "failure_probability_bound": str(failure_bound(scheme.n, TrialConfig())),
    }


def _cmd_tim_normalize(args) -> dict:
    topology = fileio.load_topology(args.topology)
    scheme = fileio.load_scheme(args.scheme)
    written = fileio.emit_scheme(normalize_alignment(topology, scheme))
    report = {
        "command": "tim normalize",
        "topology": args.topology,
        "scheme": args.scheme,
        "windows": written["sparse_assignment"],
    }
    return _with_scheme(report, written, args.scheme_out)


# Each command's arguments as (name, add_argument keywords), in the order
# help lists them; `build_parser` adds them and `_read_argv` reads by them.
_SAMPLING_FLAGS = (
    ("--trials", {"type": int, "default": 20, "help": "sample points per check"}),
    ("--bits", {"type": int, "default": 31, "help": "log2 of the scaling magnitude bound"}),
    ("--seed", {"type": int, "default": 0, "help": "seed for reproducible draws"}),
)
_OUTPUT_FLAGS = (
    ("--out", {"metavar": "PATH", "help": "write the report JSON here as well"}),
    ("--pretty", {"action": "store_true", "help": "indent the report"}),
)

# Every command as name -> (help, arguments, handler), in the order help
# lists them.  A group such as `tim` has no arguments of its own, and its
# handler slot holds a nested table of the same shape.
_TIM_COMMANDS = {
    "dof": (
        "conflict graphs, feasibility, and the DoF formula",
        (("topology", {}), *_OUTPUT_FLAGS),
        _cmd_tim_dof,
    ),
    "scheme": (
        "synthesize a beamforming scheme",
        (
            ("topology", {}),
            (
                "--kind",
                {
                    "choices": ["auto", "half", "exclusive"],
                    "default": "auto",
                    "help": "half: two-slot scheme; exclusive: alignment-window scheme; auto picks",
                },
            ),
            ("--scheme-out", {"metavar": "PATH", "help": "write the scheme file here"}),
            *_OUTPUT_FLAGS,
        ),
        _cmd_tim_scheme,
    ),
    "verify": (
        "exact almost-sure decodability of a scheme",
        (("topology", {}), ("scheme", {}), *_OUTPUT_FLAGS),
        _cmd_tim_verify,
    ),
    "normalize": (
        "tighten an aligned design's sparse windows",
        (
            ("topology", {}),
            ("scheme", {"help": "scheme file carrying a sparse_assignment"}),
            ("--scheme-out", {"metavar": "PATH", "help": "write the normalized scheme here"}),
            *_OUTPUT_FLAGS,
        ),
        _cmd_tim_normalize,
    ),
}

_COMMANDS = {
    "certify": (
        "maximum almost-sure rank loss of an ensemble",
        (
            ("ensemble", {"help": "ensemble JSON file"}),
            ("--tau", {"type": int, "help": "also report the C2 verdict at this rank loss"}),
            *_OUTPUT_FLAGS,
        ),
        _cmd_certify,
    ),
    "mc-rank": (
        "sampled generic rank of the scaled concatenation",
        (("ensemble", {}), *_SAMPLING_FLAGS, *_OUTPUT_FLAGS),
        _cmd_mc_rank,
    ),
    "equiv": (
        "cross-validate conditions C1 through C5",
        (("ensemble", {}), ("--tau", {"type": int, "required": True}), *_SAMPLING_FLAGS, *_OUTPUT_FLAGS),
        _cmd_equiv,
    ),
    "matroid-check": (
        "rank tables and axioms of a block's matroid",
        (
            ("ensemble", {}),
            ("--block", {"type": int, "required": True, "help": "1-based block index"}),
            ("--rows", {"required": True, "help": "ground set X, e.g. 1,2,3"}),
            ("--cols", {"required": True, "help": "column choice Y, e.g. 1,2"}),
            *_OUTPUT_FLAGS,
        ),
        _cmd_matroid_check,
    ),
    "tim": ("topological interference management analyzer", None, _TIM_COMMANDS),
}


def _add_commands(parser: argparse.ArgumentParser, table: dict, dest: str) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, arguments, run) in table.items():
        command = sub.add_parser(name, help=help_text)
        if isinstance(run, dict):
            _add_commands(command, run, f"{name}_command")
            continue
        for argument, keywords in arguments:
            command.add_argument(argument, **keywords)
        command.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command, with its usage, help and error text.

    `main` builds it only for argv that `_read_argv` leaves, and argparse
    is imported here, so a well-formed call neither imports nor builds it.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="rankloss", description=__doc__.splitlines()[0])
    _add_commands(parser, _COMMANDS, "command")
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """argv read straight from the command table, or None to leave it to argparse.

    Read here: exact command names, then the command's arguments in any
    order, each once or more: an exact long option that is a `store_true`
    flag, or that takes the next word as its value where that word does
    not begin with `-` and passes the option's `type` and `choices`; and
    exactly the command's positionals, none beginning with `-`.  The full
    parser accepts all of that and reads it to the same values (the last
    of a repeated option), so the Namespace is its own less `command` and
    `tim_command`.  Anything else gives None: help, `--`, `--opt=value`,
    abbreviations, values beginning with `-`, a missing or extra argument
    and a failed conversion, which the full parser then reads or refuses.
    """
    table = _COMMANDS
    for depth, name in enumerate(argv, start=1):
        if name not in table:
            return None
        _, arguments, run = table[name]
        if not isinstance(run, dict):
            return _read_arguments(arguments, run, argv[depth:])
        table = run
    return None


def _read_arguments(arguments, run, words: Sequence[str]) -> SimpleNamespace | None:
    values = {"run": run}
    options, positionals, required = {}, [], set()
    for name, keywords in arguments:
        if not name.startswith("-"):
            positionals.append(name)
            continue
        dest = name[2:].replace("-", "_")
        options[name] = dest, keywords
        flag = keywords.get("action") == "store_true"
        values[dest] = keywords.get("default", False if flag else None)
        if keywords.get("required"):
            required.add(dest)
    given = []
    words = iter(words)
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        if word not in options:
            return None
        dest, keywords = options[word]
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        word = next(words, "-")
        if word.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(word)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
        required.discard(dest)
    if required or len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    A well-formed argv is read straight from the command table
    (`_read_argv`); the full parser is built only for the rest, to parse
    argv or refuse it with argparse's own usage, help and error text.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else USAGE_ERROR
        # Handlers get the Namespace `_read_argv` gives: no command names.
        del args.command
        vars(args).pop("tim_command", None)

    started = time.monotonic()
    try:
        report = args.run(args)
        report["timing_seconds"] = round(time.monotonic() - started, 6)
        text = fileio.write_json(report, args.out, pretty=args.pretty)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return LOAD_ERROR
    except EquivalenceViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(fileio.write_json(exc.report.to_dict(), None, pretty=True), file=sys.stderr)
        return INTERNAL_ERROR
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR

    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
