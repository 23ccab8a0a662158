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
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from fractions import Fraction

from . import fileio
from .conditions import check_C2, cross_validate, max_tau
from .errors import EquivalenceViolation, InternalInvariantError, LoadError, PreconditionError
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
)

USAGE_ERROR, LOAD_ERROR, PRECONDITION_ERROR, INTERNAL_ERROR = 2, 3, 4, 5


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=20, help="sample points per check")
    parser.add_argument("--bits", type=int, default=31, help="log2 of the scaling magnitude bound")
    parser.add_argument("--seed", type=int, default=0, help="seed for reproducible draws")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the report JSON here as well")
    parser.add_argument("--pretty", action="store_true", help="indent the report")


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
        members = [int(v) for v in text.split(",") if v.strip()]
        return IndexSet.of(universe, members)
    except ValueError:
        raise PreconditionError(f"{what} must be a comma-separated list of indices, got {text!r}")


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
    if tau_star >= 1 and not check_C2(ensemble, tau_star).holds:
        raise InternalInvariantError(f"C2 fails at max_tau = {tau_star} from C6")
    probe = args.tau if args.tau is not None else (tau_star if tau_star >= 1 else None)
    if probe is not None:
        result = check_C2(ensemble, probe)
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
    if kind == "half":
        scheme, assignment = synth_half_dof_scheme(topology), None
    else:
        scheme, assignment = synth_exclusive_scheme(topology)
    payload = fileio.emit_scheme(scheme, assignment)
    if args.scheme_out:
        fileio.write_json(payload, args.scheme_out, pretty=True)
    report = {
        "command": "tim scheme",
        "input": args.topology,
        "kind": kind,
        "n": scheme.n,
        "symbols_per_user": list(scheme.symbol_counts),
        "activation_pattern": [list(p) for p in scheme.activation_pattern()],
        "dof_per_user": [format_rational(Fraction(m, scheme.n)) for m in scheme.symbol_counts],
    }
    if args.scheme_out:
        report["scheme_file"] = args.scheme_out
    else:
        report["scheme"] = payload
    return report


def _cmd_tim_verify(args) -> dict:
    topology = fileio.load_topology(args.topology)
    scheme, _ = fileio.load_scheme(args.scheme)
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
    scheme, assignment = fileio.load_scheme(args.scheme)
    if assignment is None:
        raise PreconditionError("scheme file carries no sparse_assignment to normalize")
    new_scheme, new_assignment = normalize_alignment(topology, scheme, assignment)
    payload = fileio.emit_scheme(new_scheme, new_assignment)
    if args.scheme_out:
        fileio.write_json(payload, args.scheme_out, pretty=True)
    report = {
        "command": "tim normalize",
        "topology": args.topology,
        "scheme": args.scheme,
        "windows": [list(s) if s is not None else None for s in new_assignment.sets],
    }
    if args.scheme_out:
        report["scheme_file"] = args.scheme_out
    else:
        report["scheme"] = payload
    return report


def _certify_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ensemble", help="ensemble JSON file")
    parser.add_argument("--tau", type=int, help="also report the C2 verdict at this rank loss")
    _add_output_flags(parser)


def _mc_rank_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ensemble")
    _add_sampling_flags(parser)
    _add_output_flags(parser)


def _equiv_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ensemble")
    parser.add_argument("--tau", type=int, required=True)
    _add_sampling_flags(parser)
    _add_output_flags(parser)


def _matroid_check_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ensemble")
    parser.add_argument("--block", type=int, required=True, help="1-based block index")
    parser.add_argument("--rows", required=True, help="ground set X, e.g. 1,2,3")
    parser.add_argument("--cols", required=True, help="column choice Y, e.g. 1,2")
    _add_output_flags(parser)


def _tim_dof_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("topology")
    _add_output_flags(parser)


def _tim_scheme_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("topology")
    parser.add_argument(
        "--kind",
        choices=["auto", "half", "exclusive"],
        default="auto",
        help="half: two-slot scheme; exclusive: alignment-window scheme; auto picks",
    )
    parser.add_argument("--scheme-out", metavar="PATH", help="write the scheme file here")
    _add_output_flags(parser)


def _tim_verify_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("topology")
    parser.add_argument("scheme")
    _add_output_flags(parser)


def _tim_normalize_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("topology")
    parser.add_argument("scheme", help="scheme file carrying a sparse_assignment")
    parser.add_argument("--scheme-out", metavar="PATH", help="write the normalized scheme here")
    _add_output_flags(parser)


# Every command as name -> (help, add_arguments, handler), in the order help
# lists them.  A group such as `tim` has no arguments of its own, and its
# handler slot holds a nested table of the same shape.
_TIM_COMMANDS = {
    "dof": ("conflict graphs, feasibility, and the DoF formula", _tim_dof_args, _cmd_tim_dof),
    "scheme": ("synthesize a beamforming scheme", _tim_scheme_args, _cmd_tim_scheme),
    "verify": ("exact almost-sure decodability of a scheme", _tim_verify_args, _cmd_tim_verify),
    "normalize": ("tighten an aligned design's sparse windows", _tim_normalize_args, _cmd_tim_normalize),
}

_COMMANDS = {
    "certify": ("maximum almost-sure rank loss of an ensemble", _certify_args, _cmd_certify),
    "mc-rank": ("sampled generic rank of the scaled concatenation", _mc_rank_args, _cmd_mc_rank),
    "equiv": ("cross-validate conditions C1 through C5", _equiv_args, _cmd_equiv),
    "matroid-check": ("rank tables and axioms of a block's matroid", _matroid_check_args, _cmd_matroid_check),
    "tim": ("topological interference management analyzer", None, _TIM_COMMANDS),
}


def _add_commands(parser: argparse.ArgumentParser, table: dict, dest: str, argv: Sequence[str]) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    named = bool(argv) and argv[0] in table
    for name in [argv[0]] if named else table:
        help_text, add_arguments, run = table[name]
        command = sub.add_parser(name, help=help_text)
        if isinstance(run, dict):
            _add_commands(command, run, f"{name}_command", argv[1:] if named else ())
        else:
            add_arguments(command)
            command.set_defaults(run=run)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for `argv`; with no argv, the full parser of every command.

    Where argv names a command (and, under `tim`, a subcommand), only that
    sub-parser is built; at a level where it names none (no arguments, `-h`,
    an unknown name) every sub-parser is built, so argparse prints the full
    usage, help and error text.  Each command runs in a fresh process, and
    building all ten sub-parsers (50 arguments) costs about 2 ms, most of the
    run time of a light command such as `tim dof`.
    """
    parser = argparse.ArgumentParser(prog="rankloss", description=__doc__.splitlines()[0])
    _add_commands(parser, _COMMANDS, "command", argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extras = build_parser(argv).parse_known_args(argv)
        if extras:
            # argparse reports unrecognized arguments under the top-level
            # usage, which lists every command: only the full parser prints it.
            build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

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
