"""Command-line surface tying the certifier, oracle, and analyzer together.

Subcommands:
  certify        maximum almost-sure rank loss and witnesses for an ensemble
  mc-rank        sampled generic rank of the scaled concatenation
  equiv          cross-validate all five rank-loss conditions at one tau
  matroid-check  rank tables and axiom verification for one block's matroid
  tim dof        conflict-graph analysis and the symmetric DoF formula
  tim scheme     beamformer synthesis (writes a scheme file)
  tim verify     sampled decodability check of a scheme against a topology
  tim normalize  tighten an aligned design's sparse windows

Exit codes: 0 verdict computed, 2 usage, 3 load failure, 4 violated
precondition, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import fileio
from .conditions import check_C2, cross_validate, max_tau
from .errors import EquivalenceViolation, InternalInvariantError, LoadError, PreconditionError
from .exactla import IndexSet, format_rational
from .matroid import dual, scaled_linear_matroid, verify_axioms
from .randrank import TrialConfig, failure_bound, sample_ranks
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


def _config(args) -> TrialConfig:
    return TrialConfig(trials=args.trials, entry_bound=2**args.bits, seed=args.seed)


def _indexset(text: str, universe: int, what: str) -> IndexSet:
    try:
        members = [int(v) for v in text.split(",") if v.strip()]
        return IndexSet.of(universe, members)
    except ValueError:
        raise PreconditionError(f"{what} must be a comma-separated list of indices, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankloss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="maximum almost-sure rank loss of an ensemble")
    certify.add_argument("ensemble", help="ensemble JSON file")
    certify.add_argument("--tau", type=int, help="also report the C2 verdict at this rank loss")
    _add_output_flags(certify)

    mc = sub.add_parser("mc-rank", help="sampled generic rank of the scaled concatenation")
    mc.add_argument("ensemble")
    _add_sampling_flags(mc)
    _add_output_flags(mc)

    equiv = sub.add_parser("equiv", help="cross-validate conditions C1 through C5")
    equiv.add_argument("ensemble")
    equiv.add_argument("--tau", type=int, required=True)
    _add_sampling_flags(equiv)
    _add_output_flags(equiv)

    mat = sub.add_parser("matroid-check", help="rank tables and axioms of a block's matroid")
    mat.add_argument("ensemble")
    mat.add_argument("--block", type=int, required=True, help="1-based block index")
    mat.add_argument("--rows", required=True, help="ground set X, e.g. 1,2,3")
    mat.add_argument("--cols", required=True, help="column choice Y, e.g. 1,2")
    _add_output_flags(mat)

    tim = sub.add_parser("tim", help="topological interference management analyzer")
    tim_sub = tim.add_subparsers(dest="tim_command", required=True)

    dof = tim_sub.add_parser("dof", help="conflict graphs, feasibility, and the DoF formula")
    dof.add_argument("topology")
    _add_output_flags(dof)

    scheme = tim_sub.add_parser("scheme", help="synthesize a beamforming scheme")
    scheme.add_argument("topology")
    scheme.add_argument(
        "--kind",
        choices=["auto", "half", "exclusive"],
        default="auto",
        help="half: two-slot scheme; exclusive: alignment-window scheme; auto picks",
    )
    scheme.add_argument("--scheme-out", metavar="PATH", help="write the scheme file here")
    _add_output_flags(scheme)

    verify = tim_sub.add_parser("verify", help="sampled decodability of a scheme")
    verify.add_argument("topology")
    verify.add_argument("scheme")
    _add_sampling_flags(verify)
    _add_output_flags(verify)

    norm = tim_sub.add_parser("normalize", help="tighten an aligned design's sparse windows")
    norm.add_argument("topology")
    norm.add_argument("scheme", help="scheme file carrying a sparse_assignment")
    norm.add_argument("--scheme-out", metavar="PATH", help="write the normalized scheme here")
    _add_output_flags(norm)

    return parser


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
    probe = args.tau if args.tau is not None else (tau_star if tau_star >= 1 else None)
    if probe is not None:
        result = check_C2(ensemble, probe)
        report["tau"] = probe
        report["c2"] = result.to_dict()
    return report


def _cmd_mc_rank(args) -> dict:
    ensemble = fileio.load_ensemble(args.ensemble)
    cfg = _config(args)
    ranks = sample_ranks(ensemble, cfg)
    return {
        "command": "mc-rank",
        "input": args.ensemble,
        "R": ensemble.R,
        "sampled_ranks": list(ranks),
        "generic_rank": max(ranks),
        "rank_loss": ensemble.R - max(ranks),
        "failure_probability_bound": str(failure_bound(ensemble, cfg)),
    }


def _cmd_equiv(args) -> dict:
    ensemble = fileio.load_ensemble(args.ensemble)
    report = cross_validate(ensemble, args.tau, _config(args))
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
    result = verify_decodability(topology, scheme, _config(args))
    return {
        "command": "tim verify",
        "topology": args.topology,
        "scheme": args.scheme,
        "per_receiver": list(result.per_receiver),
        "all_decodable": result.ok,
        "failure_probability_bound": str(result.bound),
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


_HANDLERS = {
    "certify": _cmd_certify,
    "mc-rank": _cmd_mc_rank,
    "equiv": _cmd_equiv,
    "matroid-check": _cmd_matroid_check,
}

_TIM_HANDLERS = {
    "dof": _cmd_tim_dof,
    "scheme": _cmd_tim_scheme,
    "verify": _cmd_tim_verify,
    "normalize": _cmd_tim_normalize,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    started = time.monotonic()
    try:
        if args.command == "tim":
            report = _TIM_HANDLERS[args.tim_command](args)
        else:
            report = _HANDLERS[args.command](args)
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

    report["timing_seconds"] = round(time.monotonic() - started, 6)
    text = fileio.write_json(report, args.out, pretty=args.pretty)
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
