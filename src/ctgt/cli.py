"""Command-line interface.

Subcommands: test (one set), analyze (pathway batch), curves (envelope
export), oracle (brute-force comparison), simulate (error-rate study),
alpha0-check (conservatism audit).  Every command echoes its resolved
configuration so runs are self-describing.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import io as tableio
from .bnb import (DEFAULT_MAX_ITERATIONS, ERROR, NOT_REJECT, REJECT, SKIPPED,
                  UNSURE, analyze_collection, iterative_shortcut)
from .driver import DEFAULT_CAP, alpha0_survey, full_closed_test, globaltest
from .linmodel import SpectrumProvider, feature_stats, fit_null
from .shortcut import DEFAULT_EPSILON, curve_table
from .simulate import fwer_simulation

CAVEAT = ("# note: decisions rest on a conservative bound for superset null "
          "distributions; audit it on your data with the alpha0-check "
          "subcommand")

CURVE_COLUMNS = ("kind", "level", "g_min", "c_max", "statistic",
                 "critical_value", "members")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="delimited data table")
    p.add_argument("--response", required=True,
                   help="name of the binary response column")
    p.add_argument("--confounders", default="",
                   help="comma-separated confounder column names")
    p.add_argument("--normalize", choices=tableio.NORMALIZATIONS,
                   default="none", help="feature normalization")


def _add_run_args(p: argparse.ArgumentParser, search: bool = True,
                  trunc_tol: bool = True, workers: bool = False) -> None:
    p.add_argument("--alpha", type=float, default=0.05,
                   help="significance level, in (0, 0.5)")
    if search:
        p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                       help="convergence tolerance of the crossing search")
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS,
                       dest="max_iter", help="iteration budget per tested set")
    if trunc_tol:
        p.add_argument("--trunc-tol", type=float, default=1e-12,
                       dest="trunc_tol",
                       help="series truncation tolerance, in (0, 1)")
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes; each costs about half a "
                            "second to start, so they pay off only for "
                            "batches that run for many seconds serially")


def _add_set_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", required=True, dest="members",
                   help="comma-separated feature names of the tested set")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctgt",
        description="Family-wise error controlled testing of feature sets "
                    "under a logistic null.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test one feature set")
    _add_data_args(p)
    _add_set_arg(p)
    _add_run_args(p)

    p = sub.add_parser("analyze", help="run a pathway collection")
    _add_data_args(p)
    _add_run_args(p, workers=True)
    p.add_argument("--pathways", required=True, help="pathway file")
    p.add_argument("--singletons", action="store_true",
                   help="also test every feature as a singleton set")
    p.add_argument("--out", help="write the results table here (CSV)")

    p = sub.add_parser("curves", help="export decision envelopes for a set")
    _add_data_args(p)
    _add_set_arg(p)
    _add_run_args(p, search=False)
    p.add_argument("--samples", type=int, default=200,
                   help="evenly spaced levels to tabulate")
    p.add_argument("--out", help="write the curve table here (TSV)")

    p = sub.add_parser("oracle",
                       help="compare against brute-force closed testing")
    _add_data_args(p)
    _add_set_arg(p)
    _add_run_args(p)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_CAP,
                   dest="oracle_cap",
                   help="largest complement size to enumerate")

    p = sub.add_parser("simulate", help="estimate error rates on drawn data")
    _add_run_args(p, trunc_tol=False, workers=True)
    p.add_argument("--n", type=int, default=50, help="samples per replicate")
    p.add_argument("--m", type=int, default=20, help="features per replicate")
    p.add_argument("--n-pathways", type=int, default=30, dest="n_pathways",
                   help="random sets per replicate")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--effect", type=float, default=0.0,
                   help="log-odds signal size; 0 gives a global null")
    p.add_argument("--n-signal", type=int, default=1, dest="n_signal",
                   help="number of signal-carrying features")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("alpha0-check",
                       help="audit bound conservatism on random supersets")
    _add_data_args(p)
    _add_run_args(p, search=False)
    p.add_argument("--samples", type=int, default=100,
                   help="total random supersets to audit")
    p.add_argument("--base-sets", type=int, default=4, dest="base_sets",
                   help="random base sets the supersets grow from")
    p.add_argument("--seed", type=int, default=None)

    return ap


def _echo_config(pairs: dict, file) -> None:
    print("# configuration", file=file)
    for k, v in pairs.items():
        print(f"#   {k} = {v}", file=file)


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"command"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None}


def _split_names(raw: str) -> list[str]:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _load(args):
    table = tableio.read_table(args.data)
    data = tableio.load_dataset(table, args.response,
                                confounders=_split_names(args.confounders),
                                normalization=args.normalize)
    null = fit_null(data)
    stats = feature_stats(data, null)
    provider = SpectrumProvider(data, null, trunc_tol=args.trunc_tol)
    return data, null, stats, provider


def _resolve_active(data, stats, raw: str
                    ) -> tuple[tuple[int, ...], list[str]]:
    """`--set` as its active member indices, plus the names of the
    inactive members it drops."""
    names = _split_names(raw)
    if not names:
        raise ValueError("--set is empty")
    lookup = {name: j for j, name in enumerate(data.feature_names)}
    missing = [n for n in names if n not in lookup]
    if missing:
        raise ValueError("unknown feature name(s) in --set: "
                         + ", ".join(missing))
    members = sorted({lookup[n] for n in names})
    active = tuple(j for j in members if stats.active[j])
    if not active:
        raise ValueError("tested set has no active members")
    dropped = [data.feature_names[j] for j in members if not stats.active[j]]
    return active, dropped


def _witness_names(data, witness) -> str:
    if not witness:
        return ""
    return "+".join(data.feature_names[j] for j in witness)


def _echo_response_coding(data, file) -> None:
    if data.response_labels is not None:
        a, b = data.response_labels
        print(f"# response coding: {a!r} -> 0, {b!r} -> 1", file=file)


def cmd_test(args, out=None) -> int:
    out = sys.stdout if out is None else out
    data, _, stats, provider = _load(args)
    active, dropped = _resolve_active(data, stats, args.members)
    _echo_config(_config_dict(args), out)
    _echo_response_coding(data, out)
    if dropped:
        print(f"# inactive members dropped: {', '.join(dropped)}", file=out)
    single = globaltest(stats, provider, active, args.alpha)
    res = iterative_shortcut(stats, provider, active, stats.active_indices,
                             args.alpha, epsilon=args.epsilon,
                             max_iterations=args.max_iter)
    print(f"set = {'+'.join(data.feature_names[j] for j in active)}",
          file=out)
    print(f"level = {tableio.fmt_value(float(stats.w[list(active)].sum()))}",
          file=out)
    print(f"statistic = {tableio.fmt_value(single.statistic)}", file=out)
    print(f"critical_value = {tableio.fmt_value(single.critical_value)}",
          file=out)
    print(f"p_value_single_set = {tableio.fmt_value(single.p_value)}",
          file=out)
    print(f"decision = {res.decision}", file=out)
    print(f"iterations_used = {res.iterations_used}", file=out)
    print(f"witness = {_witness_names(data, res.witness)}", file=out)
    print(CAVEAT, file=out)
    if res.decision == UNSURE:
        return 2
    return 0


def _collection_row_dict(row, data) -> dict:
    return {
        "set_name": row.name,
        "size": row.n_members,
        "resolved_size": row.n_active,
        "level": row.level,
        "statistic": row.statistic,
        "critical_value_root": row.critical_value,
        "decision": row.decision,
        "iterations_used": row.iterations_used,
        "witness_or_empty": _witness_names(data, row.witness),
    }


def cmd_analyze(args, out=None) -> int:
    out = sys.stdout if out is None else out
    data, _, stats, provider = _load(args)
    collection = tableio.load_pathways(args.pathways)
    resolved = tableio.resolve_pathways(collection, data.feature_names)
    jobs = [(rp.name, rp.indices) for rp in resolved]
    listed_sizes = [rp.n_listed for rp in resolved]
    if args.singletons:
        jobs += [(name, (j,)) for j, name in enumerate(data.feature_names)]
        listed_sizes += [1] * len(data.feature_names)
    rows = analyze_collection(stats, provider, jobs, args.alpha,
                              epsilon=args.epsilon,
                              max_iterations=args.max_iter,
                              workers=args.workers)
    config = _config_dict(args)
    if data.response_labels is not None:
        a, b = data.response_labels
        config["response_coding"] = f"{a!r} -> 0, {b!r} -> 1"
    row_dicts = [_collection_row_dict(r, data) for r in rows]
    for d, n_listed in zip(row_dicts, listed_sizes):
        d["size"] = n_listed        # names as listed, found or not
    counts = {d: 0 for d in (REJECT, NOT_REJECT, UNSURE, SKIPPED, ERROR)}
    for r in rows:
        counts[r.decision] = counts.get(r.decision, 0) + 1
    summary = {
        "sets": len(rows),
        "rejected": counts[REJECT],
        "not_rejected": counts[NOT_REJECT],
        "unsure": counts[UNSURE],
        "skipped": counts[SKIPPED],
        "errors": counts[ERROR],
    }
    report = tableio.render_report(config, row_dicts, summary)
    out.write(report)
    for rp in resolved:
        if rp.missing:
            print(f"# pathway {rp.name}: {len(rp.missing)} member(s) not in "
                  f"the data: {', '.join(rp.missing[:5])}", file=out)
    for r in rows:
        if r.note:
            print(f"# {r.name}: {r.note}", file=out)
    print(CAVEAT, file=out)
    if args.out:
        tableio.write_results(row_dicts, args.out)
        print(f"# results written to {args.out}", file=out)
    return 2 if counts[UNSURE] else 0


def cmd_curves(args, out=None) -> int:
    out = sys.stdout if out is None else out
    data, _, stats, provider = _load(args)
    active, _ = _resolve_active(data, stats, args.members)
    rows = curve_table(stats, provider, active, stats.active_indices,
                       args.alpha, samples=args.samples)
    _echo_config(_config_dict(args), out)
    _echo_response_coding(data, out)

    def cells(row):
        members_str = ""
        if "members" in row:
            members_str = "+".join(data.feature_names[j]
                                   for j in row["members"])
        fmt = tableio.fmt_value
        return {
            "kind": row["kind"],
            "level": fmt(row["level"]),
            "g_min": fmt(row["gmin"]) if "gmin" in row else "",
            "c_max": fmt(row["cmax"]) if "cmax" in row else "",
            "statistic": fmt(row["statistic"]) if "statistic" in row else "",
            "critical_value": (fmt(row["critical"])
                               if "critical" in row else ""),
            "members": members_str,
        }

    lines = ["\t".join(CURVE_COLUMNS)]
    lines += ["\t".join(cells(r)[c] for c in CURVE_COLUMNS) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"# curve table written to {args.out}", file=out)
    else:
        out.write(text)
    return 0


def cmd_oracle(args, out=None) -> int:
    out = sys.stdout if out is None else out
    data, _, stats, provider = _load(args)
    active, _ = _resolve_active(data, stats, args.members)
    universe = stats.active_indices
    _echo_config(_config_dict(args), out)
    _echo_response_coding(data, out)

    t0 = time.perf_counter()
    oracle = full_closed_test(stats, provider, active, universe, args.alpha,
                              cap=args.oracle_cap)
    t_oracle = time.perf_counter() - t0

    t0 = time.perf_counter()
    short = iterative_shortcut(stats, provider, active, universe, args.alpha,
                               epsilon=args.epsilon,
                               max_iterations=args.max_iter)
    t_short = time.perf_counter() - t0

    agree = (short.decision == oracle.decision
             or short.decision == UNSURE)   # unsure never contradicts
    print(f"oracle_decision = {oracle.decision}", file=out)
    print(f"oracle_tests = {oracle.n_tests}", file=out)
    print(f"oracle_tests_by_bound = {oracle.n_by_bound}", file=out)
    print(f"oracle_seconds = {t_oracle:.3f}", file=out)
    print(f"shortcut_decision = {short.decision}", file=out)
    print(f"shortcut_iterations = {short.iterations_used}", file=out)
    print(f"shortcut_seconds = {t_short:.3f}", file=out)
    print(f"agreement = {'yes' if agree else 'NO'}", file=out)
    if short.witness:
        print(f"shortcut_witness = {_witness_names(data, short.witness)}",
              file=out)
    if oracle.first_failure:
        print("oracle_first_failure = "
              f"{_witness_names(data, oracle.first_failure)}", file=out)
    return 0 if agree else 1


def cmd_simulate(args, out=None) -> int:
    out = sys.stdout if out is None else out
    _echo_config(_config_dict(args), out)
    summary = fwer_simulation(n=args.n, m=args.m, n_pathways=args.n_pathways,
                              replicates=args.replicates, effect=args.effect,
                              n_signal=args.n_signal, alpha=args.alpha,
                              epsilon=args.epsilon,
                              max_iterations=args.max_iter, seed=args.seed,
                              workers=args.workers)
    print(f"replicates_completed = {summary.replicates}", file=out)
    print(f"replicates_failed = {summary.n_failed}", file=out)
    print(f"fwer_estimate = {summary.fwer_estimate:.6g}", file=out)
    print(f"fwer_std_error = {summary.std_error:.6g}", file=out)
    print("replicates_with_false_rejection = "
          f"{summary.n_any_false_rejection}", file=out)
    print(f"total_null_sets = {summary.total_null_sets}", file=out)
    print(f"total_null_rejections = {summary.total_null_rejections}",
          file=out)
    print(f"avg_true_rejections = {summary.avg_true_rejections:.6g}",
          file=out)
    return 0


def cmd_alpha0_check(args, out=None) -> int:
    out = sys.stdout if out is None else out
    data, _, stats, provider = _load(args)
    _echo_config(_config_dict(args), out)
    _echo_response_coding(data, out)
    rng = np.random.default_rng(args.seed)
    records = alpha0_survey(stats, provider, rng,
                            n_base_sets=args.base_sets,
                            n_supersets=args.samples)
    worst = min(records, key=lambda r: r.alpha0)
    print(f"supersets_audited = {len(records)}", file=out)
    print(f"min_alpha0 = {worst.alpha0:.6g}", file=out)
    print("min_alpha0_base = "
          f"{_witness_names(data, worst.base)}", file=out)
    print("min_alpha0_superset_size = "
          f"{len(worst.superset)}", file=out)
    if worst.alpha0 > args.alpha:
        print(f"verdict = bound conservative at alpha {args.alpha} for every "
              "sampled superset", file=out)
    else:
        print(f"verdict = bound NOT certified at alpha {args.alpha}; "
              "smallest safe working level exceeds min_alpha0 above",
              file=out)
    return 0


_COMMANDS = {
    "test": cmd_test,
    "analyze": cmd_analyze,
    "curves": cmd_curves,
    "oracle": cmd_oracle,
    "simulate": cmd_simulate,
    "alpha0-check": cmd_alpha0_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 0.0 < args.alpha < 0.5:
        print(f"error: --alpha must be in (0, 0.5), got {args.alpha}",
              file=sys.stderr)
        return 1
    if "epsilon" in args and args.epsilon <= 0.0:
        print("error: --epsilon must be positive", file=sys.stderr)
        return 1
    if "trunc_tol" in args and not 0.0 < args.trunc_tol < 1.0:
        print(f"error: --trunc-tol must be in (0, 1), got {args.trunc_tol}",
              file=sys.stderr)
        return 1
    if "max_iter" in args and args.max_iter < 1:
        print("error: --max-iter must be at least 1", file=sys.stderr)
        return 1
    if "workers" in args and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
