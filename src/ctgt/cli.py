"""Command-line interface.

Subcommands: test (one set), analyze (pathway batch), curves (envelope
export), oracle (brute-force comparison), simulate (error-rate study),
alpha0-check (conservatism audit).  Every command prints to stdout,
opening with a '# configuration' block of its resolved options and, on
a data table, its response coding, so runs are self-describing; a
command that tests a --set then names the inactive members it dropped.
`curves` exports curve_table's rows under their own keys, the
CURVE_COLUMNS.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

import numpy as np

from . import io as tableio
from .bnb import (DEFAULT_MAX_ITERATIONS, ERROR, NOT_REJECT, REJECT, SKIPPED,
                  UNSURE, analyze_collection, iterative_shortcut)
from .driver import DEFAULT_CAP, alpha0_survey, full_closed_test, globaltest
from .linmodel import SpectrumProvider, feature_stats, fit_null
from .shortcut import curve_table
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


def _add_run_args(p: argparse.ArgumentParser, budget: bool = True,
                  workers: bool = False) -> None:
    p.add_argument("--alpha", type=float, default=0.05,
                   help="significance level, in (0, 0.5)")
    if budget:
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS,
                       dest="max_iter", help="iteration budget per tested set")
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
    _add_run_args(p, budget=False)
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
    _add_run_args(p, workers=True)
    p.add_argument("--n", type=int, default=50, help="samples per replicate")
    p.add_argument("--m", type=int, default=20, help="features per replicate")
    p.add_argument("--n-pathways", type=int, default=30, dest="n_pathways",
                   help="random sets per replicate, at least 1")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--effect", type=float, default=0.0,
                   help="log-odds signal size; 0 gives a global null")
    p.add_argument("--n-signal", type=int, default=1, dest="n_signal",
                   help="number of signal-carrying features")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("alpha0-check",
                       help="audit bound conservatism on random supersets")
    _add_data_args(p)
    _add_run_args(p, budget=False)
    p.add_argument("--samples", type=int, default=100,
                   help="total random supersets to audit")
    p.add_argument("--base-sets", type=int, default=4, dest="base_sets",
                   help="random base sets the supersets grow from")
    p.add_argument("--seed", type=int, default=None)

    return ap


def _config(args: argparse.Namespace, data=None) -> dict:
    """The resolved options, then the response coding of loaded data."""
    config = {k: v for k, v in vars(args).items()
              if k != "command" and v is not None}
    if data is not None and data.response_labels is not None:
        a, b = data.response_labels
        config["response_coding"] = f"{a!r} -> 0, {b!r} -> 1"
    return config


def _echo_config(config: dict) -> None:
    print("\n".join(tableio.comment_lines("configuration", config)))


def _echo_set_config(args, data, dropped: list[str]) -> None:
    """The configuration block, then the inactive --set members that
    _resolve_active dropped."""
    _echo_config(_config(args, data))
    if dropped:
        print(f"# inactive members dropped: {', '.join(dropped)}")


def _echo_pairs(pairs: dict) -> None:
    """One 'key = value' line per pair, values as fmt_value renders them."""
    print("\n".join(f"{k} = {tableio.fmt_value(v)}"
                    for k, v in pairs.items()))


def _split_names(raw: str) -> list[str]:
    return [s.strip() for s in raw.split(",") if s.strip()]


def _load(args):
    table = tableio.read_table(args.data)
    data = tableio.load_dataset(table, args.response,
                                confounders=_split_names(args.confounders),
                                normalization=args.normalize)
    null = fit_null(data)
    return data, feature_stats(data, null), SpectrumProvider(data, null)


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


def cmd_test(args) -> int:
    data, stats, provider = _load(args)
    active, dropped = _resolve_active(data, stats, args.members)
    _echo_set_config(args, data, dropped)
    single = globaltest(stats, provider, active, args.alpha)
    res = iterative_shortcut(stats, provider, active, stats.active_indices,
                             args.alpha, max_iterations=args.max_iter)
    _echo_pairs({
        "set": _witness_names(data, active),
        "level": float(stats.w[list(active)].sum()),
        "statistic": single.statistic,
        "critical_value": single.critical_value,
        "p_value_single_set": single.p_value,
        "decision": res.decision,
        "iterations_used": res.iterations_used,
        "witness": _witness_names(data, res.witness),
    })
    print(CAVEAT)
    return 2 if res.decision == UNSURE else 0


def _collection_row_dict(row, data, n_listed: int) -> dict:
    return {
        "set_name": row.name,
        "size": n_listed,           # names as listed, found or not
        "resolved_size": row.n_active,
        "level": row.level,
        "statistic": row.statistic,
        "critical_value_root": row.critical_value,
        "decision": row.decision,
        "iterations_used": row.iterations_used,
        "witness_or_empty": _witness_names(data, row.witness),
    }


def cmd_analyze(args) -> int:
    data, stats, provider = _load(args)
    collection = tableio.load_pathways(args.pathways)
    resolved = tableio.resolve_pathways(collection, data.feature_names)
    jobs = [(rp.name, rp.indices) for rp in resolved]
    listed_sizes = [rp.n_listed for rp in resolved]
    if args.singletons:
        jobs += [(name, (j,)) for j, name in enumerate(data.feature_names)]
        listed_sizes += [1] * len(data.feature_names)
    rows = analyze_collection(stats, provider, jobs, args.alpha,
                              max_iterations=args.max_iter,
                              workers=args.workers)
    row_dicts = [_collection_row_dict(r, data, n)
                 for r, n in zip(rows, listed_sizes)]
    counts = Counter(r.decision for r in rows)
    summary = {
        "sets": len(rows),
        "rejected": counts[REJECT],
        "not_rejected": counts[NOT_REJECT],
        "unsure": counts[UNSURE],
        "skipped": counts[SKIPPED],
        "errors": counts[ERROR],
    }
    print(tableio.render_report(_config(args, data), row_dicts, summary),
          end="")
    for rp in resolved:
        if rp.missing:
            print(f"# pathway {rp.name}: {len(rp.missing)} member(s) not in "
                  f"the data: {', '.join(rp.missing[:5])}")
    for r in rows:
        if r.note:
            print(f"# {r.name}: {r.note}")
    print(CAVEAT)
    if args.out:
        tableio.write_results(row_dicts, args.out)
        print(f"# results written to {args.out}")
    if counts[ERROR]:
        return 1
    return 2 if counts[UNSURE] else 0


def cmd_curves(args) -> int:
    data, stats, provider = _load(args)
    active, dropped = _resolve_active(data, stats, args.members)
    rows = curve_table(stats, provider, active, stats.active_indices,
                       args.alpha, samples=args.samples)
    _echo_set_config(args, data, dropped)
    lines = ["\t".join(CURVE_COLUMNS)]
    for row in rows:
        row = {**row, "members": _witness_names(data, row.get("members"))}
        lines.append("\t".join(tableio.fmt_value(row.get(c, ""))
                               for c in CURVE_COLUMNS))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"# curve table written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_oracle(args) -> int:
    data, stats, provider = _load(args)
    active, dropped = _resolve_active(data, stats, args.members)
    universe = stats.active_indices
    _echo_set_config(args, data, dropped)

    t0 = time.perf_counter()
    oracle = full_closed_test(stats, provider, active, universe, args.alpha,
                              cap=args.oracle_cap)
    t_oracle = time.perf_counter() - t0

    t0 = time.perf_counter()
    short = iterative_shortcut(stats, provider, active, universe, args.alpha,
                               max_iterations=args.max_iter)
    t_short = time.perf_counter() - t0

    agree = (short.decision == oracle.decision
             or short.decision == UNSURE)   # unsure never contradicts
    pairs = {
        "oracle_decision": oracle.decision,
        "oracle_tests": oracle.n_tests,
        "oracle_tests_by_bound": oracle.n_by_bound,
        "oracle_seconds": f"{t_oracle:.3f}",
        "shortcut_decision": short.decision,
        "shortcut_iterations": short.iterations_used,
        "shortcut_seconds": f"{t_short:.3f}",
        "agreement": "yes" if agree else "NO",
    }
    if short.witness:
        pairs["shortcut_witness"] = _witness_names(data, short.witness)
    if oracle.first_failure:
        pairs["oracle_first_failure"] = _witness_names(data,
                                                       oracle.first_failure)
    _echo_pairs(pairs)
    return 0 if agree else 1


def cmd_simulate(args) -> int:
    _echo_config(_config(args))
    summary = fwer_simulation(n=args.n, m=args.m, n_pathways=args.n_pathways,
                              replicates=args.replicates, effect=args.effect,
                              n_signal=args.n_signal, alpha=args.alpha,
                              max_iterations=args.max_iter, seed=args.seed,
                              workers=args.workers)
    _echo_pairs({
        "replicates_completed": summary.replicates,
        "replicates_failed": summary.n_failed,
        "fwer_estimate": f"{summary.fwer_estimate:.6g}",
        "fwer_std_error": f"{summary.std_error:.6g}",
        "replicates_with_false_rejection": summary.n_any_false_rejection,
        "total_null_sets": summary.total_null_sets,
        "total_null_rejections": summary.total_null_rejections,
        "avg_true_rejections": f"{summary.avg_true_rejections:.6g}",
    })
    return 0


def cmd_alpha0_check(args) -> int:
    data, stats, provider = _load(args)
    _echo_config(_config(args, data))
    rng = np.random.default_rng(args.seed)
    records = alpha0_survey(stats, provider, rng,
                            n_base_sets=args.base_sets,
                            n_supersets=args.samples)
    worst = min(records, key=lambda r: r.alpha0)
    if worst.alpha0 > args.alpha:
        verdict = (f"bound conservative at alpha {args.alpha} for every "
                   "sampled superset")
    else:
        verdict = (f"bound NOT certified at alpha {args.alpha}; smallest "
                   "safe working level exceeds min_alpha0 above")
    _echo_pairs({
        "supersets_audited": len(records),
        "min_alpha0": f"{worst.alpha0:.6g}",
        "min_alpha0_base": _witness_names(data, worst.base),
        "min_alpha0_superset_size": len(worst.superset),
        "verdict": verdict,
    })
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after --help, 2 on misuse
        return 1 if exc.code else 0
    if not 0.0 < args.alpha < 0.5:
        print(f"error: --alpha must be in (0, 0.5), got {args.alpha}",
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
