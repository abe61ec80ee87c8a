"""Checks of each workload's outputs, run after its timed phase.

Each check returns a `CheckReport`: the operations whose output failed a
check (index -> reason), the sets left unchecked because their
independent p-value lies within quadrature error of alpha, the settled
decision count, and failures of whole-workload properties.  Tail
probabilities, statistics and spectra come from `independent`, which
does not use ctgt.  ctgt itself is called here only where the check is
a property of the method (the oracle against the unlimited-budget
shortcut) or to re-run a few simulation batches apart, whose
decisions the independent test then checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sstats

from independent import Study, verdict
from workloads import WORKLOADS, feature_names

# A replicate count with a false rejection above the binomial (R, alpha)
# upper quantile at this level fails the run; correct code passes it
# with probability at least 1 - 1e-6 per run.
FWER_CHECK_LEVEL = 1e-6
SUPERSET_SAMPLES = 3       # enumerated supersets re-tested per query
WITNESS_SAMPLES = 3        # not_reject witnesses re-tested per replicate


@dataclass
class CheckReport:
    failed_ops: dict = field(default_factory=dict)
    unchecked: list = field(default_factory=list)
    settled: int = 0
    property_failures: list = field(default_factory=list)
    n_checked: int = 0


class _Tails:
    """Memoised independent verdicts of one study."""

    def __init__(self, study: Study, alpha: float):
        self.study = study
        self.alpha = alpha
        self._memo: dict = {}

    def verdict(self, members) -> tuple[str | None, float]:
        key = tuple(sorted(members))
        if key not in self._memo:
            p, err = self.study.p_value(key)
            self._memo[key] = (verdict(p, err, self.alpha), p)
        return self._memo[key]


def check_screen(records, studies, sets, alpha) -> CheckReport:
    """`studies` holds each cohort's (X, y); `sets` maps each set name to
    its member indices."""
    rep = CheckReport()
    m = studies[0][0].shape[1]
    index = {name: j for j, name in enumerate(feature_names(m))}
    all_tails = [_Tails(Study(X, y), alpha) for X, y in studies]
    universe = tuple(range(m))
    for j, rec in enumerate(records):
        if rec is None:
            continue
        decision = rec["decision"]
        members = sets[rec["set"]]
        tails = all_tails[rec["cohort"]]
        if decision == "reject":
            rep.settled += 1
            for label, s in (("set", members), ("universe", universe)):
                v, p = tails.verdict(s)
                rep.n_checked += 1
                if v is None:
                    rep.unchecked.append((rec["set"], label, p))
                elif v != "reject":
                    rep.failed_ops[j] = (f"reject, but the {label} has "
                                         f"independent p={p:.6g}")
        elif decision == "not_reject":
            rep.settled += 1
            witness = tuple(index[name] for name in rec["witness"])
            if not set(members) <= set(witness):
                rep.failed_ops[j] = "witness does not contain the set"
                continue
            if not set(witness) <= set(universe):
                rep.failed_ops[j] = "witness leaves the universe"
                continue
            v, p = tails.verdict(witness)
            rep.n_checked += 1
            if v is None:
                rep.unchecked.append((rec["set"], "witness", p))
            elif v != "not_reject":
                rep.failed_ops[j] = (f"witness has independent p={p:.6g}"
                                     f" <= alpha")
        elif decision != "unsure":
            rep.failed_ops[j] = f"decision {decision!r}"
    return rep


def check_null_sim(ctgt, records, alpha, universe_rejects) -> CheckReport:
    """Re-run the first batches and the first batch with a rejecting
    universe apart, and check their decisions; check that every batch's
    false rejections lie in replicates whose universe the independent
    test rejects (closed testing allows no others), and bound the
    number of replicates with a false rejection."""
    spec = WORKLOADS["null_sim"]
    rep = CheckReport()
    first_costly = [j for j, r in enumerate(universe_rejects) if r][:1]
    for j in sorted(set(range(spec.rerun_ops)) | set(first_costly)):
        rec = records[j]
        if rec is None:
            continue
        children = np.random.SeedSequence(rec["seed"]).spawn(spec.batch)
        any_false = rejections = 0
        for child in children:
            rng = np.random.default_rng(child)
            data = ctgt.logistic_dataset(spec.n, spec.m, effect=0.0,
                                         n_signal=1, rng=rng)
            sets = ctgt.random_index_sets(spec.m, spec.n_pathways, rng)
            null = ctgt.fit_null(data)
            fstats = ctgt.feature_stats(data, null)
            provider = ctgt.SpectrumProvider(data, null)
            rows = ctgt.analyze_collection(
                fstats, provider, [(f"p{k + 1}", s) for k, s in
                                   enumerate(sets)], alpha, workers=1)
            tails = _Tails(Study(data.X, data.y), alpha)
            universe = tuple(range(spec.m))
            hits = 0
            for k, (row, members) in enumerate(zip(rows, sets)):
                if row.decision in ("reject", "not_reject"):
                    rep.settled += 1
                if row.decision == "reject":
                    hits += 1
                    checks = (("set", members), ("universe", universe))
                    want = "reject"
                elif row.decision == "not_reject" and k < WITNESS_SAMPLES:
                    if not set(members) <= set(row.witness):
                        rep.failed_ops[j] = "witness does not contain the set"
                    checks = (("witness", row.witness),)
                    want = "not_reject"
                else:
                    continue
                for label, s in checks:
                    v, p = tails.verdict(s)
                    rep.n_checked += 1
                    if v is None:
                        rep.unchecked.append((f"op{j}/p{k + 1}", label, p))
                    elif v != want:
                        rep.failed_ops[j] = (f"{row.decision} of p{k + 1}, "
                                             f"but the {label} has "
                                             f"independent p={p:.6g}")
            any_false += hits > 0
            rejections += hits
        if (any_false, rejections) != (rec["any_false"],
                                       rec["null_rejections"]):
            rep.failed_ops[j] = (
                f"re-run found {any_false} replicate(s) and {rejections} "
                f"rejection(s); fwer_simulation reported "
                f"{rec['any_false']} and {rec['null_rejections']}")
    for j, (rec, allowed) in enumerate(zip(records, universe_rejects)):
        if rec is not None and rec["any_false"] > allowed:
            rep.failed_ops.setdefault(j, (
                f"{rec['any_false']} replicate(s) with a false rejection, "
                f"but the independent test rejects the universe of "
                f"{allowed}"))
    done = [r for r in records if r is not None]
    n_rep = sum(r["replicates"] for r in done)
    n_false = sum(r["any_false"] for r in done)
    bound = int(sstats.binom.isf(FWER_CHECK_LEVEL, n_rep, alpha))
    if n_false > bound:
        rep.property_failures.append(
            f"{n_false} of {n_rep} null replicates had a false rejection; "
            f"the binomial bound at alpha={alpha} is {bound}")
    return rep


def check_verify(ctgt, records, studies, queries, alpha,
                 seed) -> CheckReport:
    """Oracle against the unlimited-budget shortcut, its first failure
    and a sample of its enumerated supersets against the independent
    test.  Operation j asks query j % len(queries) of its cohort."""
    rep = CheckReport()
    m = studies[0][0].shape[1]
    names = feature_names(m)
    index = {name: j for j, name in enumerate(names)}
    universe = tuple(range(m))
    rng = np.random.default_rng(seed)
    cohorts = []
    for X, y in studies:
        data = ctgt.Dataset(y=y, Z=np.ones((X.shape[0], 1)), X=X,
                            feature_names=names,
                            sample_ids=[f"s{i + 1}"
                                        for i in range(X.shape[0])])
        null = ctgt.fit_null(data)
        cohorts.append((ctgt.feature_stats(data, null),
                        ctgt.SpectrumProvider(data, null),
                        _Tails(Study(X, y), alpha)))
    for j, rec in enumerate(records):
        if rec is None:
            continue
        fstats, provider, tails = cohorts[rec["cohort"]]
        base = tuple(queries[j % len(queries)])
        short = ctgt.iterative_shortcut(fstats, provider, base, universe,
                                        alpha, max_iterations=10 ** 9)
        if short.decision != rec["decision"]:
            rep.failed_ops[j] = (f"oracle says {rec['decision']}, unlimited "
                                 f"shortcut says {short.decision}")
            continue
        if rec["decision"] in ("reject", "not_reject"):
            rep.settled += 1
        comp = sorted(set(universe) - set(base))
        n_rejected = rec["n_tests"] - (rec["first_failure"] is not None)
        samples = [(int(mask), "reject") for mask in
                   rng.choice(n_rejected, min(SUPERSET_SAMPLES, n_rejected),
                              replace=False)]
        if rec["first_failure"] is not None:
            samples.append((rec["n_tests"] - 1, "not_reject"))
        for mask, want in samples:
            members = tuple(sorted(base + tuple(
                comp[b] for b in range(len(comp)) if mask >> b & 1)))
            if want == "not_reject":
                got = tuple(sorted(index[n] for n in rec["first_failure"]))
                if got != members:
                    rep.failed_ops[j] = "first failure is not the last test"
            v, p = tails.verdict(members)
            rep.n_checked += 1
            if v is None:
                rep.unchecked.append((f"op{j}", f"mask {mask}", p))
            elif v != want:
                rep.failed_ops[j] = (f"superset with mask {mask} has "
                                     f"independent p={p:.6g}, oracle "
                                     f"treated it as {want}")
    return rep
