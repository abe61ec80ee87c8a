"""Workload definitions and input generation.

Inputs are made here, from the workload seed, and handed to ctgt only as
files (screen, verify) or as plain arguments (null_sim).  Generation is
not part of any timed phase or of setup_s.  null_sim's generation calls
ctgt's logistic_dataset to see the replicates fwer_simulation will draw
(see NullSim).

screen and verify draw their studies from a fixed study design: the
feature correlation loadings, which features carry signal, and each
feature's case-minus-control mean difference are fixed (DESIGN_SEED),
and the seed draws a fresh cohort of samples around them.  With the
differences also drawn from the seed, the decisions and the cost of a
pass moved with the seed by about 30% (a set near the closed-testing
boundary costs tens of times a typical one), which no run length could
average away.  The pathway collection and the oracle queries are part
of the design, as an analyst's pathway database is.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = 0.05
DESIGN_SEED = 20200104


@dataclass(frozen=True)
class StudyDesign:
    n: int                 # samples, half cases and half controls
    m: int                 # features
    n_factors: int         # shared latent factors (feature correlation)
    loading: float         # scale of the factor loadings
    n_signal: int          # features with a planted case/control shift
    shift_lo: float        # signal shifts are spread evenly over
    shift_hi: float        # [shift_lo, shift_hi]


@dataclass(frozen=True)
class Screen:
    """analyze_collection over a pathway collection, on several cohorts."""
    design: StudyDesign = StudyDesign(n=200, m=100, n_factors=10,
                                      loading=0.1, n_signal=12,
                                      shift_lo=0.3, shift_hi=0.9)
    # One cohort's pass moved by up to 40% between seeds (a few sets
    # whose crossing search runs long cost ten times a typical set), and
    # cohorts vary independently; a round screens eight cohorts, each on
    # half of the collection (odd or even sets), so such sets average out.
    n_cohorts: int = 8
    n_sets: int = 100
    n_signal_sets: int = 20
    budget: int = 4              # max_iterations per set


@dataclass(frozen=True)
class NullSim:
    """fwer_simulation under the global null, in small batches.

    A replicate whose universe test rejects costs up to 50 times one whose
    universe does not (every set then needs crossing tests, and a false
    rejection needs branch-and-bound to clear every subspace), and about
    one replicate in twenty is like that.  Drawn freely, their number in
    a round is a Poisson count, and their cost is heavy-tailed (0.4 s to
    5 s a batch): together they moved sets_per_s by 30-40% between
    seeds.  So a round is a stratified sample with a fixed design for
    the costly stratum, as screen and verify fix their study design:
    `rejecting_batches` batches with exactly one replicate whose
    universe the independent test rejects are drawn once from
    DESIGN_SEED and are the same in every run; the seed draws the other
    batches, each with no such replicate.  7 of 144 replicates is about
    the share alpha.  A batch with a universe too close to alpha to call
    is never taken."""
    n: int = 50
    m: int = 20
    n_pathways: int = 30
    batch: int = 3               # replicates per fwer_simulation call
    ops_per_round: int = 48
    rejecting_batches: int = 7
    max_candidates: int = 4000   # candidate batches drawn before giving up
    classify_epsabs: float = 1e-9  # Imhof tolerance; 1e-12 costs 2x
    rerun_ops: int = 2           # first batches re-run apart for the checks


@dataclass(frozen=True)
class Verify:
    """full_closed_test queries whose complement is small enough to list."""
    # With n=80 the smallest eigenvalues, and so the series lengths and
    # the cost per superset, moved by a factor of two between seeds.
    design: StudyDesign = StudyDesign(n=160, m=32, n_factors=4, loading=0.2,
                                      n_signal=16, shift_lo=0.6,
                                      shift_hi=1.0)
    n_cohorts: int = 4
    n_queries: int = 10          # per cohort
    complement: int = 7          # 2**7 = 128 supersets per rejected query


WORKLOADS = {"screen": Screen(), "null_sim": NullSim(), "verify": Verify()}


def feature_names(m: int) -> list[str]:
    return [f"g{j + 1:03d}" for j in range(m)]


def _design_parts(design: StudyDesign):
    """Loadings, signal features and per-feature mean shifts of a design."""
    rng = np.random.default_rng(DESIGN_SEED + design.m)
    loadings = rng.standard_normal((design.n_factors, design.m)) * design.loading
    signal = np.sort(rng.choice(design.m, design.n_signal, replace=False))
    # a noise feature's shift is one draw of its sampling distribution
    sd = np.sqrt(1.0 + design.loading ** 2 * design.n_factors)
    shift = rng.standard_normal(design.m) * sd * np.sqrt(4.0 / design.n)
    shift[signal] = rng.permutation(
        np.linspace(design.shift_lo, design.shift_hi, design.n_signal))
    return rng, loadings, signal, shift


def draw_study(design: StudyDesign, seed):
    """(X, y, signal features, design rng) for one cohort of the design."""
    design_rng, loadings, signal, shift = _design_parts(design)
    rng = np.random.default_rng(seed)
    n = design.n
    y = np.repeat([0.0, 1.0], n // 2)
    X = (rng.standard_normal((n, design.n_factors)) @ loadings
         + rng.standard_normal((n, design.m)))
    case = y == 1.0
    X[case] += shift - (X[case].mean(axis=0) - X[~case].mean(axis=0))
    return X, y, signal, design_rng


def write_study(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    names = feature_names(X.shape[1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["status"] + names)
        for yi, row in zip(y, X):
            w.writerow(["case" if yi else "control"]
                       + [format(v, ".17g") for v in row])


def screen_sets(spec: Screen, signal, rng) -> list[tuple[str, list[int]]]:
    """Signal-heavy sets first, then random sets; a quarter of the random
    ones hold exactly one signal feature."""
    m = spec.design.m
    noise = np.setdiff1d(np.arange(m), signal)
    sets = []
    for j in range(spec.n_sets):
        if j < spec.n_signal_sets:
            n_sig, n_noise = 3 + j % 4, j % 4
        else:
            n_sig = 1 if j % 4 == 0 else 0
            n_noise = 3 + j % 13 - n_sig
        members = np.concatenate((rng.choice(signal, n_sig, replace=False),
                                  rng.choice(noise, n_noise, replace=False)))
        sets.append((f"set{j + 1:03d}", sorted(int(i) for i in members)))
    return sets


def verify_queries(spec: Verify, signal, rng) -> list[list[int]]:
    """Each query is the universe minus `complement` noise features."""
    m = spec.design.m
    noise = np.setdiff1d(np.arange(m), signal)
    out = []
    for _ in range(spec.n_queries):
        left_out = set(int(i) for i in
                       rng.choice(noise, spec.complement, replace=False))
        out.append([j for j in range(m) if j not in left_out])
    return out


def null_batches(spec: NullSim, seed: int) -> tuple[list, list]:
    """Batch seeds of one null_sim round and, per batch, how many of its
    replicates have a universe that the independent test rejects.

    The design's rejecting batches sit at evenly spaced places among the
    seed's other batches."""
    k = spec.rejecting_batches
    ops = spec.ops_per_round
    rejecting = _null_stratum(spec, DESIGN_SEED, 1, k)
    plain = _null_stratum(spec, seed, 0, ops - k)
    places = {(2 * i + 1) * ops // (2 * k): i for i in range(k)}
    seeds, counts = [], []
    for j in range(ops):
        if j in places:
            seeds.append(rejecting[places[j]])
            counts.append(1)
        else:
            seeds.append(plain[j - sum(p < j for p in places)])
            counts.append(0)
    return seeds, counts


def _null_stratum(spec: NullSim, seed: int, rejects: int,
                  count: int) -> list[int]:
    """The first `count` batch seeds drawn from `seed` whose batch has
    exactly `rejects` replicates with a universe that the independent
    test rejects.

    A replicate's data are drawn as fwer_simulation draws them, with
    ctgt's own logistic_dataset from the batch seed's spawned children;
    the universe's p-value comes from `independent`."""
    from independent import Study, verdict
    from worker import import_ctgt
    ctgt = import_ctgt()
    chosen = []
    candidates = np.random.SeedSequence(seed).generate_state(
        spec.max_candidates)
    for batch_seed in (int(s) for s in candidates):
        verdicts = []
        for child in np.random.SeedSequence(batch_seed).spawn(spec.batch):
            data = ctgt.logistic_dataset(spec.n, spec.m, effect=0.0,
                                         n_signal=1,
                                         rng=np.random.default_rng(child))
            p, err = Study(data.X, data.y).p_value(range(spec.m),
                                                   spec.classify_epsabs)
            verdicts.append(verdict(p, err, ALPHA))
        if None not in verdicts and verdicts.count("reject") == rejects:
            chosen.append(batch_seed)
            if len(chosen) == count:
                return chosen
    raise RuntimeError(f"{spec.max_candidates} candidate batches gave "
                       f"{len(chosen)} of the {count} wanted with {rejects} "
                       f"rejecting universe(s)")


@dataclass
class Inputs:
    """What the checks need to know about the inputs handed to ctgt."""
    manifest: dict
    studies: list = field(default_factory=list)   # (X, y) per study file
    sets: dict | None = None          # screen: set name -> member indices
    queries: list | None = None       # verify: member indices per query


def make_inputs(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's inputs under out_dir (manifest.json plus the
    study and pathway files) and return them for the checks."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = WORKLOADS[workload]
    manifest = {"workload": workload, "seed": seed, "alpha": ALPHA}
    inputs = Inputs(manifest)
    if workload == "null_sim":
        manifest["op_seeds"], manifest["op_universe_rejects"] = (
            null_batches(spec, seed))
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
        return inputs
    for c in range(spec.n_cohorts):
        X, y, signal, design_rng = draw_study(spec.design, [seed, c])
        write_study(out_dir / f"study{c + 1}.csv", X, y)
        inputs.studies.append((X, y))
    manifest["studies"] = [f"study{c + 1}.csv" for c in range(spec.n_cohorts)]
    names = feature_names(spec.design.m)
    if workload == "screen":
        sets = screen_sets(spec, signal, design_rng)
        with open(out_dir / "pathways.tsv", "w", encoding="utf-8") as fh:
            for name, members in sets:
                fh.write("\t".join([name, "synthetic"]
                                   + [names[i] for i in members]) + "\n")
        manifest["budget"] = spec.budget
        inputs.sets = {name: tuple(members) for name, members in sets}
    else:
        inputs.queries = verify_queries(spec, signal, design_rng)
        manifest["queries"] = [[names[i] for i in q] for q in inputs.queries]
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    return inputs
