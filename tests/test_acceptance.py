"""Release acceptance suite: nine end-to-end criteria, one test each.

Every test prints a single `[acceptance k/9] name: PASS|FAIL` line before
asserting, so a verbose pytest run doubles as the acceptance report.  The
checks here are deliberately heavier than the unit suites; the whole file
takes tens of minutes, dominated by the error-rate simulation and the
Monte Carlo distribution audit.
"""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

import ctgt
from ctgt import (WeightedChiSq, alpha0_diagnostic, alpha0_survey, cmax,
                  full_closed_test, gmin_curve, iterative_shortcut,
                  majorizing_vector, majorizes, single_step)

from conftest import active_universe, make_instance

ALPHA = 0.05
DATA_DIR = Path(__file__).parent / "data"


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance {num}/9] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance {num}/9 {name} failed{tail}"


# --- 1: the iterative shortcut agrees with exhaustive closed testing ----

def test_criterion_1_matches_exhaustive_closed_testing():
    mismatches = []
    checked = 0
    for i in range(200):
        m = (8, 10, 12)[i % 3]
        effect = (0.0, 0.6, 1.2, 1.8)[i % 4]
        _, _, stats, provider = make_instance(seed=3000 + i, n=25, m=m,
                                              effect=effect,
                                              n_signal=1 + i % 3)
        F = active_universe(stats)
        if len(F) < 3:
            continue
        qrng = np.random.default_rng(9000 + i)
        k = max(1, len(F) // 2)
        sub = tuple(sorted(int(x) for x in
                           qrng.choice(F, size=k, replace=False)))
        for R in ((F[0],), tuple(F[:2]), sub):
            oracle = full_closed_test(stats, provider, R, F, ALPHA, cap=12)
            fast = iterative_shortcut(stats, provider, R, F, ALPHA,
                                      max_iterations=10**8)
            checked += 1
            if fast.decision != oracle.decision:
                mismatches.append((3000 + i, R, fast.decision,
                                   oracle.decision))
    _report(1, "iterative shortcut matches exhaustive closed testing",
            not mismatches and checked >= 500,
            f"{checked} queries, {len(mismatches)} mismatches")


# --- 2 and 3: envelope and majorization audits share one sweep ----------

@pytest.fixture(scope="module")
def envelope_sweep():
    """Exhaustive superset audit on 50 small instances.

    For every S between a singleton base and the active universe,
    records whether the statistic envelope undercuts g_S, whether the
    majorizing vector really majorizes S's spectrum, and whether the
    conservative critical value dominates the exact one (with the
    fallback level-bound diagnostic when it does not).
    """
    out = {"supersets": 0, "envelope_bad": [], "major_bad": [],
           "quantile_bad": []}
    for i in range(50):
        m = (6, 7, 8)[i % 3]
        effect = (0.0, 0.8, 1.4)[i % 3]
        _, _, stats, provider = make_instance(seed=4000 + i, n=30, m=m,
                                              effect=effect,
                                              n_signal=1 + i % 2)
        F = active_universe(stats)
        if len(F) < 2:
            continue
        R = (F[0],)
        curve = gmin_curve(stats, R, F)
        lam_R = provider.spectrum(R)
        lam_F = provider.spectrum(F)
        comp = [j for j in F if j != R[0]]
        for r in range(len(comp) + 1):
            for extra in itertools.combinations(comp, r):
                S = tuple(sorted(R + extra))
                out["supersets"] += 1
                lam_S = provider.spectrum(S)
                g_S = float(stats.g[list(S)].sum())
                env = curve.evaluate(lam_S.level)
                if g_S < env - 1e-8 * max(1.0, abs(g_S)):
                    out["envelope_bad"].append((4000 + i, S, g_S, env))
                major = majorizing_vector(lam_R, lam_F, lam_S.level)
                if not majorizes(major.lambdas, lam_S.lambdas, tol=1e-8):
                    out["major_bad"].append((4000 + i, S))
                c_exact = provider.dist(S).quantile(1.0 - ALPHA)
                c_bound = cmax(lam_R, lam_F, lam_S.level, ALPHA)
                if c_exact > c_bound + 1e-8 * max(1.0, c_bound):
                    a0 = alpha0_diagnostic(lam_S.lambdas, major.lambdas)
                    out["quantile_bad"].append((4000 + i, S, c_exact,
                                                c_bound, a0))
    return out


def test_criterion_2_envelope_and_critical_value_are_conservative(envelope_sweep):
    sweep = envelope_sweep
    # a dominance failure is tolerable only when the level-bound
    # diagnostic itself warns that alpha 0.05 is past the safe range
    unexplained = [v for v in sweep["quantile_bad"] if v[4] > ALPHA]
    ok = (not sweep["envelope_bad"] and not unexplained
          and sweep["supersets"] >= 1000)
    _report(2, "statistic envelope and critical-value bound hold", ok,
            f"{sweep['supersets']} supersets, "
            f"{len(sweep['envelope_bad'])} envelope violations, "
            f"{len(sweep['quantile_bad'])} quantile exceedances "
            f"({len(unexplained)} unexplained)")


def test_criterion_3_majorizing_vector_majorizes_every_superset(envelope_sweep):
    sweep = envelope_sweep
    ok = not sweep["major_bad"] and sweep["supersets"] >= 1000
    _report(3, "majorizing vector dominates every superset spectrum", ok,
            f"{sweep['supersets']} spectra, "
            f"{len(sweep['major_bad'])} violations")


# --- 4: mixture distribution against closed forms and Monte Carlo ------

def test_criterion_4_distribution_closed_forms_and_monte_carlo():
    worst_closed = 0.0
    for w in (0.7, 1.0, 2.5):
        one = WeightedChiSq([w])
        for t in (0.3, 1.7, 4.2, 9.1):
            worst_closed = max(worst_closed,
                               abs(one.cdf(t) - chi2.cdf(t / w, 1)))
    for w, k in ((0.9, 3), (1.7, 5)):
        many = WeightedChiSq([w] * k)
        for t in (1.0, 4.0, 11.0, 25.0):
            worst_closed = max(worst_closed,
                               abs(many.cdf(t) - chi2.cdf(t / w, k)))

    # two streams: the audited weight vectors stay pinned to one seed, the
    # simulation noise comes from another, so re-seeding the draws can
    # never change which distributions get checked
    rng = np.random.default_rng(4242)
    draw = np.random.default_rng(20260822)
    n_draws = 10**7
    chunk = 10**6
    max_d = 7
    probs = (0.2, 0.5, 0.95)
    worst_round = 0.0
    audited = []
    for _ in range(20):
        d = int(rng.integers(2, max_d + 1))
        w = rng.uniform(0.05, 5.0, size=d)
        dist = WeightedChiSq(w)
        ts = [dist.quantile(p, tol=1e-12) for p in probs]
        for p, t in zip(probs, ts):
            worst_round = max(worst_round, abs(dist.cdf(t) - p))
        audited.append((w, ts))
    # common random numbers: each chunk's squared normals serve every
    # distribution, which reads its leading d columns; every distribution
    # still sees 10^7 independent draws of its own
    counts = np.zeros((len(audited), len(probs)))
    for _ in range(n_draws // chunk):
        z = draw.standard_normal((chunk, max_d))
        z *= z
        for i, (w, ts) in enumerate(audited):
            s = z[:, :w.size] @ w
            for j, t in enumerate(ts):
                counts[i, j] += np.count_nonzero(s <= t)
    worst_se = 0.0
    for j, p in enumerate(probs):
        se = float(np.sqrt(p * (1.0 - p) / n_draws))
        worst_se = max(worst_se,
                       float(np.max(np.abs(counts[:, j] / n_draws - p))) / se)

    ok = worst_closed <= 1e-10 and worst_se <= 3.0 and worst_round <= 1e-10
    _report(4, "mixture cdf matches closed forms and simulation", ok,
            f"closed-form dev {worst_closed:.2e}, "
            f"max Monte Carlo dev {worst_se:.2f} SE, "
            f"round-trip dev {worst_round:.2e}")


# --- 5: family-wise error rate under the global null -------------------

def test_criterion_5_family_wise_error_rate_under_null():
    summary = ctgt.fwer_simulation(n=50, m=20, n_pathways=30,
                                   replicates=1000, effect=0.0,
                                   alpha=ALPHA, seed=123, workers=4)
    # 0.068 is alpha + 2 binomial standard errors at 1000 replicates
    ok = (summary.n_failed == 0 and summary.replicates == 1000
          and summary.fwer_estimate <= 0.068)
    _report(5, "family-wise error rate stays near alpha", ok,
            f"FWER {summary.fwer_estimate:.4f} "
            f"+/- {summary.std_error:.4f}, {summary.n_failed} failed")


# --- 6: decisions only sharpen as the iteration budget grows ------------

def test_criterion_6_budget_sweep_is_monotone():
    budgets = (1, 10, 100, 1000, 10**8)
    inversions = []
    swept = 0
    for i in range(100):
        m = (6, 8, 10)[i % 3]
        effect = (0.0, 0.7, 1.3, 1.9)[i % 4]
        _, _, stats, provider = make_instance(seed=6000 + i, n=25, m=m,
                                              effect=effect,
                                              n_signal=1 + i % 3)
        F = active_universe(stats)
        if len(F) < 2:
            continue
        R = (F[0],)
        swept += 1
        prev = None
        for b in budgets:
            res = iterative_shortcut(stats, provider, R, F, ALPHA,
                                     max_iterations=b)
            if prev is not None and prev != "unsure" and res.decision != prev:
                inversions.append((6000 + i, b, prev, res.decision))
            prev = res.decision
        if prev == "unsure":
            inversions.append((6000 + i, budgets[-1], prev, "unresolved"))
    ok = not inversions and swept >= 80
    _report(6, "larger budgets never revoke a settled decision", ok,
            f"{swept} queries x {len(budgets)} budgets, "
            f"{len(inversions)} inversions")


# --- 7: the conservative bound is audited on a large instance -----------

def test_criterion_7_level_bound_survey_on_wide_instance():
    _, _, stats, provider = make_instance(seed=77, n=77, m=63, effect=0.0)
    records = alpha0_survey(stats, provider, np.random.default_rng(630),
                            n_base_sets=4, n_supersets=500)
    worst = min(r.alpha0 for r in records)
    ok = len(records) == 500 and worst > ALPHA
    _report(7, "level-bound diagnostic clears alpha on 500 supersets", ok,
            f"min alpha0 {worst:.4f}")


# --- 8: optional smoke run on an externally supplied dataset ------------

@pytest.mark.skipif("CTGT_STUDY_DATA" not in os.environ,
                    reason="no external dataset; set CTGT_STUDY_DATA to a "
                           "CSV (binary response in the first column) to "
                           "run the integration smoke test")
def test_criterion_8_external_dataset_smoke():
    path = os.environ["CTGT_STUDY_DATA"]
    table = ctgt.read_table(path)
    data = ctgt.load_dataset(table, table.columns[0])
    null = ctgt.fit_null(data)
    stats = ctgt.feature_stats(data, null)
    provider = ctgt.SpectrumProvider(data, null)
    F = active_universe(stats)
    collection = [(data.feature_names[j], (j,)) for j in F]
    rows = ctgt.analyze_collection(stats, provider, collection, ALPHA)
    again = ctgt.analyze_collection(stats, provider, collection, ALPHA)
    valid = all(r.decision in ("reject", "not_reject", "unsure") for r in rows)
    same = [(r.name, r.decision) for r in rows] == \
        [(r.name, r.decision) for r in again]
    _report(8, "external dataset runs end to end", valid and same,
            f"{len(rows)} singleton sets")


# --- 9: the committed reference instance shows all three endgames -------

def test_criterion_9_reference_instance_patterns():
    table = ctgt.read_table(str(DATA_DIR / "toy100x5.csv"))
    data = ctgt.load_dataset(table, "y")
    null = ctgt.fit_null(data)
    stats = ctgt.feature_stats(data, null)
    provider = ctgt.SpectrumProvider(data, null)
    F = active_universe(stats)
    assert F == (0, 1, 2, 3, 4)

    # rejected outright: the envelope walk stays above the bound
    walk = single_step(stats, provider, (1,), F, ALPHA)
    pattern_a = (walk.decision == "reject" and walk.witness is None
                 and walk.n_cmax_evals >= 1)

    # blocked by an interior staircase set, not by an endpoint
    blocked = single_step(stats, provider, (3,), F, ALPHA)
    pattern_b = (blocked.decision == "not_reject"
                 and blocked.witness == (2, 3, 4)
                 and blocked.witness not in ((3,), F))

    # one pass is inconclusive but a few refinements settle it
    root = single_step(stats, provider, (0,), F, ALPHA)
    refined = iterative_shortcut(stats, provider, (0,), F, ALPHA,
                                 max_iterations=10**8)
    pattern_c = (root.decision == "unsure" and refined.decision == "reject"
                 and 1 < refined.iterations_used <= 4)

    _report(9, "reference instance shows all three endgames",
            pattern_a and pattern_b and pattern_c,
            f"walk evals {walk.n_cmax_evals}, witness {blocked.witness}, "
            f"refinement iterations {refined.iterations_used}")
