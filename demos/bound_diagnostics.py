"""Inspect the machinery behind a decision.

Two diagnostics.  First, the two curves a decision is read from: the
statistic envelope (lowest superset statistic at each level) and the
conservative critical-value bound; where the envelope sits above the
bound, every superset at that level is rejected at sight.  Second, the
level-bound audit: for random set/superset pairs, the smallest alpha at
which the conservative bound could stop covering the exact critical
value.  A survey minimum well above the working alpha says the bound is
safe for sets like these.

Run:  python3 demos/bound_diagnostics.py
"""

import numpy as np

import ctgt

rng = np.random.default_rng(5)
data = ctgt.logistic_dataset(n=50, m=10, effect=0.9, n_signal=2, rng=rng)
null = ctgt.fit_null(data)
stats = ctgt.feature_stats(data, null)
provider = ctgt.SpectrumProvider(data, null)
F = stats.active_indices
R = (0,)

rows = ctgt.curve_table(stats, provider, R, F, alpha=0.05, samples=9)
print("level      envelope   bound      margin")
for row in rows:
    if row["kind"] != "grid":
        continue
    margin = row["g_min"] - row["c_max"]
    flag = "reject here" if margin >= 0 else ""
    print(f"{row['level']:8.3f} {row['g_min']:10.3f} {row['c_max']:10.3f} "
          f"{margin:10.3f}  {flag}")

print("\nexact staircase sets along the envelope:")
for row in rows:
    if row["kind"] != "exact":
        continue
    print(f"  {row['members']}: statistic {row['statistic']:.3f} "
          f"vs critical {row['critical_value']:.3f}")

records = ctgt.alpha0_survey(stats, provider, np.random.default_rng(50),
                             n_base_sets=3, n_supersets=60)
levels = sorted(r.alpha0 for r in records)
print(f"\nlevel-bound audit over {len(records)} random supersets:")
print(f"  min {levels[0]:.3f}, median {levels[len(levels) // 2]:.3f}, "
      f"max {levels[-1]:.3f}")
print("  the bound is conservative at alpha 0.05 for every audited pair"
      if levels[0] > 0.05 else
      "  warning: some audited pair is unsafe at alpha 0.05")
