"""Measure the family-wise error rate by brute force.

Replays the whole pipeline on hundreds of fresh null datasets, each
screened against its own random pathway collection, and counts how often
anything at all gets falsely rejected.  Then repeats with a real signal
planted to show the procedure still finds it.  Small replicate counts
keep this demo quick; the acceptance suite runs the full-size version.

Run:  python3 demos/error_rate_check.py
"""

import ctgt

# worker processes re-import this file, so the run stays under the guard
if __name__ == "__main__":
    print("null case: no feature is associated with the outcome")
    null_run = ctgt.fwer_simulation(n=40, m=12, n_pathways=15, replicates=200,
                                    effect=0.0, alpha=0.05, seed=99, workers=4)
    print(f"  {null_run}")
    print(f"  {null_run.total_null_rejections} false rejections across "
          f"{null_run.total_null_sets} true-null sets\n")

    print("signal case: two features carry effect 1.5")
    alt_run = ctgt.fwer_simulation(n=40, m=12, n_pathways=15, replicates=200,
                                   effect=1.5, n_signal=2, alpha=0.05,
                                   seed=100, workers=4)
    print(f"  {alt_run}")
    print(f"  {alt_run.avg_true_rejections:.2f} signal-bearing sets rejected "
          "per replicate on average")

    # error control should hold regardless of the signal elsewhere
    assert null_run.fwer_estimate <= 0.05 + 3 * max(null_run.std_error, 0.01)
    print("\nerror rate compatible with alpha = 0.05")
