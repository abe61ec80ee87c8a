"""Tests of the benchmark's own parts.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ctgt  # noqa: E402
from independent import Study, imhof_sf, verdict  # noqa: E402
from metrics import tail_percentile  # noqa: E402
from tracing import TARGETS, Tracer, per_layer_metrics  # noqa: E402


@pytest.mark.parametrize("d", [1, 2, 3, 7, 40, 80])
@pytest.mark.parametrize("scale", [0.3, 2.5])
def test_equal_weights_give_a_scaled_chi_square(d, scale):
    for x in (0.05, 0.5, 1.0, 3.0) + tuple(d * f for f in (0.5, 1.0, 2.0, 4.0)):
        p, err = imhof_sf(np.full(d, scale), scale * x)
        assert p == pytest.approx(stats.chi2.sf(x, d), abs=1e-10)
        assert err < 1e-9


@pytest.mark.parametrize("lam", [1e-3, 0.7, 1.0, 250.0])
def test_one_weight_gives_lambda_times_chi_square_one(lam):
    for q in (0.01, 0.3, 1.0, 3.84, 10.0):
        p, _ = imhof_sf([lam], lam * q)
        assert p == pytest.approx(stats.chi2.sf(q, 1), abs=1e-10)


def test_tail_at_or_below_zero_is_one():
    assert imhof_sf([1.0, 2.0], 0.0) == (1.0, 0.0)


def test_independent_p_value_matches_the_program_on_a_study():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 12))
    y = np.repeat([0.0, 1.0], 30)
    data = ctgt.Dataset(y=y, Z=np.ones((60, 1)), X=X,
                        feature_names=[f"f{j}" for j in range(12)],
                        sample_ids=[f"s{i}" for i in range(60)])
    null = ctgt.fit_null(data)
    fstats = ctgt.feature_stats(data, null)
    provider = ctgt.SpectrumProvider(data, null)
    study = Study(X, y)
    for members in [(0,), (1, 4, 7), tuple(range(12))]:
        p, _ = study.p_value(members)
        g = float(fstats.g[list(members)].sum())
        assert p == pytest.approx(1.0 - provider.dist(members).cdf(g),
                                  abs=1e-9)


def test_verdict_leaves_near_alpha_unchecked():
    assert verdict(0.01, 0.0, 0.05) == "reject"
    assert verdict(0.2, 0.0, 0.05) == "not_reject"
    assert verdict(0.05 + 1e-12, 0.0, 0.05) is None
    assert verdict(0.0501, 1e-3, 0.05) is None


@pytest.mark.parametrize("n,expected", [
    (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def _bindings():
    """Every attribute the tracer may replace, with its current value."""
    out = {}
    for module_name, path, *_ in TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(sys.modules[module_name], cls_name)
            out[(id(owner), attr)] = owner.__dict__[attr]
        for key, mod in list(sys.modules.items()):
            if key == "ctgt" or key.startswith("ctgt."):
                if path in vars(mod):
                    out[(key, path)] = vars(mod)[path]
    return out


def test_wrappers_are_removed_when_the_traced_run_ends():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert ctgt.bnb.single_step is ctgt.shortcut.single_step
    assert _bindings() == before
    assert all(_bindings()[k] is before[k] for k in before)


def test_wrappers_are_removed_when_the_traced_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert all(_bindings()[k] is before[k] for k in before)


def test_traced_counts_agree_with_the_program():
    rng = np.random.default_rng(7)
    data = ctgt.logistic_dataset(40, 8, effect=1.5, n_signal=2, rng=rng)
    null = ctgt.fit_null(data)
    fstats = ctgt.feature_stats(data, null)
    provider = ctgt.SpectrumProvider(data, null)
    tracer = Tracer()
    with tracer.installed():
        rows = ctgt.analyze_collection(
            fstats, provider, [("a", (0, 1)), ("b", (2, 3, 4))], 0.05)
    per_layer = per_layer_metrics(tracer.spans, 0, [(0, len(tracer.spans))])
    assert per_layer["bnb.iterations"]["value"] == sum(
        r.iterations_used for r in rows)
    assert per_layer["shortcut.single_steps"]["value"] == sum(
        r.iterations_used for r in rows)
    assert per_layer["linmodel.dist_requests"]["value"] >= 2
    assert 0.0 < per_layer["linmodel.dist_hit_ratio"]["value"] < 1.0
    # one report-only quantile per set, outside the iterative shortcut
    assert per_layer["bnb.report_quantile_s"]["value"] > 0.0
    assert all(s[2] >= s[1] for s in tracer.spans)
