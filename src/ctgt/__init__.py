"""Family-wise error controlled testing of feature sets under a logistic
null model, with a fast single-step shortcut, an exact branch-and-bound
refinement, and a brute-force closed-testing oracle for validation."""

from .bnb import (CollectionRow, IterativeResult, Subspace,
                  analyze_collection, iterative_shortcut)
from .driver import (GlobaltestResult, OracleResult, alpha0_survey,
                     full_closed_test, globaltest)
from .io import (Pathway, PathwayCollection, glog, load_dataset,
                 load_pathways, read_table, render_report, resolve_pathways,
                 write_pathways, write_results)
from .linmodel import (Dataset, FeatureStats, NullModel,
                       NumericalBreakdownError, SeparationWarning,
                       SpectrumProvider, feature_stats, fit_null)
from .shortcut import (ExactTester, SingleStepResult, cmax, crossing_test,
                       curve_table, gmin_curve, level, majorizing_vector,
                       single_step)
from .simulate import (FwerSummary, fwer_simulation, logistic_dataset,
                       random_index_sets)
from .wchi2 import SeriesStallError, WeightedChiSq, alpha0_diagnostic

__version__ = "0.1.0"

__all__ = [
    "CollectionRow", "Dataset", "ExactTester", "FeatureStats",
    "FwerSummary", "GlobaltestResult", "IterativeResult", "NullModel",
    "NumericalBreakdownError", "OracleResult", "Pathway",
    "PathwayCollection", "SeparationWarning", "SeriesStallError",
    "SingleStepResult", "SpectrumProvider", "Subspace", "WeightedChiSq",
    "alpha0_diagnostic", "alpha0_survey", "analyze_collection", "cmax",
    "crossing_test", "curve_table", "feature_stats", "fit_null",
    "full_closed_test", "fwer_simulation", "globaltest", "glog",
    "gmin_curve", "iterative_shortcut", "level", "load_dataset",
    "load_pathways", "logistic_dataset", "majorizing_vector",
    "random_index_sets", "read_table", "render_report", "resolve_pathways",
    "single_step", "write_pathways", "write_results",
]
