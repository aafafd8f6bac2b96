"""Semi-supervised self-organizing map for clustering and classification.

The map grows prototype nodes with per-dimension relevance weights, learns
from labeled and unlabeled patterns alike (switching per pattern between an
attraction/repulsion scheme and plain competitive learning), and classifies
with a labeled-fallback search that can reject uncovered patterns. The
package also ships the evaluation harness: dataset loading, label masking,
repeated k-fold splits, Latin Hypercube parameter sweeps and CSV reporting.
"""

from .data import (DataFormatError, Dataset, NormStats, apply_norm,
                   kfold_split, load_arff, load_csv, mask_labels, normalize)
from .experiments import (DEFAULT_RANGES, FRACTIONS, ParamRange, RunResult,
                          best_per_fold, emit_curve, emit_curve_svg,
                          emit_results, lhs_sample, lhs_unit, mean_std,
                          resolve_sample, run_one, run_sweep, summarize_curve)
from .inference import REJECTED, Prediction, classify, classify_batch, cluster
from .model import (ACTIVATION_EPS, NO_CLASS, HyperParams, MapFullError,
                    SomMap, compute_relevances)
from .persistence import load_model, save_model
from .training import TrainState, TrainStats, train, train_with_state

__version__ = "0.1.0"

# Every name here is listed in README's API section.
__all__ = [
    "ACTIVATION_EPS", "DEFAULT_RANGES", "DataFormatError", "Dataset",
    "FRACTIONS", "HyperParams", "MapFullError", "NO_CLASS", "NormStats",
    "ParamRange", "Prediction", "REJECTED", "RunResult", "SomMap",
    "TrainState", "TrainStats", "apply_norm", "best_per_fold", "classify",
    "classify_batch", "cluster", "compute_relevances", "emit_curve",
    "emit_curve_svg", "emit_results", "kfold_split", "lhs_sample",
    "lhs_unit", "load_arff", "load_csv", "load_model", "mask_labels",
    "mean_std", "normalize", "resolve_sample", "run_one", "run_sweep",
    "save_model", "summarize_curve", "train", "train_with_state",
]
