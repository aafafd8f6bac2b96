"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same workload seed
gives byte-identical files. The program under test only ever sees the files
or arrays produced here.
"""

from __future__ import annotations

import numpy as np


def c5_patterns(n: int = 300, dim: int = 10, informative: int = 4,
                clusters: int = 3, sigma: float = 0.05,
                seed: int = 404) -> tuple[np.ndarray, np.ndarray]:
    """The c5 synthetic set: clusters in the first ``informative`` dims.

    Same draw order as the test suite's ``make_synthetic``; set-up
    checks the two agree bit for bit, so the sweep workload measures the
    data set the acceptance test uses.
    """
    rng = np.random.default_rng(seed)
    while True:
        centers = rng.uniform(0.15, 0.85, size=(clusters, informative))
        gaps = [np.linalg.norm(a - b) for i, a in enumerate(centers)
                for b in centers[i + 1:]]
        if min(gaps) >= 0.35:
            break
    assign = np.repeat(np.arange(clusters), -(-n // clusters))[:n]
    patterns = rng.uniform(0.0, 1.0, size=(n, dim))
    patterns[:, :informative] = centers[assign] + rng.normal(
        0.0, sigma, size=(n, informative))
    return np.clip(patterns, 0.0, 1.0), assign


def subspace_clusters(rng: np.random.Generator, n: int, dim: int,
                      classes: int, sub: int,
                      sigma: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Projected clusters: class ``c`` is Gaussian on its own ``sub`` dims.

    The remaining dimensions of each pattern are uniform noise, so only a
    relevance-weighted distance separates the classes. Returns patterns,
    balanced labels and the generating model, which ``draw_subspace`` uses
    to draw further patterns from the same classes.
    """
    centers = rng.uniform(0.15, 0.85, size=(classes, dim))
    masks = np.zeros((classes, dim), dtype=bool)
    for c in range(classes):
        masks[c, rng.choice(dim, size=sub, replace=False)] = True
    model = {"centers": centers, "masks": masks, "sigma": sigma}
    labels = rng.permutation(np.arange(n) % classes)
    return draw_subspace(rng, model, labels), labels, model


def draw_subspace(rng: np.random.Generator, model: dict,
                  labels: np.ndarray) -> np.ndarray:
    """Draw one pattern per entry of ``labels`` from ``model``'s classes."""
    centers, masks = model["centers"], model["masks"]
    patterns = rng.uniform(0.0, 1.0, size=(len(labels), centers.shape[1]))
    signal = centers[labels] + rng.normal(0.0, model["sigma"],
                                          size=patterns.shape)
    m = masks[labels]
    patterns[m] = signal[m]
    return np.clip(patterns, 0.0, 1.0)


def class_names(classes: int) -> list[str]:
    return [f"k{c}" for c in range(classes)]


def write_arff(path, patterns: np.ndarray, labels: np.ndarray,
               names: list[str]) -> None:
    """Fully labeled ARFF: numeric ``f<i>`` attributes, nominal ``class``."""
    lines = ["@relation perfbench", ""]
    lines += [f"@attribute f{i} numeric" for i in range(patterns.shape[1])]
    lines += ["@attribute class {" + ",".join(names) + "}", "", "@data"]
    lines += [",".join(repr(float(v)) for v in row) + "," + names[lab]
              for row, lab in zip(patterns, labels)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, patterns: np.ndarray, tags: list[str]) -> None:
    """Headered CSV with a ``class`` column holding one tag per row."""
    header = [f"f{i}" for i in range(patterns.shape[1])] + ["class"]
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) + "," + tag
              for row, tag in zip(patterns, tags)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
