"""Label-permutation-invariant comparison metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["confusion_matrix", "matched_accuracy"]


def confusion_matrix(true_labels, estimated_labels, size: int | None = None):
    """Square confusion count matrix, padded to a common label range."""
    true_labels = np.asarray(true_labels, dtype=int)
    estimated_labels = np.asarray(estimated_labels, dtype=int)
    if true_labels.shape != estimated_labels.shape:
        raise ValueError("label arrays must have equal length")
    if size is None:
        size = int(max(true_labels.max(), estimated_labels.max())) + 1
    conf = np.zeros((size, size), dtype=int)
    both = (true_labels >= 0) & (estimated_labels >= 0)
    np.add.at(conf, (true_labels[both], estimated_labels[both]), 1)
    return conf


def matched_accuracy(true_labels, estimated_labels, size: int | None = None) -> float:
    """Fraction of agreeing labels after the best one-to-one label matching.

    Outlier marks (negative labels) never count as agreement.
    """
    # scipy is imported on first use: it takes longer to import than gpca.
    from scipy.optimize import linear_sum_assignment

    conf = confusion_matrix(true_labels, estimated_labels, size)
    rows, cols = linear_sum_assignment(-conf)
    return float(conf[rows, cols].sum() / len(np.asarray(true_labels)))
