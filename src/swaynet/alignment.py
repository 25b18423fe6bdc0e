"""Per-user content-class involvement and highly-aligned user classification.

Involvement is an integer matrix over the user table, one column per
content class: the retweets of that class a user gives plus those they
receive. A user is highly aligned with a class when its share of their
total involvement strictly exceeds the threshold theta; with theta >= 0.5
at most one class can qualify.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .events import CONTENT_CLASSES

UNALIGNED = "unaligned"


def involvement_profiles(src: np.ndarray, dst: np.ndarray, cls_idx: np.ndarray, n_users: int) -> np.ndarray:
    """(n_users, n_classes) int64 counts: counts[u, c] is the number of class-c
    events with u as src plus the number with u as dst, so a self-loop
    counts twice, as in-strength plus out-strength of a class graph does."""
    n_classes = len(CONTENT_CLASSES)
    if len(cls_idx) and not (0 <= cls_idx.min() and cls_idx.max() < n_classes):
        raise ValueError(f"class indices must be in [0, {n_classes})")
    size = n_users * n_classes
    counts = np.bincount(src * n_classes + cls_idx, minlength=size) + np.bincount(dst * n_classes + cls_idx, minlength=size)
    return counts.astype(np.int64).reshape(n_users, n_classes)


def proportions(counts: np.ndarray) -> np.ndarray:
    """Each row's class shares, count / total; rows with no involvement are 0."""
    total = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, total, out=np.zeros(counts.shape), where=total > 0)


def classify_all(counts: np.ndarray, theta: float, min_involvement: int = 0) -> np.ndarray:
    """The index of the class holding > theta of each row's involvement, or -1
    (unaligned). Rows with no involvement or below min_involvement (off by
    default) are unaligned."""
    if not (0.5 <= theta < 1.0):
        raise ValueError(f"theta must be in [0.5, 1), got {theta}")
    above = proportions(counts) > theta
    labels = np.where(above.any(axis=1), above.argmax(axis=1), -1)
    labels[counts.sum(axis=1) < min_involvement] = -1
    return labels


def coverage_curve(
    props: np.ndarray, src: np.ndarray, dst: np.ndarray, theta_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Fraction of a class's retweets (src[k] -> dst[k]) involving users aligned to it.

    `props` holds each user's share of involvement in that class. A retweet
    involves an aligned user when either endpoint's share exceeds theta.
    Non-increasing in theta.
    """
    grid = list(theta_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("theta_grid must be sorted ascending")
    if len(src) == 0:
        raise ValueError("no retweets of the class")
    level = np.maximum(props[src], props[dst])  # covered at theta iff level > theta
    curve = []
    for theta in grid:
        if not (0.5 <= theta < 1.0):
            raise ValueError(f"theta must be in [0.5, 1), got {theta}")
        curve.append((float(theta), int(np.count_nonzero(level > theta)) / len(level)))
    return curve


def ternary_histogram(counts: np.ndarray, bins_per_side: int) -> dict[tuple[int, int], int]:
    """Bin rows on the (factual, misleading, uncertain) proportion simplex.

    Cell (i, j) covers factual share in [i/B, (i+1)/B) and misleading share
    in [j/B, (j+1)/B); a row past the far edge i + j = B - 1 gives up
    misleading bins first, then factual ones, so counts always sum to the
    number of rows. Every row needs some involvement.
    """
    if bins_per_side < 1:
        raise ValueError(f"bins_per_side must be >= 1, got {bins_per_side}")
    b = bins_per_side
    total = counts.sum(axis=1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("every row needs some involvement")
    share = counts[:, :2] / total
    i, j = np.minimum((share * b).astype(np.int64), b - 1).T
    excess = np.maximum(i + j - (b - 1), 0)
    from_j = np.minimum(excess, j)
    cells, n = np.unique((i - (excess - from_j)) * b + (j - from_j), return_counts=True)
    return {(int(c // b), int(c % b)): int(k) for c, k in zip(cells, n)}
