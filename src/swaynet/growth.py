"""Windowed follower-growth measurement and trend smoothing.

Windows are 30 days long and slide by 15 days. Within a window, a user is
active when their follower count was logged at least twice; the campaign
growth rate compares the aggregated first and last in-window counts of
active aligned users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .store import FollowerSnapshots

SECONDS_PER_DAY = 86_400
WINDOW_SECONDS = 30 * SECONDS_PER_DAY
STEP_SECONDS = 15 * SECONDS_PER_DAY


@dataclass(frozen=True)
class TimeWindow:
    start: int
    end: int
    partial: bool = False

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class GrowthPoint:
    """Empirical follower increase rate for one (window, class) pair.

    rate is None when no aligned user was active or the baseline count was
    zero; gaps are explicit rather than fabricated zeros.
    """

    window: TimeWindow
    content_class: str | None
    rate: float | None
    n_active: int
    f_first: int
    f_last: int


def sliding_windows(
    start: int,
    end: int,
    window_seconds: int = WINDOW_SECONDS,
    step_seconds: int = STEP_SECONDS,
) -> list[TimeWindow]:
    """30-day windows every 15 days across [start, end).

    A trailing truncated window is emitted (flagged partial) only when the
    tail is not already covered by the last full window.
    """
    if step_seconds <= 0 or window_seconds <= 0:
        raise ValueError("window and step must be positive")
    if step_seconds > window_seconds:
        raise ValueError("window step exceeds length")
    if end - start < window_seconds:
        raise ValueError("time range shorter than one window")
    windows: list[TimeWindow] = []
    t = start
    while t + window_seconds <= end:
        windows.append(TimeWindow(t, t + window_seconds))
        t += step_seconds
    if windows[-1].end < end:
        windows.append(TimeWindow(t, end, partial=True))
    return windows


def window_growth_rate(
    table: FollowerSnapshots,
    aligned: np.ndarray,
    window: TimeWindow,
    content_class: str | None = None,
    min_obs: int = 2,
) -> GrowthPoint:
    """Aggregate first/last in-window counts of active aligned users (ids into the table's users).

    rate = (F_last - F_first) / F_first; undefined points come back with
    rate None instead of raising. `min_obs` must be at least 1: an active
    user needs an in-window first and last count.
    """
    if min_obs < 1:
        raise ValueError(f"min_obs must be at least 1, got {min_obs}")
    lo = table.first_at_or_after(aligned, window.start)
    hi = table.first_at_or_after(aligned, window.end)
    active = hi - lo >= min_obs
    n_active = int(active.sum())
    f_first = int(table.count[lo[active]].sum())
    f_last = int(table.count[hi[active] - 1].sum())
    if n_active == 0 or f_first == 0:
        return GrowthPoint(window, content_class, None, n_active, f_first, f_last)
    return GrowthPoint(window, content_class, (f_last - f_first) / f_first, n_active, f_first, f_last)


@dataclass(frozen=True)
class TrendLine:
    values: tuple[float, ...]
    polynomial_applied: bool  # False when the series was too short for the fit


def _boxcar5(y: np.ndarray) -> np.ndarray:
    # Centered 5-point average; the radius shrinks symmetrically at the ends
    # so constants and straight lines pass through unchanged.
    n = len(y)
    out = np.empty(n)
    for i in range(n):
        r = min(2, i, n - 1 - i)
        out[i] = y[i - r : i + r + 1].mean()
    return out


def trend_line(series: Sequence[float], degree: int = 10) -> TrendLine:
    """5-point boxcar smoothing followed by a degree-10 polynomial fit.

    The polynomial stage least-squares fits the smoothed series on abscissae
    rescaled to [-1, 1] (raw index Vandermonde systems at degree 10 are too
    ill-conditioned) and returns its values at the input positions. Series
    shorter than degree + 1 skip the polynomial stage and are flagged.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1 or len(y) == 0:
        raise ValueError("series must be a non-empty 1-d sequence")
    smooth = _boxcar5(y)
    if len(y) < degree + 1:
        return TrendLine(tuple(float(v) for v in smooth), False)
    x = np.arange(len(y), dtype=np.float64)
    poly = np.polynomial.Polynomial.fit(x, smooth, deg=degree)
    return TrendLine(tuple(float(v) for v in poly(x)), True)
