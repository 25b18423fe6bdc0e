"""Cascade model linking information flow in temporal retweet networks to
follower growth.

For each sliding window and content class, retweets from the preceding n
months form a temporal network. Aligned users able to reach swayable users
seed an SIR process whose final recovered fraction is fixed by the basic
reproduction number; the followers of a uniformly sampled recovered subset
of swayable users, scaled by a global delta, estimate the follower gain of
the aligned group. delta and the per-window reproduction numbers are fitted
against the empirical growth-rate series by rejection on a parameter grid
with a Nelder-Mead outer search on delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import rng as rngmod
from .events import CONTENT_CLASSES, InvalidEvents
from .graph import WeightedDigraph, reachable_set, reverse_reachable_set
from .growth import WINDOW_SECONDS, TimeWindow
from .store import EventColumns, FollowerSnapshots

LOOKBACK_MONTH_SECONDS = WINDOW_SECONDS  # one "month" of history = 30 days
DELTA_BOUNDS = (0.0, 1.0)  # delta scales a follower count, so it is a fraction


def temporal_network(
    columns: EventColumns,
    window: TimeWindow,
    n_months: int,
    content_class: str,
) -> WeightedDigraph:
    """Class network aggregated over the n months preceding the window.

    The window itself is excluded: prediction only ever sees the past.
    """
    if n_months < 1:
        raise ValueError(f"lookback must be >= 1 month, got {n_months}")
    start = window.start - n_months * LOOKBACK_MONTH_SECONDS
    return columns.build_graph(columns.class_time_rows(content_class, start, window.start))


def cascade_populations(
    g: WeightedDigraph,
    aligned_class: np.ndarray,
    aligned_any: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Seed and target populations for the cascade on g, as ascending user ids.

    `aligned_class` and `aligned_any` are masks over `g.users`. Swayable
    nodes are those aligned to no class. V_sw
    collects the swayable nodes reachable from the class-aligned seeds;
    V_a keeps the seeds that reach at least one of them. Either may be empty.
    """
    none = np.zeros(0, dtype=np.int64)
    seeds = aligned_class[g.node_user]
    if not seeds.any():
        return none, none
    v_sw = reachable_set(g, np.flatnonzero(seeds)) & ~aligned_any[g.node_user] & ~seeds
    if not v_sw.any():
        return none, none
    v_a = reverse_reachable_set(g, np.flatnonzero(v_sw)) & seeds
    return g.node_user[v_a], g.node_user[v_sw]


@dataclass(frozen=True)
class CascadeSetup:
    """Pre-window follower counts for one (window, class) cascade."""

    f_a: np.ndarray  # of the seeds V_a, in label order
    f_sw: np.ndarray  # of the swayable pool V_sw, in label order: the sampler's permutation indexes it
    n_fallback: int = 0  # users lacking a pre-window snapshot

    @property
    def n(self) -> int:
        return len(self.f_a) + len(self.f_sw)

    @property
    def s0(self) -> float:
        return len(self.f_sw) / self.n

    @property
    def i0(self) -> float:
        return len(self.f_a) / self.n

    @property
    def sum_f_a(self) -> int:
        return int(self.f_a.sum())

    @property
    def simulable(self) -> bool:
        return len(self.f_a) > 0 and len(self.f_sw) > 0 and self.sum_f_a > 0


def build_cascade_setup(
    g: WeightedDigraph,
    window: TimeWindow,
    aligned_class: np.ndarray,
    aligned_any: np.ndarray,
    snapshots: FollowerSnapshots,
) -> CascadeSetup:
    """Populations on g and their follower counts just before the window, in label order."""
    rank = snapshots.label_rank
    v_a, v_sw = cascade_populations(g, aligned_class, aligned_any)
    f_a, fb_a = snapshots.at(v_a[np.argsort(rank[v_a])], window.start)
    f_sw, fb_sw = snapshots.at(v_sw[np.argsort(rank[v_sw])], window.start)
    return CascadeSetup(f_a, f_sw, int(fb_a.sum() + fb_sw.sum()))


# -- final-size relation -------------------------------------------------------


def _final_size_residual(r: float, s0: float, r0: float) -> float:
    return 1.0 - r - s0 * math.exp(-r * r0)


def _bisect_root(s0: float, r0: float, lo: float, hi: float, tol: float = 1e-13) -> float:
    flo = _final_size_residual(lo, s0, r0)
    fhi = _final_size_residual(hi, s0, r0)
    if flo < 0 or fhi > 0:
        raise ArithmeticError(f"final-size root not bracketed on [{lo}, {hi}] (S0={s0}, R0={r0})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _final_size_residual(mid, s0, r0) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def final_size(s0: float, r0_param: float, max_iter: int = 60) -> float:
    """Eventual recovered fraction solving 1 - R - S0*exp(-R*R0) = 0.

    Newton-Raphson from a start biased away from the degenerate S0 -> 1
    root, with a bisection fallback on [I0, 1] when an iterate escapes
    (0, 1]. The returned root satisfies |residual| < 1e-12.
    """
    if not (0.0 <= s0 <= 1.0):
        raise ValueError(f"S0 must be in [0, 1], got {s0}")
    if r0_param < 0:
        raise ValueError(f"R0 must be non-negative, got {r0_param}")
    i0 = 1.0 - s0
    if r0_param == 0.0:
        return i0  # equation reduces to 1 - R - S0 = 0
    if s0 == 0.0:
        return 1.0
    if s0 == 1.0:
        # Degenerate seeding: only the supercritical branch leaves zero.
        if r0_param <= 1.0:
            return 0.0
        return _bisect_root(s0, r0_param, 1e-9, 1.0)

    r = i0 + 0.5 * s0 * min(r0_param, 1.0)
    for _ in range(max_iter):
        res = _final_size_residual(r, s0, r0_param)
        if abs(res) < 1e-12:
            return r
        slope = -1.0 + s0 * r0_param * math.exp(-r * r0_param)
        if slope == 0.0:
            break
        r = r - res / slope
        if not (0.0 < r <= 1.0):
            break
    else:
        res = _final_size_residual(r, s0, r0_param)
        if abs(res) < 1e-12:
            return r
    root = _bisect_root(s0, r0_param, i0, 1.0)
    if abs(_final_size_residual(root, s0, r0_param)) >= 1e-12:
        raise ArithmeticError(
            f"final-size solve failed to converge for S0={s0}, R0={r0_param}"
        )
    return root


def swayable_recovered_count(n: int, r_inf: float, i0: float) -> int:
    """Recovered swayable head count: round(N*(R_inf - I0)), clamped to the pool.

    Tiny negative differences from numerical error clamp to zero;
    round-half-to-even keeps the count deterministic and unbiased.
    """
    n_aligned = round(n * i0)
    n_swayable = n - n_aligned
    count = round(n * (r_inf - i0))
    return max(0, min(count, n_swayable))


def recovered_follower_sums(
    f_sw: np.ndarray, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Follower sums of uniformly drawn recovered subsets, one per count.

    The first m users of one uniform permutation of the swayable pool form
    a uniform m-subset drawn without replacement, and these subsets nest as
    m grows, so a single permutation and its prefix sums serve every count.
    """
    prefix = np.zeros(len(f_sw) + 1, dtype=np.int64)
    np.cumsum(f_sw[rng.permutation(len(f_sw))], out=prefix[1:])
    return prefix[counts]


def sample_rho(
    setup: CascadeSetup,
    r0_values: Sequence[float],
    runs: int,
    seed: int,
    window_start: int,
    content_class: str,
) -> np.ndarray:
    """Sampled swayable followers over the aligned follower mass, (R0, replicate).

    The final-size relation fixes how many swayable users the cascade
    reaches at each R0; those are drawn uniformly without replacement.
    Replicate `rep` draws one permutation of the pool from the stream keyed
    (seed, window start, rep, class), and its prefix sums serve every R0, so
    fit and simulate see the same draws at the same R0. Times delta, the
    result is the simulated growth rate.
    """
    sum_a = setup.sum_f_a
    if len(setup.f_a) == 0 or sum_a <= 0:
        raise ValueError("cascade setup has no aligned follower mass")
    counts = np.array(
        [swayable_recovered_count(setup.n, final_size(setup.s0, float(r0)), setup.i0) for r0 in r0_values],
        dtype=np.int64,
    )
    rho = np.empty((len(counts), runs), dtype=np.float64)
    for rep in range(runs):
        gen = rngmod.stream(seed, window_start, rep, content_class)
        rho[:, rep] = recovered_follower_sums(setup.f_sw, counts, gen) / sum_a
    return rho


# -- fitting -------------------------------------------------------------------


class NoSimulableWindow(InvalidEvents):
    """Every window was excluded for want of data: a data error, not a runtime failure."""


@dataclass(frozen=True)
class FitConfig:
    """Grid, replication, and acceptance settings for the parameter fit."""

    r0_min: float = 0.0
    r0_max: float = 5.0
    r0_step: float = 0.05
    runs_per_point: int = 100
    tolerance_pct: float = 0.10
    lookback_months: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.r0_step <= 0 or self.r0_max < self.r0_min or self.r0_min < 0:
            raise ValueError("invalid R0 grid")
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be >= 1")
        if not (0.0 < self.tolerance_pct <= 1.0):
            raise ValueError("tolerance_pct must be in (0, 1]")
        if self.lookback_months < 1:
            raise ValueError("lookback_months must be >= 1")

    def r0_grid(self) -> np.ndarray:
        """r0_min in steps of r0_step, never past r0_max; r0_max itself is
        the last point when the span is a whole number of steps."""
        n = math.floor((self.r0_max - self.r0_min) / self.r0_step + 1e-9) + 1
        return np.minimum(self.r0_min + self.r0_step * np.arange(n), self.r0_max)


@dataclass(frozen=True)
class WindowFit:
    window_start: int
    accepted_r0: np.ndarray
    accepted_loss: np.ndarray
    simulated_rates: dict[str, np.ndarray]  # class -> accepted r-hat samples
    n_fallback_snapshots: int = 0  # users whose count predates no observation

    @property
    def r0_mean(self) -> float:
        return float(self.accepted_r0.mean())

    @property
    def r0_std(self) -> float:
        return float(self.accepted_r0.std())


@dataclass(frozen=True)
class FitResult:
    delta: float
    objective: float
    windows: tuple[WindowFit, ...]
    excluded: dict[int, str]  # window start -> reason
    config: FitConfig
    n_objective_evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "objective": self.objective,
            "seed": self.config.seed,
            "tolerance_pct": self.config.tolerance_pct,
            "lookback_months": self.config.lookback_months,
            "r0_grid": [self.config.r0_min, self.config.r0_max, self.config.r0_step],
            "runs_per_point": self.config.runs_per_point,
            "n_objective_evaluations": self.n_objective_evaluations,
            "excluded_windows": {str(k): v for k, v in self.excluded.items()},
            "windows": [
                {
                    "window_start": wf.window_start,
                    "r0_mean": wf.r0_mean,
                    "r0_std": wf.r0_std,
                    "n_accepted": int(len(wf.accepted_r0)),
                    "n_fallback_snapshots": wf.n_fallback_snapshots,
                    "accepted_r0": [float(v) for v in wf.accepted_r0],
                    "accepted_loss": [float(v) for v in wf.accepted_loss],
                    "simulated_rates": {
                        p: {
                            "mean": float(s.mean()),
                            "std": float(s.std()),
                        }
                        for p, s in wf.simulated_rates.items()
                    },
                }
                for wf in self.windows
            ],
        }


@dataclass
class _WindowCache:
    window_start: int
    rho: np.ndarray  # (grid, replicate, class): sampled follower sum / aligned mass
    empirical: np.ndarray  # (class,)


def _precompute_window(
    window_start: int,
    setups: Mapping[str, CascadeSetup],
    empirical: Mapping[str, float],
    grid: np.ndarray,
    runs: int,
    seed: int,
) -> _WindowCache:
    """Sample the replicate follower sums once, per class in `empirical`'s
    order; they do not depend on delta."""
    rho = np.stack([sample_rho(setups[cls], grid, runs, seed, window_start, cls) for cls in empirical], axis=2)
    return _WindowCache(window_start, rho, np.array(list(empirical.values()), dtype=np.float64))


def _window_acceptance(cache: _WindowCache, delta: float, tolerance_pct: float):
    """Deterministic acceptance: lowest-loss pairs, ties broken by (grid index, replicate).

    The flat pair index already has that order, so the accepted set is every
    pair below the k-th loss plus the lowest-index pairs tied with it, and
    only those k pairs are sorted.
    """
    # Loss of every (grid point, replicate) pair, flat index grid * runs + replicate.
    # Class terms added left to right, as a sum over the class axis adds them, a plane at a time.
    q = sum((delta * cache.rho[:, :, c] - e) ** 2 for c, e in enumerate(cache.empirical)).reshape(-1)
    n_accept = math.ceil(tolerance_pct * len(q))
    kth = np.partition(q, n_accept - 1)[n_accept - 1]
    below = np.flatnonzero(q < kth)
    tied = np.flatnonzero(q == kth)[: n_accept - len(below)]
    accepted = np.concatenate((below, tied))
    return q, accepted[np.lexsort((accepted, q[accepted]))]


def _objective(caches: Sequence[_WindowCache], delta: float, tolerance_pct: float) -> float:
    total = 0.0
    for cache in caches:
        q, accepted = _window_acceptance(cache, delta, tolerance_pct)
        total += float(q[accepted].mean())
    return total


def nelder_mead_1d(
    f: Callable[[float], float],
    x0: tuple[float, float],
    bounds: tuple[float, float],
    tol: float = 1e-4,
    max_iter: int = 200,
) -> tuple[float, float, int]:
    """Nelder-Mead on a line: two-point simplex with the standard coefficients
    (reflect 1, expand 2, contract 0.5, shrink 0.5); iterates are projected
    into bounds. Returns (x_best, f_best, n_evaluations)."""
    lo, hi = bounds

    def clamp(x: float) -> float:
        return min(max(x, lo), hi)

    evals = 0

    def fc(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    a, b = clamp(x0[0]), clamp(x0[1])
    if a == b:
        b = clamp(a + max(tol * 10, 1e-3))
    simplex = [(a, fc(a)), (b, fc(b))]
    for _ in range(max_iter):
        simplex.sort(key=lambda t: t[1])
        best, worst = simplex
        if abs(best[0] - worst[0]) < tol:
            break
        centroid = best[0]
        reflected = clamp(centroid + (centroid - worst[0]))
        fr = fc(reflected)
        if fr < best[1]:
            expanded = clamp(centroid + 2.0 * (centroid - worst[0]))
            fe = fc(expanded)
            simplex[1] = (expanded, fe) if fe < fr else (reflected, fr)
        elif fr < worst[1]:
            simplex[1] = (reflected, fr)
        else:
            contracted = clamp(centroid + 0.5 * (worst[0] - centroid))
            fcv = fc(contracted)
            if fcv < worst[1]:
                simplex[1] = (contracted, fcv)
            else:
                shrunk = clamp(best[0] + 0.5 * (worst[0] - best[0]))
                simplex[1] = (shrunk, fc(shrunk))
    simplex.sort(key=lambda t: t[1])
    return simplex[0][0], simplex[0][1], evals


def fit_parameters(
    setups_per_window: Mapping[int, Mapping[str, CascadeSetup]],
    empirical_rates: Mapping[int, Mapping[str, float | None]],
    config: FitConfig,
    threads: int = 1,
) -> FitResult:
    """Fit the global delta and per-window accepted reproduction numbers.

    For every candidate delta, each usable window runs the full R0 grid with
    runs_per_point stochastic replicates, keeps the lowest tolerance_pct
    fraction of (R0, replicate) pairs by loss, and contributes the mean
    accepted loss; Nelder-Mead minimizes the summed objective over delta.
    Windows missing a class setup, follower mass, or an empirical rate are
    excluded and reported; when all are, NoSimulableWindow lists why.
    Deterministic for a fixed seed: replicate draws are addressed by (seed,
    window, replicate, class), shared across the R0 grid, and never depend
    on delta, scheduling, or window order.
    """
    grid = config.r0_grid()
    runs = config.runs_per_point
    excluded: dict[int, str] = {}
    jobs = []
    for w_start in sorted(setups_per_window):
        setups = setups_per_window[w_start]
        rates = empirical_rates.get(w_start, {})
        missing = [p for p in CONTENT_CLASSES if p not in setups or setups[p] is None]
        if missing:
            excluded[w_start] = f"no cascade setup for: {', '.join(missing)}"
            continue
        unsimulable = [p for p in CONTENT_CLASSES if not setups[p].simulable]
        if unsimulable:
            excluded[w_start] = f"empty populations or zero aligned followers for: {', '.join(unsimulable)}"
            continue
        undefined = [p for p in CONTENT_CLASSES if rates.get(p) is None]
        if undefined:
            excluded[w_start] = f"empirical rate undefined for: {', '.join(undefined)}"
            continue
        jobs.append((w_start, setups, {p: float(rates[p]) for p in CONTENT_CLASSES}))
    if not jobs:
        reasons = "; ".join(f"window {start}: {why}" for start, why in excluded.items())
        raise NoSimulableWindow(f"no simulable window: nothing to fit ({reasons})")

    # Imported here, not at the top: only fit runs a pool, and the import
    # would add about 0.6 MB to every stage process.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        caches = list(pool.map(lambda job: _precompute_window(*job, grid, runs, config.seed), jobs))

    lo, hi = DELTA_BOUNDS
    objective = lambda d: _objective(caches, d, config.tolerance_pct)
    # Coarse scan picks the simplex seed; the landscape can have shallow
    # local basins when acceptance sets reshuffle.
    scan = np.linspace(lo, hi, 17)[1:]
    scan_vals = [objective(float(d)) for d in scan]
    best_i = int(np.argmin(scan_vals))
    second = float(scan[max(best_i - 1, 0)]) if best_i > 0 else float(scan[best_i + 1])
    delta_opt, f_opt, evals = nelder_mead_1d(objective, (float(scan[best_i]), second), (lo, hi))
    evals += len(scan)

    window_fits = []
    for (_, setups, _), cache in zip(jobs, caches):
        q, accepted = _window_acceptance(cache, delta_opt, config.tolerance_pct)
        flat_rho = cache.rho.reshape(-1, len(CONTENT_CLASSES))
        window_fits.append(
            WindowFit(
                window_start=cache.window_start,
                accepted_r0=grid[accepted // runs],
                accepted_loss=q[accepted],
                simulated_rates={p: delta_opt * flat_rho[accepted, c] for c, p in enumerate(CONTENT_CLASSES)},
                n_fallback_snapshots=sum(setups[p].n_fallback for p in CONTENT_CLASSES),
            )
        )
    return FitResult(
        delta=float(delta_opt),
        objective=float(f_opt),
        windows=tuple(window_fits),
        excluded=excluded,
        config=config,
        n_objective_evaluations=evals,
    )
