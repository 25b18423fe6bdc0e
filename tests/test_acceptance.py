"""Acceptance gate: every criterion runs on synthetic data at a pinned
tolerance and prints one PASS/FAIL line (visible with pytest -s).
"""

import functools
import hashlib
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate

from oracles import FollowerLog, digraph_of, edge_set, follower_table, label_ids, simulate_growth_rate
from swaynet import rng as rngmod
from swaynet.alignment import classify_all, coverage_curve, involvement_profiles, proportions
from swaynet.backbone import backbone_size_curve, disparity_filter, edge_alpha, null_heterogeneity_moments
from swaynet.cli import run as cli_run
from swaynet.events import CONTENT_CLASSES
from swaynet.growth import sliding_windows, trend_line, window_growth_rate
from swaynet.sir import CascadeSetup, FitConfig, build_cascade_setup, final_size, fit_parameters
from swaynet.synth import SynthConfig, synthesize

DAY = 86_400


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL  {title}")
                raise
            elapsed = time.perf_counter() - started
            print(f"ACCEPTANCE {number:02d} PASS  {title} ({elapsed:.1f}s)")

        return wrapper

    return decorate


# -- 1: disparity filter vs brute force -------------------------------------------


def brute_filter(edges, level):
    out_w, in_w = {}, {}
    for s, d, w in edges:
        out_w.setdefault(s, []).append(w)
        in_w.setdefault(d, []).append(w)
    kept = set()
    for s, d, w in edges:
        k_out, k_in = len(out_w[s]), len(in_w[d])
        a_out = 1.0 if k_out == 1 else (1.0 - w / sum(out_w[s])) ** (k_out - 1)
        a_in = 1.0 if k_in == 1 else (1.0 - w / sum(in_w[d])) ** (k_in - 1)
        if min(a_out, a_in) < level:
            kept.add((s, d))
    return kept


@criterion(1, "disparity filter matches per-edge closed-form oracle on 200 random graphs")
def test_c01_disparity_oracle_equivalence():
    started = time.perf_counter()
    levels = (0.01, 0.05, 0.1, 0.37, 0.5)
    for graph_idx in range(200):
        gen = rngmod.stream(1000, "oracle-graphs", graph_idx)
        n = int(gen.integers(2, 51))
        density = float(gen.uniform(0.03, 0.35))
        mask = gen.random((n, n)) < density
        weights = gen.integers(1, 101, size=(n, n))
        edges = [(f"n{s}", f"n{d}", int(weights[s, d])) for s in range(n) for d in range(n) if mask[s, d]]
        if not edges:
            edges = [("n0", "n1", int(weights[0, 1 % n]))]
        g = digraph_of(edges)
        for level in levels:
            assert edge_set(disparity_filter(g, level)) == brute_filter(edges, level), (graph_idx, level)
    assert time.perf_counter() - started < 10.0


# -- 2: the 1/e cutoff on a uniform k-regular fixture ------------------------------


@criterion(2, "uniform 20-regular fixture shows the 1/e size-curve cutoff exactly")
def test_c02_cutoff_behavior():
    k = 20
    n = 3 * k
    edges = [(f"n{i}", f"n{(i + s) % n}", 7) for i in range(n) for s in range(1, k + 1)]
    g = digraph_of(edges)
    alpha_all = (1 - 1 / k) ** (k - 1)
    assert alpha_all == pytest.approx(0.3773536, abs=1e-6)
    grid = [0.01, 0.1, 0.2, 0.3, 0.36, 0.378, 0.4, 1 / math.e + 0.02]
    curve = {p.alpha: p.edge_fraction for p in backbone_size_curve(g, sorted(grid))}
    for level in (0.01, 0.1, 0.2, 0.3, 0.36):
        assert curve[level] == 0.0
    for level in (0.378, 0.4, 1 / math.e + 0.02):
        assert curve[level] == 1.0


# -- 3: closed form vs quadrature ---------------------------------------------------


@criterion(3, "closed-form alpha within 1e-10 of quadrature over k in 2..100, p in 0.01..0.99")
def test_c03_closed_form_vs_quadrature():
    started = time.perf_counter()
    worst = 0.0
    for k in range(2, 101):
        for p in np.arange(0.01, 0.995, 0.01):
            p = float(p)
            integral, _ = integrate.quad(lambda x: (k - 1) * (1 - x) ** (k - 2), 0.0, p)
            worst = max(worst, abs(edge_alpha(p, k) - (1.0 - integral)))
    assert worst < 1e-10
    assert time.perf_counter() - started < 5.0


# -- 4: null heterogeneity moments vs Monte Carlo ----------------------------------


@criterion(4, "null heterogeneity moments within 3 MC standard errors (1e6 samples)")
def test_c04_null_moments_monte_carlo():
    started = time.perf_counter()
    n_samples = 1_000_000
    chunk = 50_000
    for k in (2, 3, 5, 10, 50):
        gen = rngmod.stream(4000, "stickbreak", k)
        total = np.empty(n_samples)
        pos = 0
        while pos < n_samples:
            m = min(chunk, n_samples - pos)
            cuts = np.sort(gen.random((m, k - 1)), axis=1)
            bounds = np.hstack([np.zeros((m, 1)), cuts, np.ones((m, 1))])
            parts = np.diff(bounds, axis=1)
            total[pos : pos + m] = k * np.sum(parts * parts, axis=1)
            pos += m
        mu, var = null_heterogeneity_moments(k)
        se_mean = total.std(ddof=1) / math.sqrt(n_samples)
        sample_var = total.var(ddof=1)
        m4 = float(np.mean((total - total.mean()) ** 4))
        se_var = math.sqrt(max(m4 - sample_var**2, 0.0) / n_samples)
        assert abs(total.mean() - mu) < 3 * se_mean, k
        assert abs(sample_var - var) < 3 * se_var, k
    assert time.perf_counter() - started < 60.0


# -- 5: final-size solver -----------------------------------------------------------


def bisect_oracle(s0, r0, iters=120):
    def f(r):
        return 1.0 - r - s0 * math.exp(-r * r0)

    lo, hi = 1e-9, 1.0
    if f(lo) < 0:
        return 1.0 - s0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@criterion(5, "final-size Newton-Raphson within 1e-8 of bisection; exact and classic points")
def test_c05_final_size_solver():
    started = time.perf_counter()
    s0_grid = [round(float(v), 2) for v in np.arange(0.10, 0.951, 0.05)] + [0.99]
    for s0 in s0_grid:
        assert final_size(s0, 0.0) == 1.0 - s0  # exact reduction at R0 = 0
        for r0 in np.arange(0.0, 5.001, 0.25):
            assert abs(final_size(s0, float(r0)) - bisect_oracle(s0, float(r0))) < 1e-8, (s0, r0)
    assert final_size(1 - 1e-12, 2.0) == pytest.approx(0.7968, abs=5e-4)
    assert time.perf_counter() - started < 5.0


# -- 6: fit self-consistency --------------------------------------------------------


@criterion(6, "fit recovers planted delta within 15% and tracks the R0 sawtooth in >= 10/12 windows")
def test_c06_fit_self_consistency():
    started = time.perf_counter()
    seed = 2030
    delta_star = 0.05
    sawtooth = (0.6, 1.15, 1.7, 2.25, 2.8, 5.0)
    r0_star = [sawtooth[w % 6] for w in range(12)]
    gen = rngmod.stream(seed, "populations")
    setups, empirical = {}, {}
    for w in range(12):
        start = 60 * DAY + w * 15 * DAY
        per_class, rates = {}, {}
        for ci, cls in enumerate(CONTENT_CLASSES):
            n_a = 50 + int(gen.integers(-5, 6))
            n_sw = 500 + 25 * ci + int(gen.integers(-20, 21))
            setup = CascadeSetup(
                f_a=np.asarray(gen.integers(100, 400, n_a), dtype=np.int64),
                f_sw=np.asarray(gen.integers(100, 400, n_sw), dtype=np.int64),
            )
            per_class[cls] = setup
            rates[cls] = simulate_growth_rate(setup, r0_star[w], delta_star, rngmod.stream(seed, "emp", w, cls))
        setups[start] = per_class
        empirical[start] = rates
    config = FitConfig(runs_per_point=100, tolerance_pct=0.10, seed=seed)
    result = fit_parameters(setups, empirical, config)
    assert not result.excluded
    assert abs(result.delta - delta_star) / delta_star < 0.15, result.delta
    hits = 0
    starts = sorted(setups)
    by_start = {wf.window_start: wf for wf in result.windows}
    for w, start in enumerate(starts):
        wf = by_start[start]
        if abs(wf.r0_mean - r0_star[w]) <= config.r0_step + 2 * wf.r0_std:
            hits += 1
    assert hits >= 10, hits
    assert time.perf_counter() - started < 900.0


# -- 7: growth-rate ordering reproduction -------------------------------------------


@criterion(7, "fitted simulation reproduces the planted factual/misleading ordering in >= 90% of windows")
def test_c07_growth_ordering_reproduction():
    seed = 7
    n_windows, n_seg = 14, 15
    fac_windows = {2, 3, 4, 5}  # evaluated windows 2..13: 4 factual-heavy, 8 reversed
    rates = {"factual": [], "misleading": [], "uncertain": []}
    for w in range(n_windows):
        fac_heavy = w in fac_windows or w < 2
        rates["factual"].append(0.09 if fac_heavy else 0.01)
        rates["misleading"].append(0.02 if fac_heavy else 0.08)
        rates["uncertain"].append(0.04)
    reach = {"factual": [], "misleading": [], "uncertain": []}
    for s in range(n_seg):
        fac_seg = (s + 2) in fac_windows or (s + 2) < 2
        reach["factual"].append(0.9 if fac_seg else 0.25)
        reach["misleading"].append(0.25 if fac_seg else 0.9)
        reach["uncertain"].append(1.0)
    config = SynthConfig(
        start=0,
        end=225 * DAY,
        aligned_users={"factual": 40, "misleading": 40, "uncertain": 40},
        swayable_users=600,
        events_per_class={cls: 30_000 for cls in CONTENT_CLASSES},
        planted_rates={cls: tuple(v) for cls, v in rates.items()},
        swayable_reach={cls: tuple(v) for cls, v in reach.items()},
    )
    columns = synthesize(config, seed).columns()
    involvement = involvement_profiles(columns.src, columns.dst, columns.content_class_idx, len(columns.users))
    labels = classify_all(involvement, 0.95)
    table = columns.follower_logs()
    setups, empirical, planted_sign = {}, {}, {}
    for i, window in enumerate(sliding_windows(0, 225 * DAY)):
        if window.partial or window.start < 30 * DAY:
            continue
        empirical[window.start] = {
            cls: window_growth_rate(table, np.flatnonzero(labels == c), window, cls).rate
            for c, cls in enumerate(CONTENT_CLASSES)
        }
        setups[window.start] = {
            cls: build_cascade_setup(
                columns.build_graph(columns.event_mask((window.start - 30 * DAY, window.start), cls)),
                window,
                labels == c,
                labels >= 0,
                table,
            )
            for c, cls in enumerate(CONTENT_CLASSES)
        }
        planted_sign[window.start] = 1 if i in fac_windows else -1
    result = fit_parameters(setups, empirical, FitConfig(runs_per_point=100, tolerance_pct=0.10, seed=seed))
    assert len(result.windows) == 12
    hits = 0
    for wf in result.windows:
        diff = wf.simulated_rates["factual"].mean() - wf.simulated_rates["misleading"].mean()
        hits += int(np.sign(diff) == planted_sign[wf.window_start])
    assert hits >= math.ceil(0.9 * len(result.windows)), hits


# -- 8: windowing fixtures -----------------------------------------------------------


@criterion(8, "hand-computed growth fixture exact; trend line matches independent reference to 1e-6")
def test_c08_windowing_fixtures():
    logs = follower_table({
        "u1": FollowerLog("u1", ((1 * DAY, 100), (29 * DAY, 110))),
        "u2": FollowerLog("u2", ((2 * DAY, 900), (28 * DAY, 890))),
        "u3": FollowerLog("u3", ((16 * DAY, 50), (44 * DAY, 60))),
    })
    aligned = {"u1", "u2", "u3"}
    windows = sliding_windows(0, 45 * DAY)
    assert [(w.start, w.end) for w in windows[:2]] == [(0, 30 * DAY), (15 * DAY, 45 * DAY)]
    aligned = label_ids(logs.users, aligned)
    first = window_growth_rate(logs, aligned, windows[0])
    # u3 has one in-window observation: inactive. 1000 -> 1000 exactly.
    assert (first.n_active, first.f_first, first.f_last, first.rate) == (2, 1000, 1000, 0.0)
    second = window_growth_rate(logs, aligned, windows[1])
    # only u3 is active twice inside [15d, 45d).
    assert (second.n_active, second.f_first, second.f_last) == (1, 50, 60)
    assert second.rate == (60 - 50) / 50

    x = np.arange(40, dtype=float)
    series = np.sin(x / 4.0) + 0.05 * x
    got = trend_line(series)
    # Independent reference: truncated symmetric boxcar + degree-10 polyfit
    # on manually rescaled abscissae.
    smooth = np.empty(40)
    for i in range(40):
        r = min(2, i, 39 - i)
        smooth[i] = series[i - r : i + r + 1].mean()
    xs = 2 * x / 39.0 - 1.0
    reference = np.polyval(np.polyfit(xs, smooth, 10), xs)
    assert got.polynomial_applied
    assert np.max(np.abs(np.asarray(got.values) - reference)) < 1e-6


# -- 9: alignment monotonicity and coverage -------------------------------------------


@criterion(9, "aligned sets nest in theta; coverage matches brute-force recount; 19/20 at 0.95 unaligned")
def test_c09_alignment_monotonicity_and_coverage():
    gen = rngmod.stream(9000, "profiles")
    rows = np.array([gen.multinomial(int(gen.integers(1, 60)), [0.55, 0.3, 0.15]) for _ in range(400)], dtype=np.int64)
    previous = None
    for theta in (0.5, 0.55, 0.65, 0.75, 0.85, 0.95):
        aligned = set(np.flatnonzero(classify_all(rows, theta) >= 0).tolist())
        if previous is not None:
            assert aligned <= previous
        previous = aligned

    # One factual event per unit of weight on a -> b (4), b -> c (2), c -> d (1), e -> a (3).
    users = ["a", "b", "c", "d", "e"]
    edges = [("a", "b", 4), ("b", "c", 2), ("c", "d", 1), ("e", "a", 3)]
    src = np.repeat([users.index(s) for s, _, _ in edges], [w for *_, w in edges])
    dst = np.repeat([users.index(d) for _, d, _ in edges], [w for *_, w in edges])
    fixture = np.array([[9, 0, 1], [6, 4, 0], [1, 0, 9], [5, 5, 0], [10, 0, 0]], dtype=np.int64)
    grid = [0.5, 0.55, 0.8, 0.85, 0.9]
    curve = coverage_curve(proportions(fixture)[:, 0], src, dst, grid)
    total = sum(w for _, _, w in edges)
    for theta, fraction in curve:
        aligned = {u for u, row in zip(users, fixture.tolist()) if row[0] / sum(row) > theta}
        covered = sum(w for s, d, w in edges if s in aligned or d in aligned)
        assert fraction == covered / total  # exact: same integer arithmetic

    borderline = np.array([[19, 0, 1]], dtype=np.int64)
    assert classify_all(borderline, 0.95).tolist() == [-1]


# -- 10: determinism and scale --------------------------------------------------------


def _run_scale_pipeline(out_dir: str, seed: int, threads: int) -> float:
    stages = [
        [
            "synth", "--out", out_dir, "--seed", str(seed), "--threads", str(threads),
            "--range-start", "0", "--range-end", str(360 * DAY),
            "--synth-aligned-factual", "2000", "--synth-aligned-misleading", "2000",
            "--synth-aligned-uncertain", "2000", "--synth-swayable", "20000",
            "--synth-events-factual", "334000", "--synth-events-misleading", "333000",
            "--synth-events-uncertain", "333000",
        ],
        ["backbone", "--out", out_dir, "--alpha", "0.05", "--seed", str(seed), "--threads", str(threads)],
        ["align", "--out", out_dir, "--theta", "0.95", "--seed", str(seed), "--threads", str(threads)],
        ["growth", "--out", out_dir, "--seed", str(seed), "--threads", str(threads)],
        ["report", "--out", out_dir, "--seed", str(seed), "--threads", str(threads)],
    ]
    started = time.perf_counter()
    for argv in stages:
        assert cli_run(argv) == 0, argv[0]
    return time.perf_counter() - started


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def scale_trees(tmp_path_factory):
    """The 1M-event artifact trees of one seed at threads 1 and 4, with build times."""
    root = tmp_path_factory.mktemp("scale")
    first = str(root / "one")
    second = str(root / "two")
    elapsed_one = _run_scale_pipeline(first, seed=17, threads=1)
    elapsed_two = _run_scale_pipeline(second, seed=17, threads=4)
    return ((first, 1, elapsed_one), (second, 4, elapsed_two))


@criterion(10, "1M-event pipeline (excl. fit) under 60s and byte-identical across runs and thread counts")
def test_c10_determinism_and_scale(scale_trees):
    (first, _, elapsed_one), (second, _, elapsed_two) = scale_trees
    assert elapsed_one < 60.0, elapsed_one
    assert elapsed_two < 60.0, elapsed_two
    assert _tree_digest(first) == _tree_digest(second)


# -- 11: fit determinism and scale ------------------------------------------------------


@criterion(11, "fit --runs 10 on the 1M-event trees under 20s each and fit.json byte-identical across thread counts")
def test_c11_fit_determinism_and_scale(scale_trees):
    fit_docs = []
    for out_dir, threads, _ in scale_trees:
        started = time.perf_counter()
        argv = ["fit", "--out", out_dir, "--runs", "10", "--seed", "17", "--threads", str(threads)]
        assert cli_run(argv) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 20.0, (threads, elapsed)
        with open(os.path.join(out_dir, "fit.json"), "rb") as fh:
            fit_docs.append(fh.read())
    assert fit_docs[0] == fit_docs[1]
