"""Statistics tests with closed-form oracles and scipy cross-checks.

The ANOVA and Kendall implementations are first-principles; scipy's
f_oneway / kendalltau act as independent oracles here. Holm is checked
against a brute-force reference implementation.
"""

import itertools
import math
from collections import Counter
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

from dropevo.cli import EXIT_DATA, main
from dropevo.stats import (
    StatsError,
    anova_oneway,
    bands_csv,
    holm_bonferroni,
    kendall_tau,
    report_json,
    top_half,
    trajectory_report,
)


# ---------------------------------------------------------------- top half


def test_top_half_strict():
    assert top_half([1, 2, 3, 4]) == [3, 4]
    assert top_half([1, 2, 3]) == [3]


def test_top_half_heavy_ties():
    assert top_half([1, 1, 1, 5]) == [5]


def test_top_half_all_tied_is_degenerate():
    assert top_half([2, 2, 2, 2]) == []


def test_top_half_too_few():
    with pytest.raises(StatsError, match=r"^need at least 2 values$"):
        top_half([1])


# ------------------------------------------------------------------ ANOVA


def test_anova_textbook_value():
    F, p = anova_oneway([[1, 2, 3], [4, 5, 6]])
    assert F == pytest.approx(13.5)
    assert p == pytest.approx(float(scipy.stats.f.sf(13.5, 1, 4)))


def test_anova_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        groups = [rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(3, 12))
                  for _ in range(rng.integers(2, 5))]
        F, p = anova_oneway(groups)
        ref = scipy.stats.f_oneway(*groups)
        assert F == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-10)


def test_p_values_equal_scipy_stats_distributions():
    # stats takes its reference distributions from scipy.special; they must
    # give the very bits scipy.stats' f.sf and norm.sf give.
    rng = np.random.default_rng(2)
    for _ in range(300):
        groups = [rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.1, 3),
                             size=rng.integers(2, 40))
                  for _ in range(rng.integers(2, 8))]
        F, p = anova_oneway(groups)
        df_within = sum(map(len, groups)) - len(groups)
        assert p == float(scipy.stats.f.sf(F, len(groups) - 1, df_within))
    for _ in range(300):
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.normal(size=n) + rng.uniform(-1, 1) * x
        if len(set(x)) == 1:
            continue
        _, z, p = kendall_tau(x, y)
        assert p == float(2.0 * scipy.stats.norm.sf(abs(z)))


def test_importing_the_cli_skips_scipy_stats():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dropevo.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_anova_degenerate_cases():
    # All values identical everywhere: F defined as 0, p = 1.
    assert anova_oneway([[2, 2], [2, 2]]) == (0.0, 1.0)
    # Within-group variance zero but means differ: F is infinite.
    with pytest.raises(StatsError, match=r"^zero within-group variance \(F = inf\)$"):
        anova_oneway([[1, 1], [2, 2]])
    with pytest.raises(StatsError):
        anova_oneway([[1, 2]])
    with pytest.raises(StatsError):
        anova_oneway([[1], [1, 2]])


# ---------------------------------------------------------------- Kendall


def test_kendall_known_value():
    # x = 1..4 vs y = (1,2,4,3): C=5, D=1, tau = 4/6 = 2/3.
    tau, z, p = kendall_tau([1, 2, 3, 4], [1, 2, 4, 3])
    assert tau == pytest.approx(2 / 3)
    # No ties: var = n(n-1)(2n+5)/18 = 4*3*13/18.
    z_ref = 4 / math.sqrt(4 * 3 * 13 / 18)
    assert z == pytest.approx(z_ref)
    assert p == pytest.approx(2 * scipy.stats.norm.sf(z_ref))


def test_kendall_perfect_orderings():
    tau, _, _ = kendall_tau([1, 2, 3], [10, 20, 30])
    assert tau == pytest.approx(1.0)
    tau, _, _ = kendall_tau([1, 2, 3], [30, 20, 10])
    assert tau == pytest.approx(-1.0)


def test_kendall_matches_scipy_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 6, size=n).astype(float)
        y = x + rng.integers(-2, 3, size=n)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        tau, z, p = kendall_tau(x, y)
        ref = scipy.stats.kendalltau(x, y)
        assert tau == pytest.approx(ref.statistic, rel=1e-10)
        ref_z = scipy.stats.norm.isf(ref.pvalue / 2) * np.sign(tau)
        assert z == pytest.approx(ref_z, rel=1e-6)
        assert p == pytest.approx(ref.pvalue, rel=1e-6)


def test_kendall_errors():
    with pytest.raises(StatsError, match=r"^a variable is constant; tau undefined$"):
        kendall_tau([1, 1, 1], [1, 2, 3])
    with pytest.raises(StatsError):
        kendall_tau([1], [1])
    with pytest.raises(StatsError):
        kendall_tau([1, 2], [1, 2, 3])


def kendall_tau_oracle(x, y):
    """kendall_tau as it was with its pairwise double loop over C - D."""
    x = list(map(float, x))
    y = list(map(float, y))
    n = len(x)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (x[i] > x[j]) - (x[i] < x[j])
            b = (y[i] > y[j]) - (y[i] < y[j])
            s += a * b
    n0 = n * (n - 1) // 2
    tx = Counter(x).values()
    ty = Counter(y).values()
    n1 = sum(t * (t - 1) // 2 for t in tx)
    n2 = sum(u * (u - 1) // 2 for u in ty)
    tau = s / math.sqrt((n0 - n1) * (n0 - n2))
    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(t * (t - 1) * (2 * t + 5) for t in tx)
    vu = sum(u * (u - 1) * (2 * u + 5) for u in ty)
    v1 = (sum(t * (t - 1) for t in tx) * sum(u * (u - 1) for u in ty)
          / (2.0 * n * (n - 1)))
    v2 = (sum(t * (t - 1) * (t - 2) for t in tx)
          * sum(u * (u - 1) * (u - 2) for u in ty)
          / (9.0 * n * (n - 1) * (n - 2))) if n > 2 else 0.0
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    z = s / math.sqrt(var) if var > 0 else math.inf * np.sign(s)
    p = float(2.0 * scipy.special.ndtr(-abs(z))) if math.isfinite(z) else 0.0
    return float(tau), float(z), p


def test_kendall_count_matches_double_loop():
    # C - D is an integer, so an exact count gives the very bits of tau, z
    # and p that the double loop gives.
    rng = np.random.default_rng(4)
    for trial in range(40):
        n = int(rng.integers(2, 300))
        x = rng.integers(0, int(rng.integers(2, 50)), size=n).astype(float)
        y = np.round(rng.normal(0.0, 1.0, n), int(rng.integers(0, 3)))
        if trial % 5 == 0:
            x[rng.integers(0, n)] = math.inf * rng.choice([-1, 1])
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        assert kendall_tau(x, y) == kendall_tau_oracle(x, y)


# ------------------------------------------------------------------- Holm


def oracle_holm(pvals, alpha=0.05):
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    reject = [False] * m
    for k, idx in enumerate(order):
        if pvals[idx] < alpha / (m - k):
            reject[idx] = True
        else:
            break
    return reject


def test_holm_examples():
    assert holm_bonferroni([0.01, 0.04, 0.03]) == [True, False, False]
    assert holm_bonferroni([0.001, 0.01, 0.02]) == [True, True, True]
    assert holm_bonferroni([0.06]) == [False]
    assert holm_bonferroni([]) == []


def test_holm_boundary_is_strict():
    # p exactly equal to alpha/m is not rejected.
    assert holm_bonferroni([0.025, 0.025]) == [False, False]


def test_holm_monotone_in_rejections():
    # The rejection set respects the sorted order: a rejected p is never
    # larger than an accepted one.
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.uniform(size=rng.integers(1, 8)).tolist()
        rej = holm_bonferroni(p)
        if any(rej) and not all(rej):
            assert max(v for v, r in zip(p, rej) if r) <= min(
                v for v, r in zip(p, rej) if not r)


def test_holm_exhaustive_small_grid():
    grid = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.5, 1.0]
    for m in range(1, 5):
        for combo in itertools.product(grid, repeat=m):
            assert holm_bonferroni(list(combo)) == oracle_holm(list(combo))


@given(st.lists(st.floats(min_value=0, max_value=1), max_size=10))
def test_holm_matches_oracle_random(p):
    assert holm_bonferroni(p) == oracle_holm(p)


# ----------------------------------------------------------------- report


class FakeInd:
    def __init__(self, fitness):
        self.fitness = fitness


class FakeHistory:
    def __init__(self, generations):
        self.generations = [[FakeInd(v) for v in g] for g in generations]


def test_trajectory_report_structure():
    rng = np.random.default_rng(3)
    gens = [(rng.normal(loc=g * 0.5, size=25) ** 2).tolist() for g in range(1, 8)]
    report = trajectory_report([FakeHistory(gens)])
    assert not report["first_vs_last_tophalf"]["degenerate"]
    assert not report["all_generations"]["degenerate"]
    assert report["fitness_vs_generation"]["tau"] > 0
    assert "holm_reject" in report["first_vs_last_tophalf"]
    assert len(report["percentile_bands"]) == 7
    band = report["percentile_bands"][0]
    assert band["p10"] <= band["p25"] <= band["median"] <= band["p75"] <= band["p90"]


def test_trajectory_report_amalgamates_runs():
    a = FakeHistory([[1, 2], [3, 4]])
    b = FakeHistory([[5, 6], [7, 8]])
    report = trajectory_report([a, b])
    assert report["percentile_bands"][0]["median"] == pytest.approx(
        np.median([1, 2, 5, 6]))


def test_trajectory_report_degenerate_inputs():
    flat = FakeHistory([[1.0] * 5, [1.0] * 5])
    report = trajectory_report([flat])
    assert report["first_vs_last_tophalf"]["degenerate"]
    # Identical values everywhere: the omnibus ANOVA is defined as F=0, p=1.
    assert report["all_generations"] == {"F": 0.0, "p": 1.0, "degenerate": False}
    assert report["fitness_vs_generation"]["degenerate"]


def test_report_serialization():
    report = trajectory_report([FakeHistory([[1, 2, 3], [2, 3, 4], [4, 5, 6]])])
    assert report_json(report).endswith("\n")
    lines = bands_csv(report).splitlines()
    assert lines[0] == "generation,median,p25,p75,p10,p90"
    assert len(lines) == 4


@pytest.mark.parametrize("generations, missing, last", [((1, 3), 2, 3), ((2,), 1, 2),
                                                         ((2, 3), 1, 3)])
def test_analyze_rejects_a_history_with_a_missing_generation(tmp_path, capsys, generations,
                                                             missing, last):
    # The report numbers a file's generations by position: with generation
    # 2's rows gone, analyze labelled generation 3's band and trend point 2.
    header = ("run,generation,individual_id,parent_ids,locus1,locus2,locus3,locus4,"
              "replicate1,replicate2,replicate3,fitness")
    paths = [tmp_path / "good.csv", tmp_path / "bad.csv"]
    for path, gens in zip(paths, ((1, 2, 3), generations)):
        rows = [f"0,{g},{3 * g + k},,0.{k + 1},0.5,0.5,0.5,1.0,1.0,1.0,{g + k}"
                for g in gens for k in range(3)]
        path.write_text("\n".join([header, *rows]) + "\n")
    out_dir = tmp_path / "o"
    assert main(["analyze", *map(str, paths), "--out-dir", str(out_dir)]) == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {paths[1]}: generation {missing} has "
                                       f"no rows, but generation {last} does\n")
    assert not out_dir.exists()
