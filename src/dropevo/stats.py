"""Evolutionary-trajectory statistics: top-half splits, one-way ANOVA,
Kendall rank correlation with tie correction, and Holm step-down multiple
testing correction.

The F and Kendall test statistics are computed here from first principles;
only the reference distributions come from scipy.special: `fdtrc` for F and
`ndtr` for Kendall's z, the routines behind scipy.stats without its import.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np
from scipy.special import fdtrc, ndtr

# Family-wise significance level of the Holm correction.
ALPHA = 0.05


class StatsError(ValueError):
    pass


def top_half(values: list[float]) -> list[float]:
    """Values strictly greater than the median. With heavy ties this can
    retain fewer than half the values, or none (degenerate)."""
    if len(values) < 2:
        raise StatsError("need at least 2 values")
    med = float(np.median(values))
    return [v for v in values if v > med]


def anova_oneway(groups: list[list[float]]) -> tuple[float, float]:
    """One-way fixed-effects ANOVA: (F, p)."""
    if len(groups) < 2:
        raise StatsError("need at least 2 groups")
    data = [np.asarray(g, dtype=float) for g in groups]
    if any(len(d) < 2 for d in data):
        raise StatsError("each group needs at least 2 values")
    n_total = sum(len(d) for d in data)
    grand = sum(d.sum() for d in data) / n_total
    ss_between = sum(len(d) * (d.mean() - grand) ** 2 for d in data)
    ss_within = sum(((d - d.mean()) ** 2).sum() for d in data)
    df_between = len(data) - 1
    df_within = n_total - len(data)
    if ss_within == 0.0:
        if ss_between == 0.0:
            return 0.0, 1.0
        raise StatsError("zero within-group variance (F = inf)")
    F = (ss_between / df_between) / (ss_within / df_within)
    p = float(fdtrc(df_between, df_within, F))
    return float(F), p


def kendall_tau(x, y) -> tuple[float, float, float]:
    """Kendall's tau-b with tie correction: (tau, z, two-sided p).

    z uses the normal approximation with the tie-corrected variance of C - D.
    """
    x = list(map(float, x))
    y = list(map(float, y))
    n = len(x)
    if n != len(y) or n < 2:
        raise StatsError("x and y must have equal length >= 2")
    if len(set(x)) == 1 or len(set(y)) == 1:
        raise StatsError("a variable is constant; tau undefined")
    # C - D, exactly: row i adds the sum over j > i of
    # sign(x[j] - x[i]) * sign(y[j] - y[i]), taken on integer ranks.
    rx = np.unique(x, return_inverse=True)[1]
    ry = np.unique(y, return_inverse=True)[1]
    s = sum(int(np.sign(rx[i + 1:] - rx[i]) @ np.sign(ry[i + 1:] - ry[i]))
            for i in range(n - 1))
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
    p = float(2.0 * ndtr(-abs(z))) if math.isfinite(z) else 0.0
    return float(tau), float(z), p


def holm_bonferroni(pvals) -> list[bool]:
    """Step-down Holm correction at level ALPHA; True marks a rejected null."""
    p = list(map(float, pvals))
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    reject = [False] * m
    for k, idx in enumerate(order):
        if p[idx] < ALPHA / (m - k):
            reject[idx] = True
        else:
            break  # step-down stops at the first acceptance
    return reject


# ---------------------------------------------------------------------------
# Trajectory report

def _amalgamated_generations(histories) -> dict[int, list[float]]:
    """Generation number -> the pooled fitness values of all supplied runs,
    in generation order (every run numbers its generations from 1)."""
    pooled: dict[int, list[float]] = {}
    for hist in histories:
        for g, gen in enumerate(hist.generations, start=1):
            pooled.setdefault(g, []).extend(ind.fitness for ind in gen)
    return pooled


def _entry(keys, test, *args) -> dict:
    """`test(*args)` as a dict under `keys`; any StatsError (too few values,
    zero variance, all ties) marks the test degenerate instead."""
    try:
        return {**dict(zip(keys, test(*args))), "degenerate": False}
    except StatsError:
        return {**dict.fromkeys(keys), "degenerate": True}


def _tophalf_anova(a: list[float], b: list[float]):
    return anova_oneway([top_half(a), top_half(b)])


def trajectory_report(histories) -> dict:
    """The four trajectory analyses plus per-generation percentile bands.

    histories: one or more GAHistory objects (repeats are amalgamated).
    """
    gens = _amalgamated_generations(histories)
    numbers = list(gens)
    first, last = numbers[0], numbers[-1]
    mid = numbers[len(numbers) // 2] if len(numbers) > 2 else first
    # Kendall: fitness against generation, every individual a data point.
    xs = [g for g, values in gens.items() for _ in values]
    ys = [v for values in gens.values() for v in values]
    report = {
        "first_vs_last_tophalf": _entry(("F", "p"), _tophalf_anova, gens[first], gens[last]),
        "mid_vs_last_tophalf": _entry(("F", "p"), _tophalf_anova, gens[mid], gens[last]),
        "mid_generation": mid,
        # All generations as a categorical factor.
        "all_generations": _entry(("F", "p"), anova_oneway, list(gens.values())),
        "fitness_vs_generation": _entry(("tau", "z", "p"), kendall_tau, xs, ys),
    }

    # Holm across the two planned top-half comparisons.
    anova_ps = [report["first_vs_last_tophalf"], report["mid_vs_last_tophalf"]]
    testable = [e for e in anova_ps if not e["degenerate"]]
    if testable:
        rejects = holm_bonferroni([e["p"] for e in testable])
        for entry, rej in zip(testable, rejects):
            entry["holm_reject"] = rej

    report["percentile_bands"] = [
        {"generation": g,
         "median": float(np.median(values)),
         "p25": float(np.percentile(values, 25)),
         "p75": float(np.percentile(values, 75)),
         "p10": float(np.percentile(values, 10)),
         "p90": float(np.percentile(values, 90))}
        for g, values in gens.items()
    ]
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def bands_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["generation", "median", "p25", "p75", "p10", "p90"])
    for band in report["percentile_bands"]:
        w.writerow([band["generation"], *(repr(band[k]) for k in
                                          ("median", "p25", "p75", "p10", "p90"))])
    return buf.getvalue()
