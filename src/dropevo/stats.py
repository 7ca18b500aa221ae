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
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc, ndtr

# Family-wise significance level of the Holm correction.
ALPHA = 0.05


class StatsError(ValueError):
    pass


@dataclass
class GenerationSample:
    generation: int
    fitnesses: list[float]

    def __post_init__(self):
        # Empty is allowed only as the degenerate result of a strict top-half
        # split over an all-tied sample.
        if self.generation < 1:
            raise StatsError("generation must be >= 1")


def top_half(sample: GenerationSample) -> GenerationSample:
    """Values strictly greater than the sample median. With heavy ties this
    can retain fewer than half the values, or none (degenerate)."""
    if len(sample.fitnesses) < 2:
        raise StatsError("need at least 2 values")
    med = float(np.median(sample.fitnesses))
    return GenerationSample(sample.generation,
                            [v for v in sample.fitnesses if v > med])


def anova_oneway(groups: list[GenerationSample]) -> tuple[float, float]:
    """One-way fixed-effects ANOVA: (F, p)."""
    if len(groups) < 2:
        raise StatsError("need at least 2 groups")
    data = [np.asarray(g.fitnesses, dtype=float) for g in groups]
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
    if any(math.isnan(v) for v in x + y):
        raise StatsError("x and y must not hold NaN")
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
    if any(not 0.0 <= v <= 1.0 for v in p):
        raise StatsError("p-values must lie in [0, 1]")
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

def _amalgamated_generations(histories) -> list[GenerationSample]:
    """Pool the per-generation fitness values of all supplied runs."""
    pooled: dict[int, list[float]] = {}
    for hist in histories:
        for g, gen in enumerate(hist.generations, start=1):
            pooled.setdefault(g, []).extend(ind.fitness for ind in gen)
    return [GenerationSample(g, pooled[g]) for g in sorted(pooled)]


def _entry(keys, test, *args) -> dict:
    """`test(*args)` as a dict under `keys`; any StatsError (too few values,
    zero variance, all ties) marks the test degenerate instead."""
    try:
        return {**dict(zip(keys, test(*args))), "degenerate": False}
    except StatsError:
        return {**dict.fromkeys(keys), "degenerate": True}


def _tophalf_anova(a: GenerationSample, b: GenerationSample):
    return anova_oneway([top_half(a), top_half(b)])


def trajectory_report(histories) -> dict:
    """The four trajectory analyses plus per-generation percentile bands.

    histories: one or more GAHistory objects (repeats are amalgamated).
    """
    gens = _amalgamated_generations(histories)
    first, last = gens[0], gens[-1]
    mid = gens[len(gens) // 2] if len(gens) > 2 else gens[0]
    # Kendall: fitness against generation, every individual a data point.
    xs = [g.generation for g in gens for _ in g.fitnesses]
    ys = [v for g in gens for v in g.fitnesses]
    report = {
        "first_vs_last_tophalf": _entry(("F", "p"), _tophalf_anova, first, last),
        "mid_vs_last_tophalf": _entry(("F", "p"), _tophalf_anova, mid, last),
        "mid_generation": mid.generation,
        # All generations as a categorical factor.
        "all_generations": _entry(("F", "p"), anova_oneway, gens),
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
        {"generation": g.generation,
         "median": float(np.median(g.fitnesses)),
         "p25": float(np.percentile(g.fitnesses, 25)),
         "p75": float(np.percentile(g.fitnesses, 75)),
         "p10": float(np.percentile(g.fitnesses, 10)),
         "p90": float(np.percentile(g.fitnesses, 90))}
        for g in gens
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
