"""Walk through the evolutionary-trajectory statistics on a toy campaign.

Builds two synthetic runs whose fitness drifts upward, then shows the
top-half ANOVA comparisons, the omnibus generation ANOVA, the Kendall rank
trend, Holm correction, and the percentile bands that would be plotted.
"""

import numpy as np

from dropevo import stats


class Ind:
    def __init__(self, fitness):
        self.fitness = fitness


class History:
    def __init__(self, generations):
        self.generations = [[Ind(v) for v in g] for g in generations]


rng = np.random.default_rng(0)
runs = []
for run in range(2):
    gens = [np.abs(rng.normal(loc=1.0 + 0.25 * g, scale=0.6, size=25)).tolist()
            for g in range(1, 11)]
    runs.append(History(gens))

report = stats.trajectory_report(runs)

fv = report["first_vs_last_tophalf"]
mv = report["mid_vs_last_tophalf"]
print("top-half comparisons (Holm-corrected pair):")
print(f"  first vs last: F={fv['F']:.3f} p={fv['p']:.2e} "
      f"reject={fv.get('holm_reject')}")
print(f"  gen {report['mid_generation']} vs last: F={mv['F']:.3f} "
      f"p={mv['p']:.2e} reject={mv.get('holm_reject')}")

om = report["all_generations"]
print(f"\ngeneration as categorical factor: F={om['F']:.3f} p={om['p']:.2e}")

kd = report["fitness_vs_generation"]
print(f"fitness vs generation rank trend: tau={kd['tau']:.3f} "
      f"z={kd['z']:.2f} p={kd['p']:.2e}")

print("\nper-generation bands (median [p25, p75]):")
for band in report["percentile_bands"]:
    print(f"  gen {band['generation']:2d}: {band['median']:.3f} "
          f"[{band['p25']:.3f}, {band['p75']:.3f}]")

print("\nstandalone worked examples:")
tau, z, p = stats.kendall_tau([1, 2, 3, 4], [1, 2, 4, 3])
print(f"  kendall_tau([1,2,3,4], [1,2,4,3]) -> tau={tau:.4f} (= 2/3)")
F, p = stats.anova_oneway([[1, 2, 3], [4, 5, 6]])
print(f"  anova_oneway({{1,2,3}} vs {{4,5,6}}) -> F={F} (= 13.5), p={p:.4f}")
