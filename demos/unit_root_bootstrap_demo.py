"""Unit-root battery with sieve wild bootstrap p-values.

Two simulated series tell the story.  The first is a random walk whose
increments follow an AR(1): it HAS a unit root, and the battery should not
reject.  The second is a stationary AR(1) around a level: every test should
reject.  Because the innovations are heavy-tailed (Student-t with 2.5
degrees of freedom), asymptotic critical values would be unreliable; the
bootstrap recolours sieve residuals with random signs and recomputes the
battery on each replicate, so the p-values calibrate themselves to the data.
"""

import numpy as np

from robustts import unit_root_report

rng = np.random.default_rng(7)
T = 250

# innovations with heavy tails (infinite fourth moment)
eps = rng.standard_t(2.5, size=T)

# series 1: unit root, AR(1) differences
d = np.zeros(T)
for t in range(1, T):
    d[t] = 0.4 * d[t - 1] + eps[t]
walk = np.cumsum(d)

# series 2: stationary AR(1) around a constant level
level = np.zeros(T)
for t in range(1, T):
    level[t] = 0.7 * level[t - 1] + eps[t]
level += 10.0

# fixed tuning: c_bar = -7, k_max by the 12*(T/100)^(1/4) rule
for name, series in (("random walk", walk), ("stationary AR(1)", level)):
    report = unit_root_report(series, B=999, seed=42)
    print(f"\n{name} (T={T}, selected lag {report.stats.lag})")
    print(f"  {'stat':>6s}  {'value':>9s}  p(boot)")
    for stat, value in report.stats.as_dict().items():
        print(f"  {stat:>6s}  {value:9.3f}  ({report.p_values[stat]:.3f})")

print(
    "\nReading: small p-values reject the unit root (LR rejects for large"
    "\nstatistics, the others for small ones; the bootstrap handles both tails)."
)
