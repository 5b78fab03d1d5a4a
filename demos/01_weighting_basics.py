"""
Calibration weighting from scratch
==================================

Builds a small synthetic survey whose respondents over-represent one
group, then solves for entropy-calibrated weights that hit known
population margins exactly.
"""

import numpy as np

from surveysense import CalibrationProblem, solve_raking
from surveysense.calibrate import balance_table, weighted_mean, weighted_se

rng = np.random.default_rng(12)
n = 1200

# the sample skews toward degree holders; the population is 35% degree
degree = (rng.random(n) < 0.55).astype(float)
urban = (rng.random(n) < 0.4 + 0.2 * degree).astype(float)
age = rng.normal(45 - 4 * degree, 12, size=n)

# outcome loads on everything, so the skew biases the raw mean
y = 10 + 3 * degree + 1.5 * urban - 0.05 * age + rng.normal(0, 2, size=n)

matrix = np.column_stack([degree, urban, age])
targets = np.array([0.35, 0.48, 44.0])
problem = CalibrationProblem(
    matrix, targets, column_names=("degree", "urban", "age")
)

solved = solve_raking(problem)
print("converged:", solved.diagnostics.converged)
print("iterations:", solved.diagnostics.iterations)
print("worst margin violation:", solved.diagnostics.max_violation)

print("\nbalance before/after:")
for row in balance_table(problem, solved.values):
    print(
        f"  {row['column']:>6}: unweighted {row['unweighted']:.3f}"
        f" -> weighted {row['weighted']:.3f} (target {row['target']:.3f})"
    )

print("\nestimates:")
print(f"  raw mean      {y.mean():.3f} (se {weighted_se(y, np.ones(n)):.3f})")
print(
    f"  weighted mean {weighted_mean(y, solved.values):.3f}"
    f" (se {weighted_se(y, solved.values):.3f})"
)

# weights stay positive and average one by construction
print("\nweight range:", solved.values.min(), "to", solved.values.max())
print("weight mean:", solved.values.mean())
