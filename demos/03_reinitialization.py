"""The asymptotic reinitialization mechanism, piece by piece.

Each generation the worst third of the population is eligible for
replacement; each eligible member is independently replaced with a
probability that decays from 1 toward zero, and replacements are drawn from
a Gaussian fitted to the elite quarter of the population, plus
bounds-scaled noise.
"""

import numpy as np

from quasar_opt import (
    BoundsBox,
    Population,
    RngStream,
    compute_elite_stats,
    reinit_probability,
    sample_reinit_positions,
)

# The decay schedule: P(0) = 1, P(0.33 * g_max) = 0.33, asymptotic tail.
g_max = 100
print("replacement probability by generation (g_max = 100):")
for g in (0, 10, 25, 33, 50, 75, 100):
    print(f"  g = {g:3d}: {reinit_probability(g, g_max):.4f}")

# Fit elite statistics to a population whose best members cluster near
# (3, -2): the fitted mean recovers the cluster center.
rng = RngStream(7)
n, d = 40, 2
positions = np.vstack([
    rng.normal([3.0, -2.0], 0.3, size=(10, d)),   # elite cluster
    rng.uniform(-10.0, 10.0, size=(30, d)),       # scattered rest
])
fitness = np.concatenate([np.zeros(10), np.ones(30)])  # cluster is best
pop = Population(positions, fitness)

stats = compute_elite_stats(pop, elite_fraction=0.25)
print("\nelite mean (cluster sits at (3, -2)):", np.round(stats.mu, 3))
print("elite covariance diagonal:", np.round(np.diag(stats.sigma), 4))

# Replacement samples concentrate around the elites but keep exploring:
# the noise term has standard deviation (high - low) / 20 per dimension.
# The sampler takes its standard normals, one row per sample for the
# Gaussian and one for the noise, drawn as the optimizer draws them.
bounds = BoundsBox.cube(-10.0, 10.0, d)
count = 2000
z = rng.normal(size=(2 * count, d))
samples, fallback = sample_reinit_positions(stats, bounds, z[:count],
                                            z[count:], noise_divisor=20.0)
print("\nreplacement sample mean:", np.round(samples.mean(axis=0), 3))
print("replacement sample std: ", np.round(samples.std(axis=0), 3))
print("(noise alone contributes std = 20/20 = 1 per dimension)")
print("all samples inside the box:", bounds.contains(samples))
print("Cholesky fallback level (0 = covariance used as-is):", fallback)
