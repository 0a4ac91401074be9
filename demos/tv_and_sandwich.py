"""Total-variation identities, checked by Monte Carlo.

For nested bodies TV is a volume ratio, so d_TV(K, alpha K) = 1 - alpha^n
exactly; and whenever alpha K <= L <= beta K the distance is bounded by
2 (1 - (alpha/beta)^n).  Both facts are exercised on concrete simplices.
"""

import numpy as np

from simplexlearn import Simplex, check_sandwich_bound, isotropic_simplex, substream, tv_distance_mc

print(f"{'n':>3} {'alpha':>6} {'1-alpha^n':>10} {'estimate':>10} {'std err':>9}")
for n in (2, 4, 6):
    k = isotropic_simplex(n)
    for alpha in (0.5, 0.9):
        est = tv_distance_mc(k, k.scaled(alpha), 100_000, seed=n * 10 + int(alpha * 10))
        print(f"{n:>3} {alpha:>6} {1 - alpha**n:>10.4f} {est.value:>10.4f} {est.std_error:>9.4f}")

# a perturbed copy, sandwiched between scalings of the original
k = isotropic_simplex(3)
perturbed = Simplex(k.vertices + 0.05 * substream(2, 90).standard_normal(k.vertices.shape))
report = check_sandwich_bound(k, perturbed, alpha=0.8, beta=1.25, mc_points=100_000, seed=9)
print(f"\nsandwich: 0.8 K <= L <= 1.25 K verified by vertex membership")
print(f"tv estimate {report.tv.value:.4f} <= bound {report.bound:.4f}: holds = {report.holds}")
