"""Rate certificates: how fast does a society settle?

For static structures the geometric base combines the subdominant
eigenvalue moduli of both structures; for sampled structures the
certificate is (1 - gamma)^floor(n / nu) with gamma minimized over all
words of the block length nu.  The constant on the homogeneous bound is
an empirical fit from a probe run, not a guarantee, and the certificate
deliberately records the per-structure rates too: the product base can
undercut the true error decay.  In general the error is bounded by the
slower of the two single-structure rates.  When H is SIA, as it is here,
M H^n tends to a matrix with equal rows, which P^n - P^inf (zero row sums)
annihilates, so the error follows the concept rate alone.
"""

import numpy as np

from beliefdyn import (MatrixFamily, evolve, homogeneous_rate_certificate,
                       inhomogeneous_rate_certificate, limit_q, nu_star)
from beliefdyn.datasets import three_concept_structures, two_camp_society

print("static case: the two-camp society")
p, m, h = two_camp_society()
cert = homogeneous_rate_certificate(p, h, m=m, probe_horizon=40)
print(f"  per-structure rates: {cert.per_structure}")
print(f"  combined product base: {cert.base:.4f}  fitted constant: "
      f"{cert.constant_hint:.3e}")

limit = limit_q(p, m, h).limit
trace = evolve(p, m, h, 40, tol=0.0)
concept = cert.per_structure["concept"]
print("  observed error vs the two candidate geometric rates:")
print("   n   error       concept-rate^n  product-base^n")
for n in (5, 10, 20, 30, 40):
    err = np.abs(trace.beliefs[n] - limit).max()
    print(f"  {n:3d}  {err:.3e}    {concept ** n:.3e}      {cert.base ** n:.3e}")
print("  in general the error is bounded by the slower single-structure rate;")
print("  H is SIA here, so it follows the concept rate alone, and the product")
print("  base is the optimistic reading of the combined bound.")

print("\nsampled case: two scrambling concept structures")
h1, _, h3 = three_concept_structures()
cert = inhomogeneous_rate_certificate(MatrixFamily([h1, h3]))
print(f"  block nu={cert.block}, worst-word base={cert.base}, "
      f"nu* cap for 3 states: {cert.nu_star}")
print(f"  guaranteed bound at n=10: {cert.predicted_bound(10):.3e}")
print(f"  nu* grows fast with the state count: "
      f"{[nu_star(n) for n in (2, 3, 4, 5)]}")
