"""Randomly changing structures: when does consensus survive the noise?

Structures are drawn i.i.d. from weighted families each step.  The yes/no
question "do sampled products collapse to rank one almost surely" is
structural: condense the union of the members' graphs and count leaves.
Individually decomposable members can still force consensus together, and
the expectation of the limit equals the limit of the expectations.
"""

import numpy as np

from beliefdyn import (MatrixFamily, delta_coefficient, diagnose_convergence,
                       expectation_matrix, expected_limit, sample_trajectories,
                       sample_trajectory)
from beliefdyn.datasets import single_leaf_family, three_concept_structures

np.set_printoptions(precision=3, suppress=True)

fam = single_leaf_family()
print("three structures, each decomposable on its own:")
for member in fam.members:
    print(member, "")

diag = diagnose_convergence(fam)
print(f"almost-sure consensus: {diag.almost_surely_rank_one} "
      f"(scrambling word over the family: {diag.witness})")

sh = MatrixFamily([np.eye(3)])
m = np.eye(3)
print("\nrow spread of Q after seeded runs (horizon 300):")
for run in sample_trajectories(fam, sh, m, range(5), 300):
    counts = [run.word_p.count(k) for k in range(3)]
    print(f"  seed={run.seed}  draws per member {counts}  "
          f"delta={delta_coefficient(run.final_q):.2e}")

print("\nsame seed, same words, same bits, alone or among other seeds:")
a = sample_trajectory(fam, sh, m, 11, 300)
b = list(sample_trajectories(fam, sh, m, [3, 11, 7], 300))[1]
print(f"  words equal: {a.word_p == b.word_p}, "
      f"finals identical: {np.array_equal(a.final_q, b.final_q)}")

print("\nexpected dynamics: one averaged matrix stands in for the family")
h1, _, h3 = three_concept_structures()
pair = MatrixFamily([h1, h3])
print("E[H] =")
print(expectation_matrix(pair))
e_limit = expected_limit(sh, pair, np.full((3, 3), 1 / 3))
print("limit of the expected dynamics (also the cross-seed mean):")
print(e_limit)

runs = 400
mean = np.zeros((3, 3))
for run in sample_trajectories(sh, pair, np.full((3, 3), 1 / 3), range(runs), 80):
    mean += run.final_q
mean /= runs
print(f"Monte Carlo mean over {runs} seeds differs by "
      f"{np.abs(mean - e_limit).max():.1e}")
