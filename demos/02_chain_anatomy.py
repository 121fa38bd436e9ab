"""Anatomy of a chain: communicating classes, leaves, periods.

Who can eventually influence whom is a purely structural question about
the positivity graph of the matrix.  The condensation of that graph is a
DAG; its leaves are the closed sets, whose members are the recurrent
states.  Every limit computation in the package reads off these labels.
"""

import numpy as np

from beliefdyn import analyze, graph_of
from beliefdyn.datasets import two_anchor_society, two_camp_society

np.set_printoptions(precision=3, suppress=True)


def describe(name, p):
    result = analyze(p)
    print(f"{name}:")
    print(f"  classes: {result.classes}")
    print(f"  leaf classes: {[result.classes[c] for c in result.leaf_classes]}")
    print(f"  recurrent: {result.recurrent}")
    print(f"  periods: {result.periods}")
    print(f"  irreducible={result.is_irreducible} "
          f"indecomposable={result.is_indecomposable} "
          f"aperiodic={result.is_aperiodic}")
    print()


p, _, h = two_camp_society()
describe("two-camp network (two closed camps, no contact)", p)
describe("its concept structure (everything communicates)", h)

p4, _, _ = two_anchor_society()
describe("two-anchor network (four transient people between two anchors)", p4)

swap = np.array([[0.0, 1.0], [1.0, 0.0]])
describe("a pure 2-cycle (periodic)", swap)

print("positivity graph of the 2-cycle:", graph_of(swap))
