"""Acceptance suite: one test per published-example criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` or check
captured output) and then asserts.  Tolerances for published tables are
1.5e-3 entrywise (values are printed rounded to three decimals) unless a
criterion states otherwise.

Three printed tables (c02, c08, c09) contradict the update rule
``Q_n = P_n ... P_1 M H_1 ... H_n`` they are printed with.  Each is kept
under a ``*_PUBLISHED`` name, and its test derives the expected table from
it through the identity that the printed numbers break.
"""

import numpy as np
import pytest

from beliefdyn import datasets
from beliefdyn.clusters import epsilon_kl_clusters, min_kl_hull_to_point
from beliefdyn.ergodic import (contraction_coefficient,
                               homogeneous_rate_certificate,
                               inhomogeneous_rate_certificate, is_scrambling,
                               is_sia)
from beliefdyn.homogeneous import evolve, limit_q
from beliefdyn.homophily import (HomophilyConfig, StepLimitReached,
                                 build_network, network_groups, run_homophily)
from beliefdyn.sampling import (diagnose_convergence, expected_limit,
                                sample_trajectories, sample_trajectory)
from beliefdyn.stochastic import MatrixFamily, delta_coefficient, multiply
from util import (brute_force_indecomposable, grid_min_kl_to_point,
                  minimal_closed_subsets, random_stochastic)

PUBLISHED_TOL = 1.5e-3

TWO_CAMP_ROW = np.array([0.285, 0.203, 0.200, 0.155, 0.156])

CAMPS_LONER_LIMIT_PUBLISHED = np.array([
    [0.239, 0.102, 0.169, 0.131, 0.115, 0.241],
    [0.239, 0.102, 0.169, 0.131, 0.115, 0.241],
    [0.028, 0.012, 0.245, 0.191, 0.167, 0.351],
])

TWO_ANCHOR_LIMIT = np.array([
    [0.318, 0.372, 0.31],
    [0.052, 0.061, 0.887],
    [0.082, 0.096, 0.823],
    [0.074, 0.087, 0.839],
    [0.081, 0.094, 0.825],
    [0.027, 0.032, 0.941],
])

FIVE_PERSON_P1 = np.array([
    [0.5, 0, 0, 0, 0.5],
    [0, 0.532, 0, 0.468, 0],
    [0, 0, 1, 0, 0],
    [0, 0.464, 0, 0.536, 0],
    [0.5, 0, 0, 0, 0.5],
])

FIVE_PERSON_H_BLOCK = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0.5, 0.5],
    [0, 0, 0.5, 0.5],
])

FIVE_PERSON_FINAL_Q_PUBLISHED = np.array([
    [0.258, 0.468, 0.095, 0.179],
    [0.044, 0.12, 0.29, 0.546],
    [0.69, 0.176, 0.046, 0.088],
    [0.044, 0.12, 0.29, 0.546],
    [0.258, 0.468, 0.095, 0.179],
])

CONSENSUS_ROW_PUBLISHED = np.array([0.295, 0.186, 0.258, 0.262])


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_two_camp_limit():
    p, m, h = datasets.two_camp_society()
    trace = evolve(p, m, h, 200, tol=1e-9)
    err_evolve = float(np.abs(trace.final - TWO_CAMP_ROW).max())
    rep = limit_q(p, m, h)
    err_limit = float(np.abs(rep.limit - TWO_CAMP_ROW).max())
    ok = (err_evolve < PUBLISHED_TOL and err_limit < PUBLISHED_TOL
          and rep.homogeneous and trace.stabilized_at is not None)
    assert report(1, ok, f"two-camp limit err evolve={err_evolve:.2e} "
                         f"limit={err_limit:.2e} (tol {PUBLISHED_TOL})")


def test_c02_camps_and_loner_limit():
    p, m, h = datasets.camps_and_loner()
    # H is block-diagonal over concepts {0, 1} and {2..5}, so right-multiplying
    # by H keeps the mass each row puts on each block.  The camp rows tend to
    # the rho-average of M rows 0 and 1 (rho = (6/13, 7/13), stationary for
    # P's camp block) and the loner keeps M row 2, so the limit rows put
    # 0.65923 and 0.96 on {2..5}.  The printed rows put 0.656 and 0.954 there,
    # more than rounding four entries to 3 decimals (<= 0.002) explains, so
    # each printed block is rescaled to its conserved mass.
    a, b = p[0, 1], p[1, 0]
    rho = np.array([b, a]) / (a + b)
    camp_mass = rho @ m[:2, 2:].sum(axis=1)
    mass = np.array([camp_mass, camp_mass, m[2, 2:].sum()])
    expected = CAMPS_LONER_LIMIT_PUBLISHED.copy()
    expected[:, :2] *= ((1 - mass) / expected[:, :2].sum(axis=1))[:, None]
    expected[:, 2:] *= (mass / expected[:, 2:].sum(axis=1))[:, None]
    rep = limit_q(p, m, h)
    err = float(np.abs(rep.limit - expected).max())
    rows_12_equal = float(np.abs(rep.limit[0] - rep.limit[1]).max()) < 1e-10
    row_3_distinct = float(np.abs(rep.limit[0] - rep.limit[2]).max()) > 1e-2
    ok = err < PUBLISHED_TOL and rows_12_equal and row_3_distinct
    assert report(
        2, ok,
        f"camps-and-loner err={err:.2e} (tol {PUBLISHED_TOL}); "
        f"rows12equal={rows_12_equal} row3distinct={row_3_distinct}; "
        f"printed table rescaled to the conserved {{2..5}} masses "
        f"{mass[0]:.5f}/{mass[2]:.5f}")


def test_c03_two_anchor_limit():
    p, m, h = datasets.two_anchor_society()
    rep = limit_q(p, m, h)
    err = float(np.abs(rep.limit - TWO_ANCHOR_LIMIT).max())
    ok = err < PUBLISHED_TOL
    assert report(3, ok, f"two-anchor limit err={err:.2e} (tol {PUBLISHED_TOL}, "
                         f"corrected absorbing row 6)")


def test_c04_contraction_coefficients_exact():
    h1, h2, h3 = datasets.three_concept_structures()
    vals = [contraction_coefficient(x) for x in (h1, h2, h3)]
    ok = (abs(vals[0] - 0.6) < 1e-12 and abs(vals[1] - 1.0) < 1e-12
          and abs(vals[2] - 0.7) < 1e-12)
    assert report(4, ok, f"contraction coefficients {vals} vs (0.6, 1.0, 0.7)")


def test_c05_one_leaf_criterion_and_sampled_runs():
    fam = datasets.single_leaf_family()
    diag = diagnose_convergence(fam)
    anti = diagnose_convergence(MatrixFamily([np.eye(2)]))
    sh = MatrixFamily([np.eye(3)])
    m = np.eye(3)
    deltas = [delta_coefficient(run.final_q)
              for run in sample_trajectories(fam, sh, m, range(200), 500)]
    worst = max(deltas)
    ok = (diag.almost_surely_rank_one and not anti.almost_surely_rank_one
          and worst < 1e-4)
    assert report(5, ok, f"one-leaf diagnosis ok; 200 runs at horizon 500, "
                         f"worst row spread {worst:.2e} < 1e-4")


def test_c06_block_certificate():
    h1, _, h3 = datasets.three_concept_structures()
    fam = MatrixFamily([h1, h3])
    cert = inhomogeneous_rate_certificate(fam)
    nu = cert.block
    horizon = 10 * nu + 40
    violations = 0
    for run in sample_trajectories(fam, MatrixFamily([np.eye(3)]), np.eye(3),
                                   range(25), horizon):
        prods = []
        prod = np.eye(3)
        for idx in run.word_p:
            prod = fam.members[idx] @ prod
            prods.append(prod)
        pi = prods[-1][0]
        for k in range(1, 11):
            n = k * nu
            err = float(np.abs(prods[n - 1] - pi[None, :]).max())
            if err > cert.predicted_bound(n) + 1e-12:
                violations += 1
    ok = cert.nu_star == 6 and nu == 1 and violations == 0
    assert report(6, ok, f"nu*={cert.nu_star} (N=3), block={nu}, "
                         f"base={cert.base}; bound violations={violations}/250")


def test_c07_homogeneous_rate_soundness():
    p, m, h = datasets.two_camp_society()
    cert = homogeneous_rate_certificate(p, h, m=m, probe_horizon=20)
    limit = limit_q(p, m, h).limit
    trace = evolve(p, m, h, 200, tol=0.0)
    first_violation = None
    worst_ratio = 0.0
    for n in range(21, 201):
        err = float(np.abs(trace.snapshots[n] - limit).max())
        # float64 errors stop falling near 2.2e-16, so allow for rounding
        bound = cert.predicted_bound(n) * (1 + 1e-6) + 16 * np.finfo(float).eps
        if err > bound:
            worst_ratio = max(worst_ratio, err / bound if bound > 0 else np.inf)
            if first_violation is None:
                first_violation = n
    ok = first_violation is None
    assert report(
        7, ok,
        f"product-rate bound base={cert.base:.4f} fitted C={cert.constant_hint:.3e}; "
        + ("holds up to n=200" if ok else
           f"first violation at n={first_violation}, worst err/bound={worst_ratio:.2e}; "
           f"H is SIA and P^n - P^inf has zero row sums, so the error "
           f"decays like the concept rate "
           f"({cert.per_structure['concept']:.3f})^n, which the product "
           f"base {cert.base:.4f} undercuts, so no constant fitted on n<=20 "
           f"can cover n>20"))


def test_c08_five_person_reproduction():
    m = datasets.five_person_beliefs()
    cfg = HomophilyConfig(eps_p=0.3, eps_h=0.25, beta=1.0)
    p1 = build_network(m, cfg)
    p1_ok = ((p1 > 0).tolist() == (FIVE_PERSON_P1 > 0).tolist()
             and float(np.abs(p1 - FIVE_PERSON_P1).max()) < PUBLISHED_TOL)
    trace = run_homophily(m, cfg)
    h_ok = all(float(np.abs(trace.concepts[t - 1] - FIVE_PERSON_H_BLOCK).max()) < PUBLISHED_TOL
               for t in range(5, len(trace.concepts) + 1))
    groups_ok = trace.final_groups == ((0, 4), (1, 3), (2,))
    # From t = 5 on, Q_t = P_t Q_{t-1} H_t with H_t the concept block, whose
    # columns 2 and 3 are equal, so Q_t has equal columns 2 and 3 too.  The
    # printed Q does not; right-multiplying it by the block averages the pair,
    # keeps each row's pair mass and leaves columns 0 and 1 as printed.
    final_q = FIVE_PERSON_FINAL_Q_PUBLISHED @ FIVE_PERSON_H_BLOCK
    q_err = float(np.abs(trace.beliefs[-1] - final_q).max())
    q_ok = q_err < PUBLISHED_TOL
    ok = p1_ok and h_ok and groups_ok and q_ok
    assert report(
        8, ok,
        f"P1 {'ok' if p1_ok else 'MISMATCH'}, t>=5 concept block "
        f"{'ok' if h_ok else 'MISMATCH'}, groups {'ok' if groups_ok else 'MISMATCH'}, "
        f"final-Q err={q_err:.2e} (tol {PUBLISHED_TOL}; printed Q times the "
        f"concept block)")


def test_c09_consensus_variant():
    m = datasets.five_person_beliefs()
    cfg = HomophilyConfig(eps_p=0.3, eps_h=0.4, beta=1.0)
    trace = run_homophily(m, cfg)
    beliefs = trace.beliefs
    checked = beliefs[10] if len(beliefs) > 10 else beliefs[-1]
    # Equal belief rows make every column-normalized concept column uniform,
    # so every concept KL is 0, all concept links are present with equal
    # weights and H = J/4.  A consensus row q must then satisfy q = q H, and
    # q H is the uniform row for every distribution q.
    h_consensus = np.full((4, 4), 0.25)
    row = (CONSENSUS_ROW_PUBLISHED / CONSENSUS_ROW_PUBLISHED.sum()) @ h_consensus
    err = float(np.abs(checked - row).max())
    ok = err < PUBLISHED_TOL
    assert report(
        9, ok,
        f"consensus-row err by step 10: {err:.2e} (tol {PUBLISHED_TOL}; "
        f"printed row times H = J/4)")


def test_c10_triangle_topology():
    m = datasets.five_person_triangle()
    cfg = HomophilyConfig(eps_p=0.3, eps_h=0.2, beta=1.0)
    trace = run_homophily(m, cfg)
    expected = ((0,), (1,), (2, 3, 4))
    topo_ok = trace.final_groups == expected
    from_t5 = all(network_groups(trace.networks[t - 1]) == expected
                  for t in range(5, len(trace.networks) + 1))
    ok = topo_ok and from_t5 and trace.stabilized_at is not None
    assert report(10, ok, f"triangle topology {trace.final_groups}, settled from "
                          f"t=5 onward: {from_t5}, stabilized_at={trace.stabilized_at}")


def test_c11_cluster_lower_bound_randomized():
    rng = np.random.default_rng(20260808)
    fixtures = []
    for k in range(50):
        r = int(rng.integers(2, 7))
        s = int(rng.integers(2, 5))
        fixtures.append((k, rng.dirichlet(np.ones(s), size=r)))
    violations = []
    for eps in (0.1, 0.3, 0.5):
        for k, m in fixtures:
            clusters = len(epsilon_kl_clusters(m, eps))
            cfg = HomophilyConfig(eps_p=eps, eps_h=0.1, freeze_concepts=True,
                                  max_steps=300)
            try:
                groups = len(run_homophily(m, cfg).final_groups)
            except StepLimitReached as exc:
                groups = len(exc.trace.final_groups)
                violations.append((k, eps, "no stabilization"))
                continue
            if clusters > groups:
                violations.append((k, eps, clusters, groups))
    ok = not violations
    assert report(11, ok, f"cluster lower bound on 50 seeded fixtures x 3 eps: "
                          f"{len(violations)} violations {violations[:3]}")


def test_c12_property_suites():
    rng = np.random.default_rng(77)
    lines = []

    # product closure and row-spread contraction
    closure_ok = True
    for _ in range(30):
        a = random_stochastic(rng, 5)
        b = random_stochastic(rng, 5)
        out = multiply(a, b)
        closure_ok &= bool(np.allclose(out.sum(axis=1), 1.0, atol=1e-8))
        closure_ok &= delta_coefficient(a @ b) <= delta_coefficient(b) + 1e-12
    lines.append(("product closure + contraction", closure_ok))

    # leaf classes = closed sets; indecomposability matches brute force
    chains_ok = True
    from beliefdyn.chains import analyze
    for _ in range(25):
        n = int(rng.integers(2, 9))
        p = random_stochastic(rng, n, zeros=0.55)
        result = analyze(p)
        chains_ok &= result.is_indecomposable == brute_force_indecomposable(p)
        chains_ok &= (len(result.condensation.leaf_classes)
                      == len(minimal_closed_subsets(p)))
    lines.append(("leaf/closed-set equivalence", chains_ok))

    # scrambling implies SIA; scrambling factor propagates through products
    h1, h2, h3 = datasets.three_concept_structures()
    ergodic_ok = True
    for _ in range(30):
        p = random_stochastic(rng, 4, zeros=0.5)
        if is_scrambling(p):
            ergodic_ok &= is_sia(p)
    members = [h1, h2, h3]
    for _ in range(30):
        word = rng.integers(0, 3, size=int(rng.integers(1, 7)))
        if not any(w in (0, 2) for w in word):
            continue
        prod = members[word[0]]
        for idx in word[1:]:
            prod = prod @ members[idx]
        ergodic_ok &= is_scrambling(prod)
    lines.append(("scrambling => SIA + propagation", ergodic_ok))

    # dominant-concept limit ignores the network and the priors
    p, m, h = datasets.two_camp_society()
    base = limit_q(p, m, h).limit
    case1_ok = True
    for _ in range(5):
        alt = limit_q(random_stochastic(rng, 5), random_stochastic(rng, 5, 5), h).limit
        case1_ok &= float(np.abs(base - alt).max()) < 1e-10
    lines.append(("concept-dominated limit independence", case1_ok))

    # seeded determinism and Monte Carlo expectation agreement (3 SE)
    pair = MatrixFamily([h1, h3])
    sp = MatrixFamily([np.eye(3)])
    m3 = np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7], [0.3, 0.4, 0.3]])
    a = sample_trajectory(pair, pair, m3, 123, 50)
    b = sample_trajectory(pair, pair, m3, 123, 50)
    determinism_ok = (a.word_p == b.word_p and a.word_h == b.word_h
                      and np.array_equal(a.final_q, b.final_q))
    runs = 2000
    finals = np.empty((runs, 3, 3))
    for run in sample_trajectories(sp, pair, m3, range(runs), 100):
        finals[run.seed] = run.final_q
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / np.sqrt(runs)
    expected = expected_limit(sp, pair, m3)
    mc_ok = bool(np.all(np.abs(mean - expected) <= 3 * se + 1e-9))
    lines.append(("seeded determinism + MC expectation", determinism_ok and mc_ok))

    # hull-distance solver agrees with the barycentric grid oracle
    fw_ok = True
    for _ in range(8):
        hull = rng.dirichlet(np.ones(3), size=int(rng.integers(2, 5)))
        target = rng.dirichlet(np.ones(3))
        fw = min_kl_hull_to_point(hull, target, 1e-6)
        grid = grid_min_kl_to_point(hull, target, resolution=50)
        fw_ok &= fw <= grid + 2e-6 and grid - fw <= 2e-3
    lines.append(("hull solver vs grid oracle", fw_ok))

    ok = all(flag for _, flag in lines)
    detail = "; ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in lines)
    assert report(12, ok, detail)
