"""Layer probes: single library calls at the sizes ROADMAP item 1 quotes.

Each probe is one call into one layer with fixed inputs (drawn from the
probe's own name, so every run and every workload probes the same work).
In a traced run each probe is timed untraced (median of ``REPEATS``),
reported as ``probe.<name>``, and then runs once under the tracer, so that
every layer's span metrics also count the probes' calls and a layer that a
workload leaves idle still reports a measured value.
"""

import random
import statistics
import time

import numpy as np

import workloads as W


def _rows(rng, n, k, alpha=1.0):
    return np.array([W.dirichlet(rng, [alpha] * k) for _ in range(n)])


def _static(rng, n, k):
    """Decomposable network (3 closed classes plus transients), M and H."""
    return (np.array(W.static_network(rng, n, n // 4)), _rows(rng, n, k),
            np.array(W.static_concepts(rng, k)))


def build(work):
    """Return the probes as (name, unit, call, per) with ``per`` calls per timing."""
    from beliefdyn import chains, clusters, ergodic, homogeneous, homophily
    from beliefdyn import matrixio, rng as xrng, sampling
    from beliefdyn.stochastic import MatrixFamily

    def rng(name):
        return random.Random(f"probe:{name}")

    cfg = homophily.HomophilyConfig(eps_p=0.15, eps_h=0.1)
    probes = []
    for r in (10, 50, 100, 200):
        m = np.array(W.camp_beliefs(rng(f"build_network_r{r}"), r, 8))
        probes.append((f"probe.build_network_r{r}_s", "s",
                       lambda m=m: homophily.build_network(m, cfg), 1))
    m40 = np.array(W.camp_beliefs(rng("run_homophily"), 40, 8))
    probes.append(("probe.run_homophily_40x8_s", "s",
                   lambda: homophily.run_homophily(m40, cfg), 1))

    p, m, h = _static(rng("limit_q"), 100, 8)
    probes.append(("probe.limit_q_n100_s", "s", lambda: homogeneous.limit_q(p, m, h), 1))
    probes.append(("probe.homogeneous_certificate_n100_s", "s",
                   lambda: ergodic.homogeneous_rate_certificate(p, h, m=m), 1))
    p300, m300, h300 = _static(rng("evolve"), 300, 12)
    probes.append(("probe.evolve_300x12x200_s", "s",
                   lambda: homogeneous.evolve(p300, m300, h300, 200), 1))
    p400 = _static(rng("analyze"), 400, 2)[0]
    probes.append(("probe.analyze_n400_s", "s", lambda: chains.analyze(p400), 1))

    frng = rng("sampling")
    sp = MatrixFamily([W.tree_member(frng, 20) for _ in range(3)])
    sh = MatrixFamily([W.ring_member(frng, 6) for _ in range(3)])
    m20 = _rows(frng, 20, 6)
    probes.append(("probe.sample_trajectory_20x6x1000_s", "s",
                   lambda: sampling.sample_trajectory(sp, sh, m20, 7, 1000), 1))
    probes.append(("probe.diagnose_convergence_n20_s", "s",
                   lambda: (sampling.diagnose_convergence(sp),
                            sampling.expectation_matrix(sp)), 1))
    probes.append(("probe.inhomogeneous_certificate_n20_s", "s",
                   lambda: ergodic.inhomogeneous_rate_certificate(sp), 1))
    draws = 10_000
    weights = sp.weights

    def draw():
        gen = xrng.Xoshiro256StarStar(11, stream=1)
        for _ in range(draws):
            gen.next_index(weights)
    probes.append(("probe.xoshiro_draw_us", "us", draw, draws / 1e6))

    points = _rows(rng("clusters"), 30, 4)
    probes.append(("probe.epsilon_kl_clusters_30pt_s", "s",
                   lambda: clusters.epsilon_kl_clusters(points, 0.05), 1))
    hull = _rows(rng("frank_wolfe"), 20, 4)
    target = _rows(rng("frank_wolfe_target"), 1, 4)[0]
    probes.append(("probe.frank_wolfe_hull_to_point_20_s", "s",
                   lambda: clusters.min_kl_hull_to_point(hull, target), 1))

    big = _rows(rng("csv"), 400, 400, alpha=0.05)
    csv = work / "probe_400x400.csv"
    family_dir = work / "probe_family"
    family_dir.mkdir(parents=True, exist_ok=True)
    for k, member in enumerate(sp.members):
        matrixio.write_matrix(family_dir / f"member{k}.csv", member)
    probes.append(("probe.csv_write_400x400_s", "s",
                   lambda: matrixio.write_matrix(csv, big), 1))
    probes.append(("probe.csv_read_400x400_s", "s", lambda: matrixio.read_matrix(csv), 1))
    probes.append(("probe.load_family_3x20_s", "s",
                   lambda: matrixio.load_family(family_dir), 1))
    return probes


REPEATS = 3


def run(probes, tracer):
    """Time every probe untraced (median of REPEATS), then once traced."""
    values = {}
    for name, _unit, call, per in probes:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        values[name] = statistics.median(times) / per
    with tracer.installed():
        for name, _unit, call, _per in probes:
            tracer.op = name
            call()
    return values
