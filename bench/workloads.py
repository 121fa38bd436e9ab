"""Seeded input generator for the benchmark workloads.

Every input the program sees (belief CSVs, family directories and the
``.cfg`` files that point at them) is written here with the standard
library's ``random.Random``, so one seed always yields the same bytes.

Each workload has a few fixed *base instances*, drawn once from the
workload's name.  The run seed relabels them: it draws a permutation of
the people and one of the concepts (or simplex coordinates) and writes the
permuted files.  Relabelling leaves the work the program does unchanged,
so runs with different seeds measure the same amount of work, while the
program still receives different bytes for every seed.  It also gives
every seed a stored reference: an output mapped back through the
permutation must match the base instance's reference output.

Inputs are never redrawn because an op fails: a failed op is counted.
"""

import random
from dataclasses import dataclass
from pathlib import Path

PEOPLE = "people"
CONCEPTS = "concepts"


@dataclass
class Op:
    """One CLI invocation: ``beliefdyn run <cfg> --out <out> --quiet``."""

    name: str
    cfg: Path
    out: Path


@dataclass
class Instance:
    """One relabelled base instance and the ops that run on it.

    ``perm[axis][j]`` is the base index of the entity written at position
    ``j`` of the files, for axis ``people`` or ``concepts``.
    """

    name: str
    ops: list
    perm: dict


@dataclass
class Workload:
    name: str
    instances: int
    build: object     # rng -> (matrices, cfgs, text files); see _write_instance
    scale: str


def dirichlet(rng, alpha):
    draws = [rng.gammavariate(a, 1.0) for a in alpha]
    total = sum(draws)
    return [d / total for d in draws]


def _normalized(row):
    total = sum(row)
    return [x / total for x in row]


def write_csv(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# rows=%d cols=%d" % (len(rows), len(rows[0]))]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# homophily-camps: the r^2 scalar-KL structure build does the work

CAMP_PEOPLE = 100
CAMP_CONCEPTS = 8
CAMPS = 4


def camp_beliefs(rng, people, concepts, camps=CAMPS):
    """Beliefs of people spread over camps: 80% camp centre, 20% own noise."""
    centers = [dirichlet(rng, [1.0] * concepts) for _ in range(camps)]
    rows = []
    for i in range(people):
        noise = dirichlet(rng, [1.0] * concepts)
        rows.append(_normalized([0.8 * c + 0.2 * e
                                 for c, e in zip(centers[i % camps], noise)]))
    return rows


def homophily_camps(rng):
    matrices = {"m.csv": ((PEOPLE, CONCEPTS),
                          camp_beliefs(rng, CAMP_PEOPLE, CAMP_CONCEPTS))}
    cfgs = {"homophily": dict(mode="homophily", m="m.csv", eps_p=0.15,
                              eps_h=0.1, beta=1, max_steps=100)}
    return matrices, cfgs, {}


# --------------------------------------------------------------------------
# sample-ensemble: pure-Python xoshiro draws, per-step products, |F|^nu words

ENSEMBLE_PEOPLE = 32
ENSEMBLE_CONCEPTS = 6
ENSEMBLE_MEMBERS = 3
ENSEMBLE_SEEDS = 64
ENSEMBLE_HORIZON = 2000


def tree_member(rng, n):
    """Sparse network member: a self link plus a link to the heap parent.

    All members share this pattern, so every length-5 word (the depth of
    a 32-node heap) is scrambling and no shorter one is: the certificate
    enumerates 3^5 words whatever the weights.
    """
    rows = [[1.0] + [0.0] * (n - 1)]
    for i in range(1, n):
        row = [0.0] * n
        w = 0.2 + 0.6 * rng.random()
        row[i] = w
        row[(i - 1) // 2] = 1.0 - w
        rows.append(row)
    return rows


def ring_member(rng, n):
    """Sparse concept member: self link, ring link and one random link."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        row[i] = 0.5 + rng.random()
        row[(i + 1) % n] = 0.5 + rng.random()
        row[rng.randrange(n)] += 0.5 * rng.random()
        rows.append(_normalized(row))
    return rows


def sample_ensemble(rng):
    matrices = {}
    for k in range(ENSEMBLE_MEMBERS):
        matrices[f"sp/member{k}.csv"] = ((PEOPLE, PEOPLE),
                                         tree_member(rng, ENSEMBLE_PEOPLE))
        matrices[f"sh/member{k}.csv"] = ((CONCEPTS, CONCEPTS),
                                         ring_member(rng, ENSEMBLE_CONCEPTS))
    matrices["m.csv"] = ((PEOPLE, CONCEPTS),
                         [dirichlet(rng, [1.0] * ENSEMBLE_CONCEPTS)
                          for _ in range(ENSEMBLE_PEOPLE)])
    weights = "".join(f"{k} {1 + rng.random():.6f}\n" for k in range(ENSEMBLE_MEMBERS))
    seeds = ",".join(str(rng.randrange(1 << 32)) for _ in range(ENSEMBLE_SEEDS))
    cfgs = {
        "sample": dict(mode="sample", sp_dir="sp", sh_dir="sh", m="m.csv",
                       seeds=seeds, horizon=ENSEMBLE_HORIZON),
        "certify": dict(mode="certify", kind="inhomogeneous", family_dir="sp",
                        nu="auto"),
    }
    return matrices, cfgs, {"sp/weights.txt": weights}


# --------------------------------------------------------------------------
# clusters-dirichlet: Frank-Wolfe hull solves

CLUSTER_POINTS = 40
CLUSTER_DIM = 4


def clusters_dirichlet(rng):
    points = [dirichlet(rng, [1.0] * CLUSTER_DIM) for _ in range(CLUSTER_POINTS)]
    matrices = {"m.csv": ((PEOPLE, CONCEPTS), points)}
    cfgs = {"clusters": dict(mode="clusters", m="m.csv", epsilon=0.05, axis="rows")}
    return matrices, cfgs, {}


# --------------------------------------------------------------------------
# static-study: chain analysis, closed-form limits, snapshot CSV writes

STATIC_PEOPLE = 400
STATIC_CONCEPTS = 12
STATIC_CLASSES = 3
STATIC_CLASS_SIZE = 100
STATIC_STEPS = 200


def static_network(rng, n=STATIC_PEOPLE, class_size=STATIC_CLASS_SIZE):
    """Three closed classes of ``class_size`` people; the rest are transient.

    Class members link to themselves (so classes are aperiodic), to the
    next member round a ring (so classes are strongly connected) and to 6
    random classmates.  Each transient person links to one class member
    and 6 random people anywhere, so every transient state drains into the
    classes.
    """
    closed = STATIC_CLASSES * class_size
    rows = []
    for i in range(n):
        row = [0.0] * n
        if i < closed:
            lo = i - i % class_size
            row[i] = 1.0 + rng.random()
            row[lo + (i - lo + 1) % class_size] = 1.0 + rng.random()
            for _ in range(6):
                row[lo + rng.randrange(class_size)] += rng.random()
        else:
            row[rng.randrange(closed)] = 1.0 + rng.random()
            for _ in range(6):
                row[rng.randrange(n)] += rng.random()
        rows.append(_normalized(row))
    return rows


def static_concepts(rng, s=STATIC_CONCEPTS):
    rows = []
    for i in range(s):
        row = [0.0] * s
        row[i] = 2.0 + rng.random()
        row[(i + 1) % s] = 1.0 + rng.random()
        row[rng.randrange(s)] += rng.random()
        rows.append(_normalized(row))
    return rows


def static_study(rng):
    matrices = {
        "p.csv": ((PEOPLE, PEOPLE), static_network(rng)),
        "h.csv": ((CONCEPTS, CONCEPTS), static_concepts(rng)),
        "m.csv": ((PEOPLE, CONCEPTS), [dirichlet(rng, [1.0] * STATIC_CONCEPTS)
                                       for _ in range(STATIC_PEOPLE)]),
    }
    cfgs = {
        "analyze": dict(mode="analyze", p="p.csv"),
        "evolve": dict(mode="evolve", p="p.csv", m="m.csv", h="h.csv",
                       steps=STATIC_STEPS, trace="true", limit="true"),
        "certify": dict(mode="certify", kind="homogeneous", p="p.csv", h="h.csv",
                        m="m.csv"),
    }
    return matrices, cfgs, {}


WORKLOADS = {
    w.name: w for w in (
        Workload("homophily-camps", 2, homophily_camps,
                 f"{CAMP_PEOPLE} people x {CAMP_CONCEPTS} concepts in {CAMPS} camps"),
        Workload("sample-ensemble", 1, sample_ensemble,
                 f"{ENSEMBLE_SEEDS} seeds x horizon {ENSEMBLE_HORIZON}, "
                 f"{ENSEMBLE_MEMBERS} members of {ENSEMBLE_PEOPLE} people and "
                 f"{ENSEMBLE_CONCEPTS} concepts"),
        Workload("clusters-dirichlet", 1, clusters_dirichlet,
                 f"{CLUSTER_POINTS} Dirichlet points in {CLUSTER_DIM}-d, eps 0.05"),
        Workload("static-study", 2, static_study,
                 f"{STATIC_PEOPLE} people x {STATIC_CONCEPTS} concepts, "
                 f"{STATIC_CLASSES} closed classes, {STATIC_STEPS} steps"),
    )
}


def _permute(rows, axes, perm):
    rows = [rows[i] for i in perm[axes[0]]]
    return [[row[j] for j in perm[axes[1]]] for row in rows]


def _write_instance(built, perm, root):
    matrices, cfgs, texts = built
    for rel, (axes, rows) in matrices.items():
        write_csv(root / rel, _permute(rows, axes, perm))
    for rel, text in texts.items():
        (root / rel).write_text(text)
    ops = []
    for name, params in cfgs.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in params.items()))
        ops.append(Op(name, cfg, root / f"out_{name}"))
    return ops


def generate(workload, seed, root):
    """Write the relabelled instances of ``workload`` for ``seed`` under ``root``."""
    spec = WORKLOADS[workload]
    relabel = random.Random(f"{workload}:relabel:{seed}")
    instances = []
    for k in range(spec.instances):
        built = spec.build(random.Random(f"{workload}:base:{k}"))
        matrices = built[0]
        sizes = {}
        for axes, rows in matrices.values():
            sizes[axes[0]] = len(rows)
            sizes[axes[1]] = len(rows[0])
        perm = {axis: relabel.sample(range(n), n) for axis, n in sorted(sizes.items())}
        base = Path(root) / workload / f"i{k}"
        instances.append(Instance(f"i{k}", _write_instance(built, perm, base), perm))
    return instances
