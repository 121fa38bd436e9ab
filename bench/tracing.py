"""In-process spans around the public functions of each ``beliefdyn`` layer.

Nothing inside the package changes: ``Tracer.installed()`` rebinds each
traced function in every ``beliefdyn.*`` namespace that binds it (the CLI
and ``clusters`` hold from-import copies) and on the RNG class, and puts the
originals back on exit.  Each call records a span with its parent and the
op it belongs to; a span's self time is its duration minus the time of the
spans and leaves nested in it.

Hot leaves (``kl_divergence``, ``next_index``, ``max_abs_diff``) run
hundreds of thousands of times per op, so they record no span: their
calls and time are folded into per-name totals and into the open parent
span.
"""

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

# Per-layer metrics read from the spans, named <module>.<function>.<stat>.
SPAN_METRICS = (
    "homophily.build_network.calls", "homophily.build_network.self_s",
    "homophily.build_concepts.self_s",
    "homophily.kl_divergence.calls", "homophily.kl_divergence.self_s",
    "homophily.softmax_weights.calls", "homophily.network_groups.self_s",
    "homophily.belief_groups.self_s", "homophily.run_homophily.total_s",
    "sampling.sample_trajectory.calls", "sampling.sample_trajectory.self_s",
    "sampling.diagnose_convergence.total_s", "sampling.expectation_matrix.self_s",
    "rng.next_index.calls", "rng.next_index.self_s", "rng.seed.calls",
    "ergodic.inhomogeneous_rate_certificate.total_s",
    "ergodic.inhomogeneous_rate_certificate.self_s",
    "ergodic.ergodic_coefficient.calls", "ergodic.ergodic_coefficient.self_s",
    "ergodic.exists_scrambling_product.self_s",
    "ergodic.homogeneous_rate_certificate.total_s",
    "ergodic.subdominant_modulus.self_s",
    "clusters.epsilon_kl_clusters.total_s",
    "clusters.min_kl_hull_to_hull.calls", "clusters.min_kl_hull_to_hull.self_s",
    "clusters.min_kl_hull_to_point.calls", "clusters.min_kl_hull_to_point.self_s",
    "clusters.errors",
    "chains.analyze.calls", "chains.analyze.self_s", "chains.analyze_pattern.calls",
    "chains.graph_of.self_s",
    "homogeneous.limit_q.total_s", "homogeneous.limit_q.self_s",
    "homogeneous.limit_structure.calls", "homogeneous.absorption_probabilities.self_s",
    "homogeneous.evolve.self_s",
    "matrixio.read_matrix.calls", "matrixio.read_matrix.self_s",
    "matrixio.read_matrix.bytes",
    "matrixio.write_matrix.calls", "matrixio.write_matrix.self_s",
    "matrixio.write_matrix.bytes", "matrixio.load_family.calls",
    "stochastic.validate_stochastic.calls", "stochastic.validate_stochastic.self_s",
    "stochastic.max_abs_diff.calls", "stochastic.max_abs_diff.self_s",
    "stochastic.matrix_power.self_s",
    "cli.main.total_s", "cli.main.self_s",
)

LEAVES = ("homophily.kl_divergence", "rng.next_index", "stochastic.max_abs_diff")

# Functions whose first argument is a file path: ``bytes`` adds its size.
_FILE_IO = ("matrixio.read_matrix", "matrixio.write_matrix")

# Metrics whose name does not spell out the traced function.
_ALIASES = {"clusters.errors": ("clusters.epsilon_kl_clusters", "errors")}

UNITS = {"calls": "count", "errors": "count", "bytes": "bytes", "self_s": "s",
         "total_s": "s"}


def _split(metric):
    """(traced function, statistic) of one metric name."""
    return _ALIASES.get(metric) or tuple(metric.rsplit(".", 1))


def unit(metric):
    return UNITS[_split(metric)[1]]


def traced_names():
    return sorted({_split(m)[0] for m in SPAN_METRICS})


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "bytes", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.bytes = 0
        self.errors = 0
        self.active = 0


class Tracer:
    """Collects spans in memory; ``op`` labels the spans of the current op."""

    def __init__(self):
        self.op = None
        self.spans = []
        self.stats = {}
        self._stack = []

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        if name in LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    stat.calls += 1
                    stat.self_s += elapsed
                    stat.total_s += elapsed
                    if stack:
                        parent = stack[-1]
                        parent[2] += elapsed
                        folded = parent[3].setdefault(name, [0, 0.0])
                        folded[0] += 1
                        folded[1] += elapsed
            return leaf

        file_io = name in _FILE_IO
        spans = self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), time.perf_counter(), 0.0, {}]
            spans.append(None)
            stack.append(frame)
            stat.active += 1
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            except Exception:
                stat.errors += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                stat.active -= 1
                duration = end - frame[1]
                own = duration - frame[2]
                stat.calls += 1
                stat.self_s += own
                if not stat.active:
                    stat.total_s += duration
                if stack:
                    stack[-1][2] += duration
                if file_io and done:
                    stat.bytes += os.stat(args[0]).st_size
                spans[frame[0]] = {"id": frame[0], "parent": parent, "op": self.op,
                                   "name": name, "start": frame[1], "end": end,
                                   "self_s": own, "folded": frame[3]}
        return span

    @contextmanager
    def installed(self):
        """Rebind every traced function while the block runs."""
        import beliefdyn.cli  # noqa: F401  (loads every layer module)
        from beliefdyn.rng import Xoshiro256StarStar

        modules = [m for n, m in list(sys.modules.items())
                   if n == "beliefdyn" or n.startswith("beliefdyn.")]
        originals = {}
        for name in traced_names():
            if name.startswith("rng."):
                continue
            module, func = name.split(".")
            originals[getattr(sys.modules[f"beliefdyn.{module}"], func)] = name
        wrappers = {fn: self.wrap(name, fn) for fn, name in originals.items()}
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        cls = Xoshiro256StarStar
        for attr, name in (("next_index", "rng.next_index"), ("__init__", "rng.seed")):
            patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
        try:
            yield self
        finally:
            for owner, attr, value in patched:
                setattr(owner, attr, value)

    def metrics(self):
        out = {}
        for metric in SPAN_METRICS:
            name, stat = _split(metric)
            out[metric] = getattr(self.stats.get(name) or _Stat(), stat)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
