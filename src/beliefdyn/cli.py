"""Batch front door: config-driven runs with deterministic artifacts.

Every run resolves to a flat key=value configuration (either parsed from a
config file via the ``run`` subcommand or assembled from subcommand
flags), executes one mode, and writes its outputs plus a ``manifest.json``
recording the tool version, the configuration and its hash, the seed, and
the stabilization step.  Outputs carry no timestamps, so rerunning a
configuration reproduces every artifact byte for byte.

Config files are plain text: one ``key=value`` per line, ``#`` comments.
The only required key is ``mode``; the remaining keys match the
subcommand flags (``beliefdyn <mode> --help``).  Paths are resolved
relative to the config file.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chains import analyze, graph_of
from .clusters import epsilon_kl_clusters
from .ergodic import (homogeneous_rate_certificate,
                      inhomogeneous_rate_certificate)
from .homogeneous import evolve, limit_q
from .homophily import HomophilyConfig, StepLimitReached, run_homophily
from .matrixio import (format_value, load_family, read_matrix, write_matrix,
                       ParseError)
from .sampling import diagnose_convergence, expectation_matrix, sample_trajectories
from .stochastic import delta_coefficient, ingest_rounded
from .ternary import render_ternary

MODES = ("analyze", "evolve", "sample", "homophily", "clusters", "certify")


@dataclass
class RunConfig:
    """One resolved batch run: a mode plus its flat parameter map."""

    mode: str
    params: dict = field(default_factory=dict)
    out: Path = None
    seed: int = 0
    quiet: bool = False

    def canonical(self):
        items = {"mode": self.mode, "seed": str(self.seed)}
        items.update({k: str(v) for k, v in sorted(self.params.items())})
        return "\n".join(f"{k}={v}" for k, v in sorted(items.items())) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def parse_config(path):
    """Parse a flat key=value config file into a RunConfig."""
    path = Path(path)
    params = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, lineno, "expected key=value")
        key, value = line.split("=", 1)
        params[key.strip()] = value.strip()
    if "mode" not in params:
        raise ParseError(path, 0, "config must set mode=<" + "|".join(MODES) + ">")
    mode = params.pop("mode")
    if mode not in MODES:
        raise ParseError(path, 0, f"unknown mode {mode!r}")
    seed = int(params.pop("seed", "0"))
    out = params.pop("out", None)
    base = path.parent
    for key in list(params):
        if key in ("p", "m", "h", "sp_dir", "sh_dir", "family_dir"):
            params[key] = str((base / params[key]).resolve())
    if out is not None:
        out = (base / out).resolve()
    return RunConfig(mode=mode, params=params, out=out, seed=seed)


def _load(path):
    return ingest_rounded(read_matrix(path))


def _writer(out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    written = {}

    def write(name, text=None, matrix=None):
        p = out / name
        p.parent.mkdir(parents=True, exist_ok=True)
        if matrix is not None:
            write_matrix(p, matrix)
        else:
            p.write_text(text)
        written[name] = hashlib.sha256(p.read_bytes()).hexdigest()
        return p

    return out, write, written


def _groups_report(groups):
    body = ",".join("{" + ",".join(str(i + 1) for i in g) + "}" for g in groups)
    return f"{len(groups)} groups: {body}"


def _certificate_text(cert):
    lines = [
        f"kind={cert.kind}",
        f"base={format_value(cert.base)}",
        f"block={cert.block}",
        f"constant_hint={'' if cert.constant_hint is None else format_value(cert.constant_hint)}",
        f"witness_word={'' if cert.witness is None else ','.join(map(str, cert.witness))}",
    ]
    if cert.nu_star is not None:
        lines.append(f"nu_star={cert.nu_star}")
    if cert.per_structure:
        for k, v in sorted(cert.per_structure.items()):
            lines.append(f"lambda_{k}={format_value(v)}")
    return "\n".join(lines) + "\n"


def _mode_analyze(config, write, say):
    p = _load(config.params["p"])
    threshold = float(config.params.get("zero_threshold", "0"))
    result = analyze(p, zero_threshold=threshold)
    cond, states = result
    records = [
        {"record": "classes", "classes": [list(c) for c in cond.classes]},
        {"record": "leaves", "leaf_classes": [list(cond.classes[c]) for c in cond.leaf_classes]},
        {"record": "states",
         "recurrent": list(states.recurrent),
         "periods": [None if d == float("inf") else int(d) for d in states.periods]},
        {"record": "predicates",
         "irreducible": result.is_irreducible,
         "indecomposable": result.is_indecomposable,
         "aperiodic": result.is_aperiodic},
        {"record": "graph",
         "edges": sorted(list(e) for e in graph_of(p, threshold).edges)},
    ]
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    write("analysis.jsonl", text=text)
    say(text.rstrip("\n"))
    return {}


def _mode_evolve(config, write, say):
    p = _load(config.params["p"])
    m = _load(config.params["m"])
    h = _load(config.params["h"])
    steps = int(config.params.get("steps", "200"))
    tol = float(config.params.get("tol", "1e-9"))
    trace = evolve(p, m, h, steps, tol)
    write("q_final.csv", matrix=trace.final)
    if config.params.get("trace", "false").lower() == "true":
        for k, snap in enumerate(trace.snapshots):
            write(f"trace/q_{k:04d}.csv", matrix=snap)
    info = {"stabilized_at": trace.stabilized_at}
    if config.params.get("limit", "false").lower() == "true":
        report = limit_q(p, m, h)
        write("q_limit.csv", matrix=report.limit)
        say(f"limit case: {report.case} homogeneous: {report.homogeneous}")
        info["case"] = report.case
    say(f"evolved {steps} steps, stabilized_at={trace.stabilized_at}")
    return info


def _mode_sample(config, write, say):
    sp = load_family(config.params["sp_dir"])
    sh = load_family(config.params["sh_dir"])
    m = _load(config.params["m"])
    horizon = int(config.params.get("horizon", "300"))
    seeds = [int(s) for s in str(config.params.get("seeds", config.seed)).split(",")]
    deltas = []
    stabilized = None
    for run in sample_trajectories(sp, sh, m, seeds, horizon):
        write(f"q_seed{run.seed}.csv", matrix=run.final_q)
        deltas.append(delta_coefficient(run.final_q))
        stabilized = run.stabilized_at
    write("expectation_p.csv", matrix=expectation_matrix(sp))
    write("expectation_h.csv", matrix=expectation_matrix(sh))
    diag_p = diagnose_convergence(sp)
    diag_h = diagnose_convergence(sh)
    summary = {
        "seeds": seeds,
        "horizon": horizon,
        "max_final_delta": max(deltas),
        "network_almost_surely_rank_one": diag_p.almost_surely_rank_one,
        "concept_almost_surely_rank_one": diag_h.almost_surely_rank_one,
    }
    write("summary.json", text=json.dumps(summary, sort_keys=True, indent=2) + "\n")
    say(json.dumps(summary, sort_keys=True))
    return {"stabilized_at": stabilized}


def _mode_homophily(config, write, say):
    m = _load(config.params["m"])
    cfg = HomophilyConfig(
        eps_p=float(config.params["eps_p"]),
        eps_h=float(config.params["eps_h"]),
        beta=float(config.params.get("beta", "1")),
        tol=float(config.params.get("tol", "1e-9")),
        max_steps=int(config.params.get("max_steps", "100")),
        freeze_concepts=config.params.get("freeze_concepts", "false").lower() == "true",
        freeze_network=config.params.get("freeze_network", "false").lower() == "true",
    )
    try:
        trace = run_homophily(m, cfg)
    except StepLimitReached as exc:
        trace = exc.trace
        say("warning: step limit reached before stabilization")
    write("q_final.csv", matrix=trace.beliefs[-1])
    trace_dir = config.params.get("trace_out", "").strip()
    if trace_dir and trace_dir.lower() != "false":
        if trace_dir.lower() == "true":
            trace_dir = "trace"
        for t in range(1, len(trace.beliefs)):
            write(f"{trace_dir}/p_{t:03d}.csv", matrix=trace.networks[t - 1])
            write(f"{trace_dir}/h_{t:03d}.csv", matrix=trace.concepts[t - 1])
            write(f"{trace_dir}/q_{t:03d}.csv", matrix=trace.beliefs[t])
    if config.params.get("plot", "false").lower() == "true" and m.shape[1] == 3:
        for t in range(1, len(trace.beliefs)):
            linked = trace.networks[t - 1] > 0
            np.fill_diagonal(linked, False)
            links = [tuple(ij) for ij in np.argwhere(linked).tolist()]
            svg = render_ternary(trace.beliefs[t], links, region_eps=cfg.eps_p)
            write(f"frames/step_{t:03d}.svg", text=svg)
    report = _groups_report(trace.final_groups)
    write("groups.txt", text=report + "\n")
    say(report)
    say(f"stabilized_at={trace.stabilized_at}")
    return {"stabilized_at": trace.stabilized_at}


def _mode_clusters(config, write, say):
    m = _load(config.params["m"])
    axis = config.params.get("axis", "rows")
    if axis == "cols":
        from .stochastic import col_normalize
        points = col_normalize(m).T
    else:
        points = m
    epsilon = float(config.params["epsilon"])
    tol = float(config.params.get("tol", "1e-6"))
    partition = epsilon_kl_clusters(points, epsilon, tol)
    report = _groups_report(partition.clusters)
    write("clusters.txt", text=report + "\n")
    say(report)
    say(f"internal_condition_holds={partition.internal_condition_holds}")
    return {}


def _mode_certify(config, write, say):
    kind = config.params.get("kind", "homogeneous")
    if kind == "homogeneous":
        p = _load(config.params["p"])
        h = _load(config.params["h"])
        m = _load(config.params["m"]) if "m" in config.params else None
        cert = homogeneous_rate_certificate(p, h, m=m)
    elif kind == "inhomogeneous":
        family = load_family(config.params["family_dir"])
        nu = config.params.get("nu", "auto")
        cert = inhomogeneous_rate_certificate(
            family, nu=None if nu == "auto" else int(nu))
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    text = _certificate_text(cert)
    write("certificate.txt", text=text)
    say(text.rstrip("\n"))
    return {}


_RUNNERS = {
    "analyze": _mode_analyze,
    "evolve": _mode_evolve,
    "sample": _mode_sample,
    "homophily": _mode_homophily,
    "clusters": _mode_clusters,
    "certify": _mode_certify,
}


def run(config):
    """Execute one RunConfig; returns the manifest path.

    Fails fast: all referenced input files are parsed before any output is
    produced.
    """
    for key in ("p", "m", "h"):
        if key in config.params:
            _load(config.params[key])
    for key in ("sp_dir", "sh_dir", "family_dir"):
        if key in config.params:
            load_family(config.params[key])

    out = config.out if config.out is not None else Path.cwd() / "beliefdyn-out"
    out, write, written = _writer(out)

    def say(message):
        if not config.quiet:
            print(message)

    info = _RUNNERS[config.mode](config, write, say)

    manifest = {
        "tool": f"beliefdyn {__version__}",
        "mode": config.mode,
        "seed": config.seed,
        "config": dict(sorted({**config.params, "mode": config.mode,
                               "seed": str(config.seed)}.items())),
        "config_hash": config.config_hash(),
        "stabilized_at": info.get("stabilized_at"),
        "outputs": written,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def replay_manifest(path):
    """Re-run the configuration recorded in a manifest; returns new manifest path."""
    manifest = json.loads(Path(path).read_text())
    params = dict(manifest["config"])
    mode = params.pop("mode")
    seed = int(params.pop("seed", "0"))
    return run(RunConfig(mode=mode, params=params, out=Path(path).parent,
                         seed=seed, quiet=True))


def _add_common(sub):
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--quiet", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beliefdyn",
        description="Belief evolution over network and concept structures.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("run", help="execute a key=value config file")
    s.add_argument("config")
    _add_common(s)

    s = subs.add_parser("analyze", help="classes, leaves, periods, predicates")
    s.add_argument("--p", required=True)
    s.add_argument("--zero-threshold", type=float, default=0.0)
    _add_common(s)

    s = subs.add_parser("evolve", help="static-structure evolution")
    s.add_argument("--p", required=True)
    s.add_argument("--m", required=True)
    s.add_argument("--h", required=True)
    s.add_argument("--steps", type=int, default=200)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--limit", action="store_true", help="also write the closed-form limit")
    _add_common(s)

    s = subs.add_parser("sample", help="i.i.d. sampled structures")
    s.add_argument("--sp-dir", required=True)
    s.add_argument("--sh-dir", required=True)
    s.add_argument("--m", required=True)
    s.add_argument("--seeds", default="0")
    s.add_argument("--horizon", type=int, default=300)
    _add_common(s)

    s = subs.add_parser("homophily", help="belief-driven dynamic structures")
    s.add_argument("--m", required=True)
    s.add_argument("--eps-p", type=float, required=True)
    s.add_argument("--eps-h", type=float, required=True)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--max-steps", type=int, default=100)
    s.add_argument("--trace-out", nargs="?", const="trace", default=None,
                   help="write per-step P/H/Q CSVs into this subdirectory")
    s.add_argument("--plot", action="store_true")
    _add_common(s)

    s = subs.add_parser("clusters", help="eps-KL cluster lower bound")
    s.add_argument("--m", required=True)
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--axis", choices=("rows", "cols"), default="rows")
    s.add_argument("--tol", type=float, default=1e-6)
    _add_common(s)

    s = subs.add_parser("certify", help="convergence-rate certificates")
    s.add_argument("--kind", choices=("homogeneous", "inhomogeneous"),
                   default="homogeneous")
    s.add_argument("--p")
    s.add_argument("--h")
    s.add_argument("--m")
    s.add_argument("--family-dir")
    s.add_argument("--nu", default="auto")
    _add_common(s)

    return parser


_FLAG_KEYS = {
    "analyze": ["p", "zero_threshold"],
    "evolve": ["p", "m", "h", "steps", "tol", "trace", "limit"],
    "sample": ["sp_dir", "sh_dir", "m", "seeds", "horizon"],
    "homophily": ["m", "eps_p", "eps_h", "beta", "tol", "max_steps",
                  "trace_out", "plot"],
    "clusters": ["m", "epsilon", "axis", "tol"],
    "certify": ["kind", "p", "h", "m", "family_dir", "nu"],
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config)
            if args.out is not None:
                config.out = Path(args.out)
            config.quiet = args.quiet
        else:
            params = {}
            for key in _FLAG_KEYS[args.command]:
                value = getattr(args, key)
                if value is None:
                    continue
                params[key] = str(value).lower() if isinstance(value, bool) else str(value)
            config = RunConfig(
                mode=args.command, params=params,
                out=Path(args.out) if args.out else None,
                seed=args.seed, quiet=args.quiet)
        run(config)
        return 0
    except (ParseError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
