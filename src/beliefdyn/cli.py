"""Batch front door: config-driven runs with deterministic artifacts.

Every run resolves to a flat key=value configuration (either parsed from a
config file via the ``run`` subcommand or assembled from subcommand
flags), executes one mode, and writes its outputs plus a ``manifest.json``
recording the tool version, the configuration and its hash, the seed, and
the stabilization step.  Outputs carry no timestamps, so rerunning a
configuration reproduces every artifact byte for byte.

Config files are plain text: one ``key=value`` per line, ``#`` comments.
The only required key is ``mode``; the remaining keys match the
subcommand flags (``beliefdyn <mode> --help``), plus the homophily keys
``freeze_network`` and ``freeze_concepts``, which have no flag.  Paths are
resolved relative to the config file.

Run as a program (``beliefdyn`` or ``python -m beliefdyn.cli``), the
process ends through :func:`main_and_exit`, which skips the interpreter's
finalization.  That is safe because every artifact is written by this
process and closed before ``main`` returns: ``write_matrix``,
``write_bytes`` and ``write_text`` each close their file.
"""

import argparse
import atexit
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chains import NotSIAError, analyze, graph_of
from .clusters import epsilon_kl_clusters
from .ergodic import (BudgetExceededError, NotConvergentFamilyError,
                      homogeneous_rate_certificate,
                      inhomogeneous_rate_certificate)
from .homogeneous import evolve, limit_q
from .homophily import HomophilyConfig, StepLimitReached, run_homophily
from .matrixio import (format_value, load_family, read_matrix, write_matrix,
                       ParseError)
from .sampling import diagnose_convergence, expectation_matrix, sample_trajectories
from .stochastic import (DimensionMismatchError, ZeroSumError, col_normalize,
                         delta_coefficient, ingest_rounded)
from .ternary import render_ternary


class RunConfig:
    """One resolved batch run: a mode plus its flat parameter map."""

    def __init__(self, mode, params=None, out=None, seed=0, quiet=False):
        self.mode = mode
        self.params = {} if params is None else params
        self.out = out          # a Path, or None for ./beliefdyn-out
        self.seed = seed
        self.quiet = quiet

    def record(self):
        """Mode, seed and parameters as recorded text, sorted by key."""
        items = {**self.params, "mode": self.mode, "seed": self.seed}
        return {key: str(items[key]) for key in sorted(items)}

    def config_hash(self):
        """sha256 of the record as ``key=value`` lines."""
        canonical = "".join(f"{k}={v}\n" for k, v in self.record().items())
        return hashlib.sha256(canonical.encode()).hexdigest()


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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in params:
            raise ParseError(path, lineno, f"second value for {key}")
        params[key] = value
    if "mode" not in params:
        raise ParseError(path, 0, "config must set mode=<" + "|".join(MODES) + ">")
    mode = params.pop("mode")
    if mode not in MODES:
        raise ParseError(path, 0, f"unknown mode {mode!r}")
    seed = _read("seed", int, params.pop("seed", "0"))
    out = params.pop("out", None)
    base = path.parent
    for key, typ, _ in _MODES[mode][2]:
        if typ in _READERS and key in params:
            params[key] = str((base / params[key]).resolve())
    if out is not None:
        out = (base / out).resolve()
    return RunConfig(mode=mode, params=params, out=out, seed=seed)


def _load(path):
    return ingest_rounded(read_matrix(path))


def _writer(out):
    """Output directory ``out``'s ``path`` and ``write``, and its ``written`` digests.

    ``path(name)`` is where ``name`` goes, its directory made on first use,
    so not even ``out`` exists before the first file is written.
    ``write(name, text=...)`` writes one text file and ``write(name,
    matrix=...)`` one CSV through ``write_matrix``; each records the file's
    sha256 under ``name``.
    """
    out = Path(out)
    made = set()
    written = {}

    def path(name):
        p = out / name
        if p.parent not in made:
            p.parent.mkdir(parents=True, exist_ok=True)
            made.add(p.parent)
        return p

    def write(name, text=None, matrix=None):
        if text is not None:
            data = text.encode()
            path(name).write_bytes(data)
        else:
            data = write_matrix(path(name), matrix)
        written[name] = hashlib.sha256(data).hexdigest()

    return path, write, written


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


def _mode_analyze(v, write, say):
    p = v["p"]
    threshold = v["zero_threshold"]
    result = analyze(p, zero_threshold=threshold)
    classes = result.classes
    records = [
        {"record": "classes", "classes": [list(c) for c in classes]},
        {"record": "leaves", "leaf_classes": [list(classes[c]) for c in result.leaf_classes]},
        {"record": "states",
         "recurrent": list(result.recurrent),
         "periods": [None if d == float("inf") else int(d) for d in result.periods]},
        {"record": "predicates",
         "irreducible": result.is_irreducible,
         "indecomposable": result.is_indecomposable,
         "aperiodic": result.is_aperiodic},
        {"record": "graph", "edges": graph_of(p, threshold)},
    ]
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    write("analysis.jsonl", text=text)
    say(text.rstrip("\n"))


def _mode_evolve(v, write, say):
    p, m, h = v["p"], v["m"], v["h"]
    trace = evolve(p, m, h, v["steps"], v["tol"])
    write("q_final.csv", matrix=trace.final)
    if v["trace"]:
        for k, snap in enumerate(trace.beliefs):
            write(f"trace/q_{k:04d}.csv", matrix=snap)
    if v["limit"]:
        report = limit_q(p, m, h)
        write("q_limit.csv", matrix=report.limit)
        say(f"limit case: {report.case} homogeneous: {report.homogeneous}")
    say(f"evolved {v['steps']} steps, stabilized_at={trace.stabilized_at}")
    return trace.stabilized_at


def _mode_sample(v, write, say):
    sp, sh, m = v["sp_dir"], v["sh_dir"], v["m"]
    deltas = []
    stabilized = None
    for run in sample_trajectories(sp, sh, m, v["seeds"], v["horizon"]):
        write(f"q_seed{run.seed}.csv", matrix=run.final_q)
        deltas.append(delta_coefficient(run.final_q))
        stabilized = run.stabilized_at
    write("expectation_p.csv", matrix=expectation_matrix(sp))
    write("expectation_h.csv", matrix=expectation_matrix(sh))
    diag_p = diagnose_convergence(sp)
    diag_h = diagnose_convergence(sh)
    summary = {
        "seeds": v["seeds"],
        "horizon": v["horizon"],
        "max_final_delta": max(deltas),
        "network_almost_surely_rank_one": diag_p.almost_surely_rank_one,
        "concept_almost_surely_rank_one": diag_h.almost_surely_rank_one,
    }
    write("summary.json", text=json.dumps(summary, sort_keys=True, indent=2) + "\n")
    say(json.dumps(summary, sort_keys=True))
    return stabilized


def _mode_homophily(v, write, say):
    m = v["m"]
    if v["plot"] and m.shape[1] != 3:
        raise ValueError(f"plot draws m over 3 concepts, got {m.shape[1]}")
    cfg = HomophilyConfig(v["eps_p"], v["eps_h"], beta=v["beta"], tol=v["tol"],
                          max_steps=v["max_steps"], freeze_network=v["freeze_network"],
                          freeze_concepts=v["freeze_concepts"])
    try:
        trace = run_homophily(m, cfg)
    except StepLimitReached as exc:
        trace = exc.trace
        say("warning: step limit reached before stabilization")
    write("q_final.csv", matrix=trace.beliefs[-1])
    trace_dir = v["trace_out"]
    if trace_dir:
        for t in range(1, len(trace.beliefs)):
            write(f"{trace_dir}/p_{t:03d}.csv", matrix=trace.networks[t - 1])
            write(f"{trace_dir}/h_{t:03d}.csv", matrix=trace.concepts[t - 1])
            write(f"{trace_dir}/q_{t:03d}.csv", matrix=trace.beliefs[t])
    if v["plot"]:
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
    return trace.stabilized_at


def _mode_clusters(v, write, say):
    m = v["m"]
    points = col_normalize(m).T if v["axis"] == "cols" else m
    partition = epsilon_kl_clusters(points, v["epsilon"], v["tol"])
    report = _groups_report(partition.clusters)
    write("clusters.txt", text=report + "\n")
    say(report)
    say(f"internal_condition_holds={partition.internal_condition_holds}")
    say(f"hull_iterations={partition.iterations} "
        f"max_duality_gap={partition.max_gap:.3e} screened={partition.screened}")


def _mode_certify(v, write, say):
    if v["kind"] == "homogeneous":
        cert = homogeneous_rate_certificate(v["p"], v["h"], m=v["m"])
    else:
        cert = inhomogeneous_rate_certificate(v["family_dir"], nu=v["nu"])
    text = _certificate_text(cert)
    write("certificate.txt", text=text)
    say(text.rstrip("\n"))


def _count(text):
    count = int(text)
    if count < 0:
        raise ValueError("must be nonnegative")
    return count


def _seed_list(text):
    seeds = [int(s) for s in text.split(",")]
    if not all(0 <= s < 2 ** 64 for s in seeds):
        raise ValueError("each seed must be in [0, 2^64)")
    return seeds


def _trace_dir(text):
    """Subdirectory of the output directory for per-step CSVs: ``true`` is
    ``trace``; empty or ``false`` is none; an absolute or ``..`` path raises."""
    text = text.strip()
    name = {"": None, "false": None, "true": "trace"}.get(text.lower(), text)
    if name and (Path(name).is_absolute() or ".." in Path(name).parts):
        raise ValueError("must stay inside the output directory")
    return name


def _nu(text):
    if text == "auto":
        return None
    nu = int(text)
    if nu < 1:
        raise ValueError("must be auto or at least 1")
    return nu


_REQUIRED = object()    # no default: the flag must be given
_SEED = object()        # defaults to the run's seed
_READERS = (_load, load_family)     # types that read a file at their path

# the inputs each certify kind needs; the certify table leaves them optional
_CERTIFY_INPUTS = {"homogeneous": ("p", "h"), "inhomogeneous": ("family_dir",)}

# Each mode's runner, subcommand help and parameters.  A runner returns the
# run's stabilization step, or None where nothing stabilizes.  A parameter is
# (key, type, default): its flag is --key with dashes for underscores, and
# ``type`` reads its recorded text (a bool is a switch, a tuple lists the
# choices, a reader loads the file at that path, resolved against a config
# file's directory).  A flag run records every default; a None default
# leaves the key unrecorded until it is given.
_MODES = {
    "analyze": (_mode_analyze, "classes, leaves, periods, predicates", (
        ("p", _load, _REQUIRED), ("zero_threshold", float, 0.0))),
    "evolve": (_mode_evolve, "static-structure evolution", (
        ("p", _load, _REQUIRED), ("m", _load, _REQUIRED), ("h", _load, _REQUIRED),
        ("steps", _count, 200), ("tol", float, 1e-9), ("trace", bool, False),
        ("limit", bool, False))),
    "sample": (_mode_sample, "i.i.d. sampled structures", (
        ("sp_dir", load_family, _REQUIRED), ("sh_dir", load_family, _REQUIRED),
        ("m", _load, _REQUIRED), ("seeds", _seed_list, _SEED), ("horizon", _count, 300))),
    "homophily": (_mode_homophily, "belief-driven dynamic structures", (
        ("m", _load, _REQUIRED), ("eps_p", float, _REQUIRED), ("eps_h", float, _REQUIRED),
        ("beta", float, 1.0), ("tol", float, 1e-9), ("max_steps", int, 100),
        ("trace_out", _trace_dir, None), ("plot", bool, False),
        ("freeze_network", bool, False), ("freeze_concepts", bool, False))),
    "clusters": (_mode_clusters, "eps-KL clusters (group bound, concepts frozen)", (
        ("m", _load, _REQUIRED), ("epsilon", float, _REQUIRED),
        ("axis", ("rows", "cols"), "rows"), ("tol", float, 1e-6))),
    "certify": (_mode_certify, "convergence-rate certificates", (
        ("kind", tuple(_CERTIFY_INPUTS), "homogeneous"),
        ("p", _load, None), ("h", _load, None), ("m", _load, None),
        ("family_dir", load_family, None), ("nu", _nu, "auto"))),
}
MODES = tuple(_MODES)

# config-file keys with no flag
_CONFIG_ONLY = ("freeze_network", "freeze_concepts")

_HELP = {
    "limit": "also write the closed-form limit",
    "trace_out": "write per-step P/H/Q CSVs into this subdirectory",
}


def _text(value):
    """A parameter as a run records it: ``str``, with bools lowercased."""
    return str(value).lower() if isinstance(value, bool) else str(value)


def _read(key, typ, text):
    """``typ(text)``, re-raising a ValueError with the key and text named;
    a ParseError names its file already."""
    try:
        return typ(text)
    except ParseError:
        raise
    except ValueError as exc:
        raise ValueError(f"{key} {text!r}: {exc}") from None


def _values(config):
    """The run's parameters read by type, each absent one at its default.

    A key the mode does not read, a value outside its choices or rejected by
    its type (the error names the key), bool text other than true/false in
    any case, or a certify run without its kind's inputs raises ValueError.
    Files are read last, so any of these is reported before a bad file.
    """
    params = _MODES[config.mode][2]
    unknown = sorted(set(config.params) - {key for key, _, _ in params})
    if unknown:
        raise ValueError(f"mode {config.mode} does not read {', '.join(unknown)}")
    values = {}
    for key, typ, default in params:
        if key in config.params:
            text = config.params[key]
        elif default is _REQUIRED:
            raise ValueError(f"mode {config.mode} needs {key}")
        elif default is None:
            values[key] = None
            continue
        else:
            text = _text(config.seed if default is _SEED else default)
        if typ is bool:
            text = text.lower()
        choices = ("true", "false") if typ is bool else typ
        if isinstance(choices, tuple):
            if text not in choices:
                raise ValueError(f"{key} must be one of {'|'.join(choices)}, "
                                 f"got {text!r}")
            values[key] = text == "true" if typ is bool else text
        else:
            values[key] = text if typ in _READERS else _read(key, typ, text)
    for key in _CERTIFY_INPUTS.get(values.get("kind"), ()):
        if values[key] is None:
            raise ValueError(f"certify kind {values['kind']} needs {key}")
    for key, typ, _ in params:
        if typ in _READERS and values[key] is not None:
            values[key] = _read(key, typ, values[key])
    return values


def run(config):
    """Execute one RunConfig; returns the manifest path.

    Fails fast: the parameters are read and all referenced input files are
    parsed before any output is produced, and the mode runs on those
    parsed inputs.  A refusal of those inputs (shapes, a zero sum, no
    certificate) raises a ValueError naming the input keys read.
    """
    values = _values(config)
    out = config.out if config.out is not None else Path.cwd() / "beliefdyn-out"
    path, write, written = _writer(out)

    def say(message):
        if not config.quiet:
            print(message)

    runner, _, params = _MODES[config.mode]
    try:
        stabilized_at = runner(values, write, say)
    except (DimensionMismatchError, ZeroSumError, NotSIAError,
            NotConvergentFamilyError, BudgetExceededError) as exc:
        inputs = [key for key, typ, _ in params if typ in _READERS and values[key] is not None]
        raise ValueError(f"{', '.join(inputs)}: {exc}") from None

    manifest = {
        "tool": f"beliefdyn {__version__}",
        "mode": config.mode,
        "seed": config.seed,
        "config": config.record(),
        "config_hash": config.config_hash(),
        "stabilized_at": stabilized_at,
        "outputs": written,
    }
    manifest_path = path("manifest.json")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path


def _add_common(sub):
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--quiet", action="store_true")


def build_parser(command):
    """The parser of a command line whose first word is ``command``.

    Every subcommand is listed with its help line, so ``--help`` and an
    unknown command's error read the same whatever ``command`` is.  Flags
    are added to subcommand ``command`` alone: argparse reads only the
    flags of the subcommand it dispatches to, and building every mode's
    flags would add about 3 ms to each run.
    """
    parser = argparse.ArgumentParser(
        prog="beliefdyn",
        description="Belief evolution over network and concept structures.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("run", help="execute a key=value config file")
    if command == "run":
        s.add_argument("config")
        _add_common(s)

    for mode, (_, help_text, params) in _MODES.items():
        s = subs.add_parser(mode, help=help_text)
        if mode != command:
            continue
        for key, typ, default in params:
            if key in _CONFIG_ONLY:
                continue
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                s.add_argument(flag, action="store_true", help=_HELP.get(key))
            elif typ is _trace_dir:
                s.add_argument(flag, nargs="?", const="trace", help=_HELP[key])
            else:
                s.add_argument(
                    flag, required=default is _REQUIRED,
                    default=None if default in (_REQUIRED, _SEED) else default,
                    type={int: int, float: float, _count: int}.get(typ),
                    choices=typ if isinstance(typ, tuple) else None)
        _add_common(s)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config)
            if args.out is not None:
                config.out = Path(args.out)
            config.quiet = args.quiet
        else:
            params = {}
            for key, _, default in _MODES[args.command][2]:
                value = getattr(args, key, None)
                if value is None and default is _SEED:
                    value = args.seed
                if value is not None:
                    params[key] = _text(value)
            config = RunConfig(
                mode=args.command, params=params,
                out=Path(args.out) if args.out else None,
                seed=args.seed, quiet=args.quiet)
        run(config)
        return 0
    except (ParseError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_and_exit(argv=None):
    """Run ``main`` and end the process with its status, without finalization.

    The ``atexit`` handlers run and stdout and stderr are flushed, then
    ``os._exit`` skips the teardown of every loaded module, which costs
    about 20 ms after a run.  An exception ``main`` does not catch, or a
    flush that fails (a pipe whose reader has gone), goes through the
    normal shutdown, which reports it as it would without this function.
    A stream is None when its descriptor was closed at start-up.
    """
    status = main(argv)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    main_and_exit()
