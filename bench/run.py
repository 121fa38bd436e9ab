"""Benchmark runner for beliefdyn: one workload, closed loop, one client.

    python3 bench/run.py --workload static-study --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout.  It writes the workload's inputs
from ``--seed`` under ``.bench_work/``, then:

* ``--trace 0``: measures the import floor (``setup_s``), then runs the
  workload's ops as ``python -m beliefdyn.cli run <cfg>`` child processes,
  one at a time, cycling over the workload's instances while the next
  cycle still fits in ``--seconds``.  Every op's outputs are checked
  (``checks.py``), and its times are scaled to a reference CPU speed by the
  calibrations run before and after it.  Prints the end-to-end metrics.
* ``--trace 1``: runs one pass of the first instance in-process through
  ``beliefdyn.cli.main``, untraced, traced (``tracing.py``) and untraced
  again, then the layer probes (``probes.py``).  Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when a result was printed, 2 when the checkout cannot be benchmarked.
"""

import os

# Children and the in-process traced run use one BLAS thread, so an op's
# time does not depend on what else runs on the other cores.  Set before
# numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# name -> unit, for the --trace 0 result
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 9


class CheckoutError(RuntimeError):
    """The directory is not a beliefdyn source checkout."""


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv, log_path):
    """Run one child to completion; wall time and rusage from ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log_path),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(op):
    return ["run", str(op.cfg), "--out", str(op.out), "--quiet"]


def require_checkout():
    if not (SRC / "beliefdyn" / "cli.py").is_file():
        raise CheckoutError(f"{SRC / 'beliefdyn'} not found: run from a beliefdyn checkout")


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def environment():
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "git_revision": git_revision(),
        "client": "closed loop, 1 client, 1 CLI process at a time",
    }


def load_references(workload):
    return json.loads((BENCH / "reference.json").read_text())[workload]


# A fresh interpreter running a fixed pure-Python loop, independent of
# beliefdyn.  On the 2-vCPU host this benchmark was built on, the CPU ran
# pure-Python code in two speeds about 1.4x apart, switching every few
# seconds to minutes; runs landing in different speeds put the spread of raw
# run_s over ten seeds at 0.28.  Each op's times are scaled by the mean of
# the calibrations run just before and just after it.
CALIBRATION = "s = 0\nfor i in range(300000):\n    s += i * i\n"

# Calibration wall time at the reference speed: scaled op times are seconds
# at the speed where one calibration takes this long.
REFERENCE_CAL_S = 0.1


def calibrate(logs):
    return spawn(["-c", CALIBRATION], logs / "calibration.log").wall_s


def measure_setup(logs):
    """Wall times of fresh interpreters importing beliefdyn.cli."""
    probe = (f"import sys, beliefdyn.cli; "
             f"sys.exit(beliefdyn.cli.__file__ != {str(SRC / 'beliefdyn' / 'cli.py')!r})")
    times = []
    for _ in range(SETUP_REPEATS):
        child = spawn(["-c", probe], logs / "setup.log")
        if child.exit_code != 0:
            raise CheckoutError("beliefdyn.cli did not import from " + str(SRC))
        times.append(child.wall_s)
    return times


def run_untraced(workload, instances, checker, seconds, logs):
    setup = measure_setup(logs)
    passes = {inst.name: [] for inst in instances}
    attempted = failed = 0
    peak_rss = 0.0
    start = time.perf_counter()
    cycle_s = 0.0
    cal = [calibrate(logs)]
    # Whole cycles over the instances; none starts that would end past the
    # deadline, judged by the last cycle, but at least one always runs.
    while not cycle_s or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        for inst in instances:
            # wall, cpu: unscaled; wall_ref, cpu_ref: at the reference speed
            sums = [0.0, 0.0, 0.0, 0.0]
            for op in inst.ops:
                shutil.rmtree(op.out, ignore_errors=True)
                child = spawn(["-m", "beliefdyn.cli", *cli_argv(op)],
                              logs / f"{inst.name}_{op.name}.log")
                cal.append(calibrate(logs))
                attempted += 1
                problems = checker.check(inst, op, child.exit_code)
                if problems:
                    failed += 1
                    print(f"FAILED {workload} {inst.name}/{op.name}: "
                          + "; ".join(problems[:5]), file=sys.stderr)
                scale = REFERENCE_CAL_S / ((cal[-2] + cal[-1]) / 2)
                for k, value in enumerate((child.wall_s, child.cpu_s,
                                           child.wall_s * scale, child.cpu_s * scale)):
                    sums[k] += value
                peak_rss = max(peak_rss, child.rss_mb)
            passes[inst.name].append(sums)
        cycle_s = time.perf_counter() - cycle_start

    def per_pass(k):
        """A pass over every instance, taking each instance at its median."""
        return sum(statistics.median(p[k] for p in ps) for ps in passes.values())

    metrics = {
        "run_s": per_pass(2),
        "cpu_s": per_pass(3),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
    }
    counts = sorted({len(p) for p in passes.values()})
    print(f"# {workload}: {len(instances)} instances, passes per instance {counts}, "
          f"{attempted} ops; run_s and cpu_s sum each instance's median pass "
          f"(fewer than 20 passes support no percentile above the median)")
    print(f"# unscaled run_s {per_pass(0)!r} s, cpu_s {per_pass(1)!r} s; "
          f"median calibration {statistics.median(cal)!r} s of {len(cal)}")
    return metrics, attempted, failed


def _in_process(main, inst, checker, tracer=None):
    """One pass of ``inst`` through ``main``; returns (wall seconds, failures)."""
    wall = 0.0
    failed = 0
    for op in inst.ops:
        shutil.rmtree(op.out, ignore_errors=True)
        if tracer is not None:
            tracer.op = f"{inst.name}/{op.name}"
        start = time.perf_counter()
        try:
            code = main(cli_argv(op))
        except Exception:
            traceback.print_exc()
            code = 1
        wall += time.perf_counter() - start
        problems = checker.check(inst, op, code)
        if problems:
            failed += 1
            print(f"FAILED traced {inst.name}/{op.name}: " + "; ".join(problems[:5]),
                  file=sys.stderr)
    return wall, failed


def run_traced(workload, instances, checker):
    sys.path.insert(0, str(SRC))
    import beliefdyn.cli

    if Path(beliefdyn.cli.__file__).resolve() != (SRC / "beliefdyn" / "cli.py").resolve():
        raise CheckoutError("beliefdyn.cli did not import from " + str(SRC))
    inst = instances[0]
    # Untraced passes before and after the traced one, so drift in machine
    # speed cancels from trace.overhead_s to first order.
    before_s, failed_before = _in_process(beliefdyn.cli.main, inst, checker)
    tracer = tracing.Tracer()
    with tracer.installed():
        # Looked up per call, so the traced wrapper of main runs.
        traced_s, failed_traced = _in_process(lambda argv: beliefdyn.cli.main(argv),
                                              inst, checker, tracer)
    after_s, failed_after = _in_process(beliefdyn.cli.main, inst, checker)
    probe_list = probes.build(WORK)
    probe_values = probes.run(probe_list, tracer)
    tracer.write(WORK / f"spans_{workload}.jsonl")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - (before_s + after_s) / 2
    metrics.update(probe_values)
    attempted = 3 * len(inst.ops)
    failed = failed_before + failed_traced + failed_after
    return metrics, per_layer_units(probe_list), attempted, failed


def per_layer_units(probe_list):
    """Unit of every per-layer metric, in the order they are reported."""
    units = {m: tracing.unit(m) for m in tracing.SPAN_METRICS}
    units["trace.overhead_s"] = "s"
    units.update({name: unit for name, unit, _, _ in probe_list})
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so spawn() stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        require_checkout()
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
        logs = WORK / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        env = environment()
        print("# environment " + json.dumps(env, sort_keys=True))
        print(f"# {args.workload}: {workloads.WORKLOADS[args.workload].scale}, "
              f"seed {args.seed}")
        instances = workloads.generate(args.workload, args.seed, WORK)
        checker = checks.OutputChecker(load_references(args.workload))
        if args.trace:
            metrics, units, attempted, failed = run_traced(args.workload, instances,
                                                           checker)
        else:
            metrics, attempted, failed = run_untraced(args.workload, instances, checker,
                                                      args.seconds, logs)
            units = END_TO_END
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
