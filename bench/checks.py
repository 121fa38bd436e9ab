"""Output checks for one op: exit code, manifest integrity, reference match.

An op's outputs are reduced to a *summary* in the base labelling of its
instance (see ``workloads``): discrete outputs (groups, clusters, chain
classes, certificate block and witness, ``stabilized_at``) as index sets
and integers, numeric CSVs as a fingerprint (shape, column sums and one
fixed weighted sum of the un-permuted matrix).  The summary must equal the
stored reference of the base instance: discrete values exactly, numbers
within ``TOLERANCE`` (absolute below 1, relative above).  The CSV reader
here is the benchmark's own, so a fault in the program's reader cannot
hide a fault in its writer.
"""

import hashlib
import json
import math

import numpy as np

TOLERANCE = 1e-9

# Snapshot steps of ``evolve --trace`` whose content is compared; the rest
# are covered by the manifest hashes and by repeating identically.
TRACE_STEPS = (0, 1, 2, 5, 10, 20, 50, 100, 200)


def read_csv(path):
    rows = [[float(tok) for tok in line.split(",")]
            for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    a = np.array(rows, dtype=float)
    if a.ndim != 2 or not np.all(np.isfinite(a)):
        raise ValueError(f"{path.name}: not a finite matrix")
    return a


def _unpermute(a, rows, cols):
    base = np.empty_like(a)
    base[np.ix_(rows, cols)] = a
    return base


def fingerprint(a):
    r, c = a.shape
    weights = ((np.arange(r)[:, None] * 7 + np.arange(c)[None, :] * 13) % 17 + 1) / 17.0
    return {
        "shape": [r, c],
        "colsum": [float(x) for x in a.sum(axis=0)],
        "wsum": float((a * weights).sum()),
        "stochastic": bool(np.all(a >= 0) and np.abs(a.sum(axis=1) - 1).max() < 1e-9),
    }


def _groups(text, people):
    head, _, body = text.strip().partition(" groups: ")
    groups = [[people[int(i) - 1] for i in g.strip("{}").split(",")]
              for g in body.split("},{")]
    if len(groups) != int(head):
        raise ValueError("group count does not match the listed groups")
    return sorted(sorted(g) for g in groups)


def _analysis(text, people):
    records = {}
    for line in text.splitlines():
        rec = json.loads(line)
        records[rec.pop("record")] = rec

    def sets(lists):
        return sorted(sorted(people[i] for i in s) for s in lists)

    def per_state(values):
        out = [None] * len(values)
        for j, v in enumerate(values):
            out[people[j]] = v
        return out

    return {
        "classes": sets(records["classes"]["classes"]),
        "leaves": sets(records["leaves"]["leaf_classes"]),
        "recurrent": per_state(records["states"]["recurrent"]),
        "periods": per_state(records["states"]["periods"]),
        "predicates": records["predicates"],
        "edges": _digest(sorted([people[i], people[j]]
                                for i, j in records["graph"]["edges"])),
    }


def _digest(value):
    """Exact stand-in for a long discrete value: its length and content hash."""
    text = json.dumps(value, separators=(",", ":"))
    return [len(value), hashlib.sha256(text.encode()).hexdigest()]


_CERT_INTS = ("block", "nu_star")


def _certificate(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key == "kind":
            out[key] = value
        elif key == "witness_word":
            out[key] = [int(x) for x in value.split(",")] if value else None
        elif key in _CERT_INTS:
            out[key] = int(value)
        else:
            out[key] = float(value) if value else None
    return out


def _csv_axes(name, perm):
    if name == "expectation_p.csv":
        return perm["people"], perm["people"]
    if name == "expectation_h.csv":
        return perm["concepts"], perm["concepts"]
    return perm["people"], perm["concepts"]


def _keep_snapshot(name):
    return int(name[len("trace/q_"):-len(".csv")]) in TRACE_STEPS


def summarize(out_dir, manifest, perm):
    """Reduce one op's outputs to its summary in base labelling."""
    people = perm["people"]
    files = {}
    for name in sorted(manifest["outputs"]):
        path = out_dir / name
        if name.endswith(".csv"):
            if name.startswith("trace/") and not _keep_snapshot(name):
                continue
            files[name] = fingerprint(_unpermute(read_csv(path), *_csv_axes(name, perm)))
        elif name in ("groups.txt", "clusters.txt"):
            files[name] = _groups(path.read_text(), people)
        elif name == "analysis.jsonl":
            files[name] = _analysis(path.read_text(), people)
        elif name == "certificate.txt":
            files[name] = _certificate(path.read_text())
        elif name == "summary.json":
            files[name] = json.loads(path.read_text())
        else:
            raise ValueError(f"unexpected output {name}")
    return {"outputs": sorted(manifest["outputs"]),
            "stabilized_at": manifest["stabilized_at"],
            "files": files}


def compare(expected, actual, where="summary"):
    """List every difference between two summaries (empty when they match)."""
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual):
        return [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict):
        if sorted(expected) != sorted(actual):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [d for k, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{where}[{k}]")]
    return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]


def read_manifest(out_dir, mode):
    """Load ``manifest.json`` and verify it lists every output with its hash."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest["mode"] != mode:
        raise ValueError(f"manifest mode {manifest['mode']!r}, expected {mode!r}")
    if not manifest["outputs"]:
        raise ValueError("manifest lists no outputs")
    for name, digest in manifest["outputs"].items():
        if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digest:
            raise ValueError(f"{name}: content does not match the manifest hash")
    return manifest


class OutputChecker:
    """Checks every op of a run against the stored references.

    The first time an op of an instance runs, its outputs are summarized
    and compared with the reference; later repeats must reproduce the
    first run's output hashes exactly.
    """

    def __init__(self, references):
        self.references = references
        self.hashes = {}

    def check(self, instance, op, exit_code):
        """Return the list of problems with one op's outputs."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        key = (instance.name, op.name)
        try:
            manifest = read_manifest(op.out, op.name)
            if key in self.hashes:
                if manifest["outputs"] != self.hashes[key]:
                    return ["outputs differ from the first run of this op"]
                return []
            summary = summarize(op.out, manifest, instance.perm)
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
        reference = self.references.get(instance.name, {}).get(op.name)
        if reference is None:
            return [f"no reference for {instance.name}/{op.name}"]
        problems = compare(reference, summary)
        if not problems:
            self.hashes[key] = manifest["outputs"]
        return problems
