import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beliefdyn import cli
from beliefdyn.cli import MODES, RunConfig, main, parse_config, run
from beliefdyn.homophily import HomophilyConfig, run_homophily
from beliefdyn.matrixio import ParseError, read_matrix, write_matrix
from util import shift_swap_merge

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
HELP = Path(__file__).resolve().parent / "help"

TWO_CAMP_LIMIT_ROW = np.array([0.285, 0.203, 0.200, 0.155, 0.156])


def run_dir(tmp_path, name):
    return str(tmp_path / name)


def test_evolve_fixture_reproduces_limit(tmp_path, capsys):
    out = run_dir(tmp_path, "evolve")
    assert main(["run", str(FIXTURES / "two_camp" / "evolve.cfg"),
                 "--out", out, "--quiet"]) == 0
    final = read_matrix(Path(out) / "q_final.csv")
    assert np.abs(final - TWO_CAMP_LIMIT_ROW).max() < 1e-3
    limit = read_matrix(Path(out) / "q_limit.csv")
    assert np.abs(limit - TWO_CAMP_LIMIT_ROW).max() < 1e-3


def test_homophily_fixture_group_report(tmp_path, capsys):
    out = run_dir(tmp_path, "homophily")
    assert main(["run", str(FIXTURES / "five_person" / "homophily.cfg"),
                 "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "3 groups: {1,5},{2,4},{3}" in printed
    assert (Path(out) / "groups.txt").read_text().startswith("3 groups:")


def test_analyze_jsonl_output(tmp_path):
    out = run_dir(tmp_path, "analyze")
    assert main(["analyze", "--p", str(FIXTURES / "two_camp" / "p.csv"),
                 "--out", out, "--quiet"]) == 0
    lines = (Path(out) / "analysis.jsonl").read_text().splitlines()
    records = {json.loads(l)["record"]: json.loads(l) for l in lines}
    assert records["classes"]["classes"] == [[0, 1, 2], [3, 4]]
    assert records["predicates"]["indecomposable"] is False
    assert records["predicates"]["aperiodic"] is True
    assert records["states"]["periods"] == [1, 1, 1, 1, 1]


# Successors of each state of a 12-state chain, each link equally weighted:
# closed classes {1,5,6,9} of period 2, {2,3,7,10} of period 3 and the
# self loop {4}; a transient cycle {8,11} that leaks into two of them; and
# a transient state 0 with no return.  The analysis.jsonl hash was recorded
# while each class's period still came from a breadth-first search of its own.
ANATOMY_LINKS = [[2, 8], [6, 9], [7], [2], [4], [6, 9],
                 [1, 5], [3, 10], [1, 11], [5], [2], [4, 8]]


def test_analyze_jsonl_pinned_on_periods_and_transients(tmp_path):
    p = np.zeros((12, 12))
    for i, links in enumerate(ANATOMY_LINKS):
        p[i, links] = 1.0 / len(links)
    write_matrix(tmp_path / "p.csv", p)
    out = tmp_path / "analyze"
    assert main(["analyze", "--p", str(tmp_path / "p.csv"),
                 "--out", str(out), "--quiet"]) == 0
    text = (out / "analysis.jsonl").read_bytes()
    states = json.loads(text.splitlines()[2])
    assert states["periods"] == [None, 2, 3, 3, 1, 2, 2, 3, 2, 2, 3, 2]
    assert hashlib.sha256(text).hexdigest() == (
        "c7f30d4689b29282427227a6c1796858a57579d7b3349602871bdde49302a3f6")


def test_sample_subcommand(tmp_path):
    out = run_dir(tmp_path, "sample")
    assert main(["sample",
                 "--sp-dir", str(FIXTURES / "single_leaf"),
                 "--sh-dir", str(FIXTURES / "identity3"),
                 "--m", str(FIXTURES / "identity3" / "member0.csv"),
                 "--seeds", "0,1,2", "--horizon", "400",
                 "--out", out, "--quiet"]) == 0
    summary = json.loads((Path(out) / "summary.json").read_text())
    assert summary["network_almost_surely_rank_one"] is True
    assert summary["max_final_delta"] < 1e-4
    for seed in (0, 1, 2):
        q = read_matrix(Path(out) / f"q_seed{seed}.csv")
        assert q.shape == (3, 3)


def test_clusters_subcommand(tmp_path, capsys):
    out = run_dir(tmp_path, "clusters")
    assert main(["run", str(FIXTURES / "five_person" / "clusters.cfg"),
                 "--out", out]) == 0
    text = (Path(out) / "clusters.txt").read_text()
    assert text.split(" ")[0].isdigit()
    solver = capsys.readouterr().out.splitlines()[-1]
    assert solver.startswith("hull_iterations=")
    assert "max_duality_gap=" in solver
    assert solver.split()[-1].startswith("screened=")


# manifest output hashes of `fixtures/five_person/clusters.cfg`, recorded
# before the cluster merges were decided by one certified joint solve
CLUSTERS_FIXTURE_OUTPUTS = {
    "clusters.txt":
        "fbfb4e25722a5fb1c409f6a3210d96572b66df7e5cc7fc74f42d475ef8e73adf",
}


def test_clusters_fixture_outputs_pinned(tmp_path):
    out = run_dir(tmp_path, "clusters")
    assert main(["run", str(FIXTURES / "five_person" / "clusters.cfg"),
                 "--out", out, "--quiet"]) == 0
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    assert manifest["outputs"] == CLUSTERS_FIXTURE_OUTPUTS


def test_certify_homogeneous(tmp_path, capsys):
    out = run_dir(tmp_path, "certify")
    assert main(["certify", "--kind", "homogeneous",
                 "--p", str(FIXTURES / "two_camp" / "p.csv"),
                 "--h", str(FIXTURES / "two_camp" / "h.csv"),
                 "--m", str(FIXTURES / "two_camp" / "m.csv"),
                 "--out", out, "--quiet"]) == 0
    text = (Path(out) / "certificate.txt").read_text()
    fields = dict(line.split("=", 1) for line in text.splitlines())
    assert fields["kind"] == "homogeneous"
    assert 0 <= float(fields["base"]) < 1
    assert fields["block"] == "1"
    assert float(fields["constant_hint"]) > 0


def test_certify_inhomogeneous(tmp_path):
    out = run_dir(tmp_path, "certify2")
    assert main(["certify", "--kind", "inhomogeneous",
                 "--family-dir", str(FIXTURES / "scrambling_pair"),
                 "--out", out, "--quiet"]) == 0
    fields = dict(line.split("=", 1)
                  for line in (Path(out) / "certificate.txt").read_text().splitlines())
    assert float(fields["base"]) == pytest.approx(0.7)
    assert fields["block"] == "1"
    assert fields["nu_star"] == "6"


# manifest output hashes of `certify --kind inhomogeneous` on the scrambling
# pair, recorded before the ergodic coefficient ran in row blocks
CERTIFY_INHOMOGENEOUS_OUTPUTS = {
    "certificate.txt":
        "64c8144aabe36a7d6c37cbae46deb5d194a7061e96d3a48485e66e2fecb84da0",
}


def test_certify_inhomogeneous_outputs_pinned(tmp_path, capsys):
    out = run_dir(tmp_path, "pair")
    assert main(["certify", "--kind", "inhomogeneous",
                 "--family-dir", str(FIXTURES / "scrambling_pair"),
                 "--out", out, "--quiet"]) == 0
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    assert manifest["outputs"] == CERTIFY_INHOMOGENEOUS_OUTPUTS
    # the single-leaf family has a member whose powers never scramble: the
    # certificate is refused and nothing is written
    out = run_dir(tmp_path, "leaf")
    assert main(["certify", "--kind", "inhomogeneous",
                 "--family-dir", str(FIXTURES / "single_leaf"),
                 "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: family_dir: no block length up to nu* = 6 makes every word scrambling\n")
    assert not list(Path(out).glob("*"))


REFUSAL_CSVS = {"swap": "0,1\n1,0\n", "half": "0.5,0.5\n0.5,0.5\n",
                "zero_column": "1,0,0\n0.5,0,0.5\n", "row_sum": "0.5,0.6\n0.5,0.5\n"}


@pytest.mark.parametrize("argv, line", [
    (["certify", "--kind", "homogeneous", "--p", "swap", "--h", "half"],
     "error: p, h: a periodic closed class has no geometric rate"),
    (["certify", "--kind", "inhomogeneous", "--family-dir",
      str(FIXTURES / "scrambling_pair"), "--nu", "18"],
     "error: family_dir: 262144 words of length 18 exceed the cap of 200000 words"),
    (["homophily", "--m", "zero_column", "--eps-p", "0.1", "--eps-h", "0.1"],
     "error: m: column 2 is identically zero"),
    (["analyze", "--p", "row_sum"], "error: p 'row_sum.csv': row 1 sums to 1.1 "
     "(tolerance 0.001000000001)"),
])
def test_mode_refusal_names_its_input(tmp_path, monkeypatch, capsys, argv, line):
    # every refusal names the keys it read and counts rows and columns from 1
    monkeypatch.chdir(tmp_path)
    for name, text in REFUSAL_CSVS.items():
        Path(f"{name}.csv").write_text(text)
    argv = [f"{arg}.csv" if arg in REFUSAL_CSVS else arg for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("nu", ["auto", "2"])
def test_certify_one_state_family(tmp_path, nu):
    # one state is consensus already: block 1 (or the given nu) at base 0,
    # though nu_star(1) is 0, and no word separates anything
    family = tmp_path / "one_state"
    family.mkdir()
    write_matrix(family / "member0.csv", np.ones((1, 1)))
    out = tmp_path / "out"
    assert main(["certify", "--kind", "inhomogeneous", "--family-dir", str(family),
                 "--nu", nu, "--out", str(out), "--quiet"]) == 0
    fields = dict(line.split("=", 1)
                  for line in (out / "certificate.txt").read_text().splitlines())
    assert float(fields["base"]) == 0.0
    assert fields["block"] == ("1" if nu == "auto" else nu)
    assert (fields["witness_word"], fields["nu_star"]) == ("", "0")


def test_homophily_plot_frames(tmp_path):
    out = run_dir(tmp_path, "triangle")
    assert main(["run", str(FIXTURES / "triangle" / "homophily.cfg"),
                 "--out", out, "--quiet"]) == 0
    frames = sorted((Path(out) / "frames").glob("*.svg"))
    assert frames
    assert frames[0].read_text().startswith("<svg")


def test_homophily_plot_needs_three_concepts(tmp_path, capsys):
    # the five-person beliefs are over 4 concepts, which no ternary frame draws
    out = tmp_path / "out"
    assert main(["homophily", "--m", str(FIXTURES / "five_person" / "m.csv"),
                 "--eps-p", "0.3", "--eps-h", "0.25", "--plot",
                 "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: plot draws m over 3 concepts, got 4\n")
    assert not out.exists()


def test_homophily_step_limit_writes_the_last_step(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["homophily", "--m", str(FIXTURES / "five_person" / "m.csv"),
                 "--eps-p", "0.3", "--eps-h", "0.25", "--max-steps", "1",
                 "--trace-out", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "warning: step limit reached before stabilization"
    assert (out / "groups.txt").read_text() == "3 groups: {1,5},{2,4},{3}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stabilized_at"] is None
    assert sorted(manifest["outputs"]) == [
        "groups.txt", "q_final.csv",
        "trace/h_001.csv", "trace/p_001.csv", "trace/q_001.csv"]
    assert all((out / name).is_file() for name in manifest["outputs"])


# manifest output hashes of the homophily fixtures: faster structure
# builds must leave every artifact byte-identical
HOMOPHILY_FIXTURE_OUTPUTS = {
    "five_person": {
        "groups.txt":
            "fbfb4e25722a5fb1c409f6a3210d96572b66df7e5cc7fc74f42d475ef8e73adf",
        "q_final.csv":
            "cf9ea57e64bf30238a10f7daa261c26263eba85c588a58aa5c0a0b7e1b8d9efa",
    },
    "triangle": {
        "frames/step_001.svg":
            "4b59db9847ecc56b1aca2a509b262ca95b91ffac7015c4f4fbc9b635a22ef68c",
        "frames/step_002.svg":
            "b9a5a4c038b72f5ce7490d4aa8beb154357cf9a7cf019e3499a2b8b8c2b688a1",
        "frames/step_003.svg":
            "b388f63d9aa40db16523ed41fa24f494464cf02bb5b731614033a3360306b6b4",
        "frames/step_004.svg":
            "d9533f7203acfd5306723649b6abd327a235a9db734fd4553d72fd6b421a0c0c",
        "frames/step_005.svg":
            "e78b684f95ee78e727a20cd333f11431f74b5b374a4891b626f987983a7917bf",
        "frames/step_006.svg":
            "e78b684f95ee78e727a20cd333f11431f74b5b374a4891b626f987983a7917bf",
        "groups.txt":
            "7c974008108d414836b4fdd713b7c55052995cd42d89cedcda351b999786ffbe",
        "q_final.csv":
            "dcaf8d8881d71b50c40ca6a5fc541caefd74da3371f96fad144e757176654166",
    },
}


@pytest.mark.parametrize("fixture", sorted(HOMOPHILY_FIXTURE_OUTPUTS))
def test_homophily_fixture_outputs_pinned(tmp_path, fixture):
    out = run_dir(tmp_path, fixture)
    assert main(["run", str(FIXTURES / fixture / "homophily.cfg"),
                 "--out", out, "--quiet"]) == 0
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    assert manifest["outputs"] == HOMOPHILY_FIXTURE_OUTPUTS[fixture]


# manifest output hashes of the README's `sample --seeds 0,1,2 --horizon 400`
# run: advancing all seeds together must leave every artifact byte-identical
SAMPLE_FIXTURE_OUTPUTS = {
    "expectation_h.csv":
        "ecbc5735746a86e97e470c77d2611b76f6be40abf6940c3f7bfb64a86f98cfbe",
    "expectation_p.csv":
        "e15a6ba2444d4a5eecfae11601079674a39949aaeba6444e3b5280d3c45892b5",
    "q_seed0.csv":
        "c4005822978a447040842e6864d99296fb4559a69ad85c52af56b9dd35e83f79",
    "q_seed1.csv":
        "6fdaefa321c4243225a83a65adf38e3bf53ed393a44343083f5ee33ad826095a",
    "q_seed2.csv":
        "ca5b9fee06bd295bc6e3ed5730163be160f144ba1a14d5495e65035e84ed3349",
    "summary.json":
        "5f3f294e443bacff95541c300a9a040799cf07e8df5eac5b4dc20b4ff468c2f3",
}


def test_sample_fixture_outputs_pinned(tmp_path):
    out = run_dir(tmp_path, "sample")
    assert main(["run", str(FIXTURES / "single_leaf" / "sample.cfg"),
                 "--out", out, "--quiet"]) == 0
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    assert manifest["outputs"] == SAMPLE_FIXTURE_OUTPUTS
    # seeds 0, 1 and 2 stabilize at steps 23, 2 and 6: the manifest records
    # the step by which every seed had
    assert manifest["stabilized_at"] == 23


# manifest output hashes of the `two_camp` runs, recorded before matrices
# were formatted by one `%` per matrix: every CSV artifact goes through
# that writer and must stay byte-identical
TWO_CAMP_LIMIT = "193e99325503c4d54d9d478b3dc53d2c476c22a4e700bb58acf3e4af2ced3820"
TWO_CAMP_FIXTURE_OUTPUTS = {
    "analyze": {
        "analysis.jsonl":
            "20e157579e38a01ec4a64a6f3b669e4f53ff6456ddd59bc8473489c2f2033dba",
    },
    "evolve": {"q_final.csv": TWO_CAMP_LIMIT, "q_limit.csv": TWO_CAMP_LIMIT},
}


def _two_camp_outputs(tmp_path, argv):
    out = run_dir(tmp_path, "two_camp")
    assert main(argv + ["--out", out, "--quiet"]) == 0
    return json.loads((Path(out) / "manifest.json").read_text())["outputs"]


@pytest.mark.parametrize("mode", sorted(TWO_CAMP_FIXTURE_OUTPUTS))
def test_two_camp_fixture_outputs_pinned(tmp_path, mode):
    outputs = _two_camp_outputs(
        tmp_path, ["run", str(FIXTURES / "two_camp" / f"{mode}.cfg")])
    assert outputs == TWO_CAMP_FIXTURE_OUTPUTS[mode]


def _two_camp_flags(*names):
    return [arg for name in names
            for arg in (f"--{name}", str(FIXTURES / "two_camp" / f"{name}.csv"))]


def test_two_camp_certificate_pinned(tmp_path):
    outputs = _two_camp_outputs(
        tmp_path, ["certify", "--kind", "homogeneous", *_two_camp_flags("p", "h", "m")])
    assert outputs == {
        "certificate.txt":
            "893316e70a90922e4b5a162ef366348da984a39276b9d695ce508de131591c8b",
    }


def _outputs_digest(outputs):
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


TWO_CAMP_TRACE_FLAGS = ["evolve", *_two_camp_flags("p", "m", "h"), "--trace", "--limit"]
TWO_CAMP_TRACE_DIGEST = "2a7d77ca22df2a9a136a20488617e7750a42bf63a0fba31be2326080aa394989"


def test_two_camp_trace_outputs_pinned(tmp_path):
    """201 snapshots of 5 people that reach one printed row by step 50, so
    the digest, recorded before the writer formatted each distinct row
    once, covers rows that reuse an earlier row's text."""
    outputs = _two_camp_outputs(tmp_path, TWO_CAMP_TRACE_FLAGS)
    assert len(outputs) == 203
    assert _outputs_digest(outputs) == TWO_CAMP_TRACE_DIGEST
    rows = [Path(tmp_path, "two_camp", "trace", f"q_{k:04d}.csv").read_bytes().splitlines()[1:]
            for k in range(201)]
    assert sum(map(len, rows)) == 1005
    assert sum(len(set(snapshot)) for snapshot in rows) == 255
    assert len(set(rows[50])) == 1


def test_trace_run_makes_each_directory_once(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self.relative_to(tmp_path))
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    _two_camp_outputs(
        tmp_path, ["evolve", *_two_camp_flags("p", "m", "h"), "--trace", "--limit"])
    assert made == [Path("two_camp"), Path("two_camp/trace")]


@pytest.mark.parametrize("planted", ["trace/q_0000.csv", "trace/q_0001.csv"])
def test_unwritable_trace_file_fails_without_manifest(tmp_path, capsys, planted):
    out = tmp_path / "out"
    (out / planted).mkdir(parents=True)
    assert main(["evolve", *_two_camp_flags("p", "m", "h"), "--trace",
                 "--out", str(out), "--quiet"]) == 2
    assert str(out / planted) in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_reruns_are_byte_identical(tmp_path):
    out_a = run_dir(tmp_path, "a")
    out_b = run_dir(tmp_path, "b")
    for out in (out_a, out_b):
        assert main(["run", str(FIXTURES / "five_person" / "homophily.cfg"),
                     "--out", out, "--quiet"]) == 0
    files_a = sorted(p.relative_to(out_a) for p in Path(out_a).rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in Path(out_b).rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (Path(out_a) / rel).read_bytes() == (Path(out_b) / rel).read_bytes()


def test_manifest_replay_reproduces_outputs(tmp_path):
    out = run_dir(tmp_path, "replay")
    config = parse_config(FIXTURES / "two_camp" / "evolve.cfg")
    config.out = Path(out)
    config.quiet = True
    manifest_path = run(config)
    manifest = json.loads(manifest_path.read_text())
    before = {name: (Path(out) / name).read_bytes() for name in manifest["outputs"]}
    # the recorded configuration alone is enough to run again
    params = dict(manifest["config"])
    replay = RunConfig(mode=params.pop("mode"), seed=int(params.pop("seed")),
                       params=params, out=Path(out), quiet=True)
    assert json.loads(run(replay).read_text()) == manifest
    after = {name: (Path(out) / name).read_bytes() for name in manifest["outputs"]}
    assert before == after


def test_manifest_records_hash_and_version(tmp_path):
    out = run_dir(tmp_path, "manifest")
    assert main(["run", str(FIXTURES / "two_camp" / "analyze.cfg"),
                 "--out", out, "--quiet"]) == 0
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    assert manifest["tool"].startswith("beliefdyn ")
    assert len(manifest["config_hash"]) == 64
    assert "analysis.jsonl" in manifest["outputs"]


def test_empty_config_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert main(["run", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_fails_before_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=evolve\np=missing.csv\nm=missing.csv\nh=missing.csv\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


TWO_CAMP = FIXTURES / "two_camp"
TWO_CAMP_EVOLVE = (f"mode=evolve\np={TWO_CAMP / 'p.csv'}\nm={TWO_CAMP / 'm.csv'}\n"
                   f"h={TWO_CAMP / 'h.csv'}\n")

SINGLE_LEAF_SAMPLE = (f"mode=sample\nsp_dir={FIXTURES / 'single_leaf'}\n"
                      f"sh_dir={FIXTURES / 'identity3'}\n"
                      f"m={FIXTURES / 'identity3' / 'member0.csv'}\n")


@pytest.mark.parametrize("lines, key", [
    (f"mode=clusters\nm={FIXTURES / 'five_person' / 'm.csv'}\nepsilon=0.3\n"
     "axis=columns\n", "axis"),
    (TWO_CAMP_EVOLVE + "limit=yes\n", "limit"),
    (f"mode=certify\nkind=bogus\np={TWO_CAMP / 'p.csv'}\n"
     f"h={TWO_CAMP / 'h.csv'}\n", "kind"),
    (TWO_CAMP_EVOLVE + "step=3\n", "step"),
    (TWO_CAMP_EVOLVE + "freeze_network=true\n", "freeze_network"),
    (f"mode=certify\nkind=homogeneous\np={TWO_CAMP / 'p.csv'}\n"
     f"m={TWO_CAMP / 'm.csv'}\n", "h"),
    (f"mode=certify\nkind=inhomogeneous\np={TWO_CAMP / 'p.csv'}\n"
     f"h={TWO_CAMP / 'h.csv'}\n", "family_dir"),
    (f"mode=clusters\nm={FIXTURES / 'five_person' / 'm.csv'}\nepsilon=nan\n",
     "epsilon"),
    (f"mode=analyze\np={TWO_CAMP / 'p.csv'}\nzero_threshold=nan\n", "zero_threshold"),
    (f"mode=homophily\nm={FIXTURES / 'five_person' / 'm.csv'}\neps_p=0.3\n"
     "eps_h=0.25\ntol=nan\n", "tol"),
    (f"mode=certify\nkind=inhomogeneous\nfamily_dir={FIXTURES / 'scrambling_pair'}\n"
     "nu=0\n", "nu"),
    (f"mode=certify\nkind=inhomogeneous\nfamily_dir={FIXTURES / 'scrambling_pair'}\n"
     "nu=-1\n", "nu"),
    (TWO_CAMP_EVOLVE + "tol=nan\n", "tol"),
    (TWO_CAMP_EVOLVE + "steps=-1\n", "steps"),
    (SINGLE_LEAF_SAMPLE + "horizon=-2\n", "horizon"),
    (SINGLE_LEAF_SAMPLE + "seeds=-3\n", "seeds"),
    (SINGLE_LEAF_SAMPLE + f"seeds=0,{2 ** 64}\n", "seeds"),
    (SINGLE_LEAF_SAMPLE + "seeds=\n", "seeds"),
    (SINGLE_LEAF_SAMPLE + "seed=-3\n", "seeds"),
    (SINGLE_LEAF_SAMPLE + "seed=abc\n", "seed"),
])
def test_bad_config_value_fails_before_outputs(tmp_path, capsys, lines, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err.split()
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["evolve", "--p", "p.csv", "--m", "m.csv", "--h", "h.csv", "--steps", "-1"], "steps"),
    (["sample", "--sp-dir", "a", "--sh-dir", "b", "--m", "m.csv", "--horizon", "-2"],
     "horizon"),
    (["sample", "--sp-dir", "a", "--sh-dir", "b", "--m", "m.csv", "--seeds=-3"], "seeds"),
    (["sample", "--sp-dir", "a", "--sh-dir", "b", "--m", "m.csv", "--seeds", ""], "seeds"),
    (["homophily", "--m", "m.csv", "--eps-p", "0.3", "--eps-h", "0.25", "--max-steps", "0"],
     "max_steps"),
    (["certify", "--kind", "inhomogeneous", "--family-dir", "family", "--nu", "0"], "nu"),
])
def test_bad_flag_value_is_one_error_line(tmp_path, capsys, argv, key):
    # the value is read before any input file, so the paths need not exist
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert len(printed.err.splitlines()) == 1
    assert printed.err.startswith("error: ") and key in printed.err.split()
    assert not out.exists()


# one bad value per case, with the other keys its mode needs; no file is
# read, since every value is read before any input file
BAD_VALUES = [
    ("evolve", {"p": "p.csv", "m": "m.csv", "h": "h.csv"}, "steps", "abc"),
    ("clusters", {"m": "m.csv", "epsilon": "0.3"}, "axis", "diag"),
    ("analyze", {"p": "p.csv"}, "seed", "x"),
    ("homophily", {"m": "m.csv", "eps_h": "0.25"}, "eps_p", "abc"),
    ("certify", {"p": "p.csv", "h": "h.csv"}, "kind", "other"),
    ("certify", {"kind": "inhomogeneous", "family_dir": "family"}, "nu", "0"),
]


@pytest.mark.parametrize("mode, given, key, text", BAD_VALUES,
                         ids=[f"{key}={text}" for _, _, key, text in BAD_VALUES])
def test_bad_value_is_the_same_line_as_flag_and_config_key(
        tmp_path, monkeypatch, capsys, mode, given, key, text):
    monkeypatch.chdir(tmp_path)
    given = {**given, key: text}
    flags = [arg for k, v in given.items() for arg in ("--" + k.replace("_", "-"), v)]
    (tmp_path / "run.cfg").write_text(
        f"mode={mode}\n" + "".join(f"{k}={v}\n" for k, v in given.items()))
    lines = []
    for argv in ([mode, *flags], ["run", "run.cfg"]):
        assert main(argv + ["--out", "out"]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        lines.append(printed.err.splitlines())
        assert len(lines[-1]) == 1 and lines[-1][0].startswith("error: ")
        assert lines[-1][0].split()[1] == key
    assert lines[0] == lines[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_run_seed_flag_overrides_the_config_seed(tmp_path):
    # the config sets no seeds, so the run's seed picks the one lane
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SINGLE_LEAF_SAMPLE + "horizon=50\nseed=4\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--seed", "7", "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["config"]["seed"] == "7"
    assert "q_seed7.csv" in manifest["outputs"]
    assert "q_seed4.csv" not in manifest["outputs"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--p", str(TWO_CAMP / "p.csv")],
    ["run", str(FIXTURES / "two_camp" / "analyze.cfg")],
], ids=["flags", "run"])
def test_empty_out_flag_means_not_given(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "", "--quiet"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["beliefdyn-out"]
    assert (tmp_path / "beliefdyn-out" / "manifest.json").is_file()


def test_zero_step_counts_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TWO_CAMP_EVOLVE + "steps=0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "evolve"), "--quiet"]) == 0
    final = read_matrix(tmp_path / "evolve" / "q_final.csv")
    assert np.array_equal(final, read_matrix(TWO_CAMP / "m.csv"))
    cfg.write_text(SINGLE_LEAF_SAMPLE + "horizon=0\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "sample"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "sample" / "summary.json").read_text())
    assert summary["horizon"] == 0


def test_repeated_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode=analyze\np={TWO_CAMP / 'p.csv'}\nzero_threshold=0.5\n"
                   "zero_threshold=0\n")
    with pytest.raises(ParseError, match="run.cfg:4: second value for zero_threshold$"):
        parse_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "run.cfg:4:" in capsys.readouterr().err
    assert not out.exists()


def test_library_rejected_flag_leaves_no_directory(tmp_path, capsys):
    # only evolve itself rejects a NaN tol
    out = tmp_path / "X"
    assert main(["evolve", *_two_camp_flags("p", "m", "h"), "--tol", "nan",
                 "--out", str(out)]) == 2
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


def test_certify_never_scrambling_family_fails_fast(tmp_path, capsys):
    # nu* is 9.3e14 at 32 states; the pumped prefix decides after length 2
    family = tmp_path / "identity32"
    family.mkdir()
    write_matrix(family / "member0.csv", np.eye(32))
    start = time.perf_counter()
    assert main(["certify", "--kind", "inhomogeneous", "--family-dir", str(family),
                 "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 5
    assert "nu* = 926505799458625" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_certify_given_nu_on_never_scrambling_family_fails_fast(tmp_path, capsys):
    # no word over the identity scrambles, which is decided before any of
    # the one length-nu word's products (about 2 s per million)
    start = time.perf_counter()
    assert main(["certify", "--kind", "inhomogeneous",
                 "--family-dir", str(FIXTURES / "identity3"), "--nu", "10000000",
                 "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 5
    assert "a length-nu word is not scrambling" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_certify_permutation_family_fails_fast(tmp_path, capsys):
    # a cycle and a swap generate all 7! permutations, none scrambling
    family = tmp_path / "cycle_swap7"
    family.mkdir()
    write_matrix(family / "member0.csv", np.roll(np.eye(7), 1, axis=1))
    write_matrix(family / "member1.csv", np.eye(7)[[1, 0, 2, 3, 4, 5, 6]])
    start = time.perf_counter()
    assert main(["certify", "--kind", "inhomogeneous", "--family-dir", str(family),
                 "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 5
    assert "nu* = 966" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [6, 7, 8])
def test_sample_family_past_a_pattern_search(tmp_path, n):
    # some word scrambles, but a search of the pattern semigroup outgrows its cap
    family = tmp_path / f"shift_swap_merge{n}"
    family.mkdir()
    for k, member in enumerate(shift_swap_merge(n).members):
        write_matrix(family / f"member{k}.csv", member)
    write_matrix(tmp_path / "m.csv", np.full((n, 3), 1 / 3))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["sample", "--sp-dir", str(family),
                 "--sh-dir", str(FIXTURES / "identity3"), "--m", str(tmp_path / "m.csv"),
                 "--horizon", "50", "--out", str(out), "--quiet"]) == 0
    assert time.perf_counter() - start < 1
    assert (out / "manifest.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["network_almost_surely_rank_one"] is True


@pytest.mark.parametrize("flags, key", [
    (["--kind", "homogeneous", *_two_camp_flags("p", "m")], "h"),
    (["--kind", "inhomogeneous", *_two_camp_flags("p", "h")], "family_dir"),
])
def test_certify_without_kind_inputs_fails_before_outputs(tmp_path, capsys, flags, key):
    out = tmp_path / "out"
    assert main(["certify", *flags, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err.split()
    assert not out.exists()


@pytest.mark.parametrize("flags, key", [
    (["--kind", "homogeneous", *_two_camp_flags("p", "h"), "--nu", "5"], "nu"),
    (["--kind", "homogeneous", *_two_camp_flags("p", "h"), "--family-dir", "missing"],
     "family_dir"),
    (["--kind", "inhomogeneous", "--family-dir", str(FIXTURES / "scrambling_pair"),
      "--p", str(FIXTURES / "two_camp" / "p.csv")], "p"),
    (["--kind", "inhomogeneous", "--family-dir", str(FIXTURES / "scrambling_pair"),
      "--m", "missing.csv"], "m"),
])
def test_certify_key_of_the_other_kind_fails_before_outputs(tmp_path, capsys, flags, key):
    # refused before any file is read, so a missing path is not reported
    out = tmp_path / "out"
    assert main(["certify", *flags, "--out", str(out)]) == 2
    kind = flags[1]
    assert capsys.readouterr().err == f"error: certify kind {kind} does not read {key}\n"
    assert not out.exists()


def test_certify_near_rank_one_society(tmp_path):
    # base is about 1e-14, so its powers underflow to 0 within the probe
    (tmp_path / "p.csv").write_text("0.5000001,0.4999999\n0.5,0.5\n")
    (tmp_path / "h.csv").write_text("0.3000001,0.6999999\n0.3,0.7\n")
    out = tmp_path / "out"
    assert main(["certify", "--p", str(tmp_path / "p.csv"), "--h", str(tmp_path / "h.csv"),
                 "--out", str(out), "--quiet"]) == 0
    fields = dict(line.split("=", 1)
                  for line in (out / "certificate.txt").read_text().splitlines())
    assert float(fields["base"]) == pytest.approx(1e-14)
    assert np.isfinite(float(fields["constant_hint"]))


def test_seed_out_and_config_only_keys_are_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode=homophily\nm={FIXTURES / 'five_person' / 'm.csv'}\n"
                   "eps_p=0.3\neps_h=0.25\nseed=4\nout=res\n"
                   "freeze_network=true\nfreeze_concepts=false\n")
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert json.loads((tmp_path / "res" / "manifest.json").read_text())["seed"] == 4


def test_bool_config_values_ignore_case(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TWO_CAMP_EVOLVE + "limit=TRUE\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert "q_limit.csv" in json.loads((out / "manifest.json").read_text())["outputs"]


# `config` and `config_hash` of one flag run per subcommand, recorded before
# the flags, their defaults and the typed reads came from one per-mode
# table; paths are given relative to the repository root
FLAG_RUNS = {
    "analyze": (
        ["analyze", "--p", "fixtures/two_camp/p.csv"],
        {"p": "fixtures/two_camp/p.csv", "zero_threshold": "0.0"},
        "5080dffab5d61c3906ecdb7bd4897e6884f2df23e73378e7e66c98276d38ee71"),
    "evolve": (
        ["evolve", "--p", "fixtures/two_camp/p.csv", "--m", "fixtures/two_camp/m.csv",
         "--h", "fixtures/two_camp/h.csv", "--limit"],
        {"h": "fixtures/two_camp/h.csv", "limit": "true", "m": "fixtures/two_camp/m.csv",
         "p": "fixtures/two_camp/p.csv", "steps": "200", "tol": "1e-09", "trace": "false"},
        "d8466f7fd9e7e9094cd8c8a1bfa372c6b4c2d2749482c307fe0922c6080fcacf"),
    "sample": (
        ["sample", "--sp-dir", "fixtures/single_leaf", "--sh-dir", "fixtures/identity3",
         "--m", "fixtures/identity3/member0.csv", "--horizon", "50"],
        {"horizon": "50", "m": "fixtures/identity3/member0.csv", "seeds": "0",
         "sh_dir": "fixtures/identity3", "sp_dir": "fixtures/single_leaf"},
        "bf2cba26cd14ea0b51893c5d79af58c172e7101855ad8d65a9aca11272920a55"),
    "homophily": (
        ["homophily", "--m", "fixtures/five_person/m.csv", "--eps-p", "0.3",
         "--eps-h", "0.25", "--trace-out"],
        {"beta": "1.0", "eps_h": "0.25", "eps_p": "0.3", "m": "fixtures/five_person/m.csv",
         "max_steps": "100", "plot": "false", "tol": "1e-09", "trace_out": "trace"},
        "cd2ed18316e363a188cd9abf7ef9d80aabd572ca3690775466d588b2bb786f2f"),
    "clusters": (
        ["clusters", "--m", "fixtures/five_person/m.csv", "--epsilon", "0.3"],
        {"axis": "rows", "epsilon": "0.3", "m": "fixtures/five_person/m.csv",
         "tol": "1e-06"},
        "95d4d8bc294c97d38f13395d612b950a2810c13394b254dd466d7ee31a6a1a5b"),
    "certify": (
        ["certify", "--kind", "inhomogeneous", "--family-dir", "fixtures/scrambling_pair"],
        {"family_dir": "fixtures/scrambling_pair", "kind": "inhomogeneous", "nu": "auto"},
        "b6ca0d455d68eca63efa4738fb632ae28e1700132e333409414632b3b2c59375"),
}


@pytest.mark.parametrize("mode", sorted(FLAG_RUNS))
def test_flag_run_config_pinned(tmp_path, monkeypatch, mode):
    argv, params, config_hash = FLAG_RUNS[mode]
    monkeypatch.chdir(FIXTURES.parent)
    assert main(argv + ["--out", str(tmp_path / mode), "--quiet"]) == 0
    manifest = json.loads((tmp_path / mode / "manifest.json").read_text())
    assert manifest["config"] == {**params, "mode": mode, "seed": "0"}
    assert manifest["config_hash"] == config_hash


SAMPLE_FLAGS = ["sample", "--sp-dir", str(FIXTURES / "single_leaf"),
                "--sh-dir", str(FIXTURES / "identity3"),
                "--m", str(FIXTURES / "identity3" / "member0.csv"), "--horizon", "50"]


@pytest.mark.parametrize("horizon, step", [("50", 23), ("10", None)])
def test_sample_stabilized_at_ignores_seed_order(tmp_path, horizon, step):
    # seed 0 stabilizes at step 23, after the 10-step horizon
    manifests = []
    for seeds in ("0,1,2", "2,1,0"):
        out = tmp_path / seeds
        assert main([*SAMPLE_FLAGS[:-1], horizon, "--seeds", seeds,
                     "--out", str(out), "--quiet"]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert [mf["stabilized_at"] for mf in manifests] == [step, step]
    # only summary.json, which lists the seeds in their order, differs
    del manifests[0]["outputs"]["summary.json"], manifests[1]["outputs"]["summary.json"]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


def test_allocation_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a real horizon of 1e13 asks for about 9 TiB, which an overcommitting
    # host may grant before the loop stalls
    def no_memory(*args):
        raise MemoryError("Unable to allocate 9.09 TiB for an array")

    monkeypatch.setattr(cli, "sample_trajectories", no_memory)
    out = tmp_path / "out"
    assert main(SAMPLE_FLAGS + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: sp_dir, sh_dir, m: Unable to allocate 9.09 TiB for an array\n")
    assert not out.exists()


def test_sample_seed_flag_without_seeds_runs_that_seed(tmp_path):
    out = tmp_path / "flags"
    assert main(SAMPLE_FLAGS + ["--seed", "5", "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == "5"
    assert "q_seed5.csv" in manifest["outputs"]
    assert "q_seed0.csv" not in manifest["outputs"]
    cfg = tmp_path / "seed5.cfg"
    cfg.write_text(f"mode=sample\nsp_dir={FIXTURES / 'single_leaf'}\n"
                   f"sh_dir={FIXTURES / 'identity3'}\n"
                   f"m={FIXTURES / 'identity3' / 'member0.csv'}\nhorizon=50\nseed=5\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "cfg"), "--quiet"]) == 0
    from_config = json.loads((tmp_path / "cfg" / "manifest.json").read_text())
    assert from_config["outputs"]["q_seed5.csv"] == manifest["outputs"]["q_seed5.csv"]


HOMOPHILY_FLAGS = ["homophily", "--m", str(FIXTURES / "five_person" / "m.csv"),
                   "--eps-p", "0.3", "--eps-h", "0.25"]
FIVE_PERSON_TRACE_DIGEST = "d192ff8ec8b25a4d6d987146cdb2e7ab57b20fe682a89ae4eae4a81b6d4bf6cd"


def test_five_person_trace_outputs_pinned(tmp_path):
    outputs = _two_camp_outputs(tmp_path, HOMOPHILY_FLAGS + ["--trace-out"])
    assert len(outputs) == 20
    assert _outputs_digest(outputs) == FIVE_PERSON_TRACE_DIGEST


def _no_fork():
    raise AssertionError("a trace write forked")


@pytest.mark.parametrize("argv, digest", [
    (TWO_CAMP_TRACE_FLAGS, TWO_CAMP_TRACE_DIGEST),
    (HOMOPHILY_FLAGS + ["--trace-out"], FIVE_PERSON_TRACE_DIGEST),
], ids=["evolve", "homophily"])
def test_trace_files_are_written_without_forking(tmp_path, monkeypatch, argv, digest):
    # two usable CPUs, and no process may be forked to use the second
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _outputs_digest(_two_camp_outputs(tmp_path, argv)) == digest


@pytest.mark.parametrize("route, setting, trace_dir", [
    ("flag", ["--trace-out"], "trace"),
    ("flag", ["--trace-out", "steps"], "steps"),
    ("config", "trace_out=true", "trace"),
    ("config", "trace_out=false", None),
])
def test_homophily_trace_out(tmp_path, route, setting, trace_dir):
    out = tmp_path / "out"
    if route == "flag":
        argv = HOMOPHILY_FLAGS + setting
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode=homophily\nm={FIXTURES / 'five_person' / 'm.csv'}\n"
                       f"eps_p=0.3\neps_h=0.25\n{setting}\n")
        argv = ["run", str(cfg)]
    assert main(argv + ["--out", str(out), "--quiet"]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    steps = len(run_homophily(read_matrix(FIXTURES / "five_person" / "m.csv"),
                              HomophilyConfig(eps_p=0.3, eps_h=0.25)).beliefs) - 1
    assert steps > 1
    expected = {"groups.txt", "q_final.csv"}
    if trace_dir is not None:
        expected |= {f"{trace_dir}/{kind}_{t:03d}.csv"
                     for kind in "phq" for t in range(1, steps + 1)}
        assert outputs[f"{trace_dir}/q_{steps:03d}.csv"] == outputs["q_final.csv"]
    assert set(outputs) == expected


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("where", ["absolute", "parent"])
def test_homophily_trace_out_outside_output_fails(tmp_path, capsys, route, where):
    outside = tmp_path / "steps"
    setting = str(outside) if where == "absolute" else "../steps"
    if route == "flag":
        argv = HOMOPHILY_FLAGS + ["--trace-out", setting]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode=homophily\nm={FIXTURES / 'five_person' / 'm.csv'}\n"
                       f"eps_p=0.3\neps_h=0.25\ntrace_out={setting}\n")
        argv = ["run", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "trace_out" in capsys.readouterr().err.split()
    assert not out.exists() and not outside.exists()


def _cli_process(argv, stdout, tmp_path, **options):
    """Run ``python -m beliefdyn.cli`` with stdout block-buffered, as it is
    when it is not a terminal and PYTHONUNBUFFERED is unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "beliefdyn.cli", *argv], cwd=tmp_path,
                          env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
                          **options)


@pytest.mark.parametrize("sink", ["file", "pipe"])
def test_cli_process_flushes_stdout_before_exit(tmp_path, capsys, sink):
    cfg = str(FIXTURES / "five_person" / "homophily.cfg")
    assert main(["run", cfg, "--out", str(tmp_path / "in_process")]) == 0
    expected = capsys.readouterr().out.encode()
    argv = ["run", cfg, "--out", str(tmp_path / "process")]
    if sink == "file":
        with open(tmp_path / "stdout.txt", "wb") as stdout:
            result = _cli_process(argv, stdout, tmp_path)
        printed = (tmp_path / "stdout.txt").read_bytes()
    else:
        result = _cli_process(argv, subprocess.PIPE, tmp_path)
        printed = result.stdout
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    assert printed == expected
    assert (json.loads((tmp_path / "process" / "manifest.json").read_text())["outputs"]
            == json.loads((tmp_path / "in_process" / "manifest.json").read_text())["outputs"])


def test_cli_process_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TWO_CAMP_EVOLVE + "limit=yes\n")
    result = _cli_process(["run", str(cfg)], subprocess.PIPE, tmp_path)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.decode().startswith("error: ")
    assert "limit" in result.stderr.decode().split()


def test_cli_process_closed_stdout_pipe_exits_120(tmp_path):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        result = _cli_process(["run", str(FIXTURES / "five_person" / "homophily.cfg"),
                               "--out", str(tmp_path / "out")], write_fd, tmp_path)
    finally:
        os.close(write_fd)
    # CPython's own shutdown reports the failed flush this way
    assert result.returncode == 120
    assert b"Traceback" not in result.stderr
    assert b"BrokenPipeError" in result.stderr


def test_cli_process_without_stdout_exits_0(tmp_path):
    # started with descriptor 1 closed, the interpreter sets sys.stdout to None
    result = _cli_process(["run", str(FIXTURES / "five_person" / "homophily.cfg"),
                           "--out", str(tmp_path / "out")], None, tmp_path,
                          preexec_fn=lambda: os.close(1))
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    assert (tmp_path / "out" / "manifest.json").is_file()


@pytest.mark.parametrize("command", [None, "run", *MODES])
def test_help_text_pinned(monkeypatch, capsys, command):
    # tests/help holds each text as printed by the parser that gave every
    # subcommand its flags, at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit:
        main([command, "--help"] if command else ["--help"])
    assert exit.value.code == 0
    printed = capsys.readouterr()
    assert printed.out == (HELP / f"{command or 'beliefdyn'}.txt").read_text()
    assert printed.err == ""


TOP_USAGE = """usage: beliefdyn [-h]
                 {run,analyze,evolve,sample,homophily,clusters,certify} ...
"""


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'run', "
                     "'analyze', 'evolve', 'sample', 'homophily', 'clusters', 'certify')"),
    (["analyze", "--p", "p.csv", "--steps", "3"], "unrecognized arguments: --steps 3"),
    (["run", "x.cfg", "--eps-p", "0.1"], "unrecognized arguments: --eps-p 0.1"),
    (["evolve", "--p", "p.csv", "--m", "m.csv", "--h", "h.csv", "--zero-threshold", "0"],
     "unrecognized arguments: --zero-threshold 0"),
], ids=["unknown-command", "analyze-steps", "run-eps-p", "evolve-zero-threshold"])
def test_command_line_errors_pinned(monkeypatch, capsys, argv, message):
    # an unknown subcommand, and a flag of another mode or of no mode
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"{TOP_USAGE}beliefdyn: error: {message}\n"


# The CLI boundary: whatever text a config gives a mode's keys, a run either
# finishes with every listed output written or fails with one error line.
# Each key's texts are drawn by its type in the mode table.  A file key draws
# the name of an input case; "good" is the fixture that fits the mode.
# Counts stop at 1000: a count past realistic scale, such as steps=2**64, is
# accepted and would not finish, so it stays out of the drawn range.

BOUNDARY_CSVS = {
    "malformed": "0.5,abc\n0.5,0.5\n",
    "ragged": "1,0\n1\n",
    "negative": "2,-1\n0,1\n",
    "row_sum": "0.5,0.7\n0.2,0.2\n",
    "mis_shaped": "".join("0.1,0.2,0.3,0.4\n" for _ in range(5)),
    "zero_column": "1,0\n1,0\n",
    "periodic": "0,1\n1,0\n",
}
BOUNDARY_GOOD = {
    "p": TWO_CAMP / "p.csv", "h": TWO_CAMP / "h.csv",
    "sp_dir": FIXTURES / "single_leaf", "sh_dir": FIXTURES / "identity3",
    "family_dir": FIXTURES / "scrambling_pair",
}
# m's fixture has the shape the mode's other inputs need
BOUNDARY_GOOD_M = {
    "evolve": TWO_CAMP / "m.csv", "certify": TWO_CAMP / "m.csv",
    "sample": FIXTURES / "identity3" / "member0.csv",
    "homophily": FIXTURES / "triangle" / "m.csv",
    "clusters": FIXTURES / "five_person" / "m.csv",
}
# good texts of the keys that have no default
BOUNDARY_VALUES = {"eps_p": "0.3", "eps_h": "0.25", "epsilon": "0.3"}


@pytest.fixture(scope="module")
def boundary_inputs(tmp_path_factory):
    """Each bad input case's path, for CSV keys and for family keys."""
    root = tmp_path_factory.mktemp("boundary")
    csvs = {"missing": root / "missing.csv", "directory": root}
    families = {"missing": root / "missing", "file": TWO_CAMP / "p.csv",
                "empty": root / "empty", "weights": root / "weights"}
    families["empty"].mkdir()
    # a good family with a bad weights.txt line
    families["weights"].mkdir()
    for member in BOUNDARY_GOOD["family_dir"].glob("*.csv"):
        (families["weights"] / member.name).write_bytes(member.read_bytes())
    (families["weights"] / "weights.txt").write_text("0 1\n1\n")
    for name, text in BOUNDARY_CSVS.items():
        csvs[name] = root / f"{name}.csv"
        csvs[name].write_text(text)
        families[name] = root / f"{name}_family"
        families[name].mkdir()
        (families[name] / "member1.csv").write_text(text)
    # a whole family of the wrong size, rather than members that differ
    write_matrix(families["mis_shaped"] / "member1.csv", np.full((4, 4), 0.25))
    return {cli._load: csvs, cli.load_family: families}


NUMBER_TEXTS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "-1", "0", "1e-300", "text", ""]),
    st.floats(-1, 2).map(repr))
COUNT_TEXTS = st.one_of(st.integers(0, 1000).map(str),
                        st.sampled_from(["-1", "1.5", "text", ""]))
BOUNDARY_TEXTS = {
    float: NUMBER_TEXTS,
    int: COUNT_TEXTS,
    cli._seed_list: st.one_of(COUNT_TEXTS, st.sampled_from(
        [str(2 ** 64), "0,1", "1,,2"])),
    bool: st.sampled_from(["true", "false", "TRUE", "False", "yes", "1", ""]),
    cli._nu: st.one_of(st.integers(1, 8).map(str),
                       st.sampled_from(["auto", "AUTO", "0", "-1", "100000", "text", ""])),
    cli._trace_dir: st.sampled_from(["", "true", "false", "TRUE", "steps", "a/b",
                                     "../up", "/outside"]),
    cli._load: st.sampled_from(["good", *BOUNDARY_CSVS, "missing", "directory"]),
    cli.load_family: st.sampled_from(["good", *BOUNDARY_CSVS, "missing", "file",
                                      "empty", "weights"]),
}


@st.composite
def boundary_configs(draw):
    """A mode and its keys' texts: at most two keys drawn, the others good."""
    mode = draw(st.sampled_from(MODES))
    params = cli._MODES[mode][2]
    drawn = draw(st.sets(st.sampled_from([key for key, _, _ in params]), max_size=2))
    texts = {}
    for key, typ, _ in params:
        if key in drawn:
            if isinstance(typ, tuple):
                strategy = st.sampled_from([*typ, "bogus", ""])
            else:
                strategy = BOUNDARY_TEXTS[typ]
            text = draw(st.none() | strategy)
        elif typ in (cli._load, cli.load_family):
            # a certify run gets good files for its kind's keys alone
            reads = sum(cli._CERTIFY_INPUTS.get(texts.get("kind", "homogeneous"), ()), ())
            text = "good" if mode != "certify" or key in reads else None
        else:
            text = BOUNDARY_VALUES.get(key)
        if text is not None:
            texts[key] = text
    return mode, texts


def _boundary_config(mode, texts, inputs, root):
    """The run.cfg text of ``mode`` with ``texts``, file cases made paths."""
    lines = [f"mode={mode}"]
    for key, typ, _ in cli._MODES[mode][2]:
        if key not in texts:
            continue
        text = texts[key]
        if typ in inputs:
            if text == "good":
                text = BOUNDARY_GOOD_M[mode] if key == "m" else BOUNDARY_GOOD[key]
            else:
                text = inputs[typ][text]
        elif text == "/outside":
            text = root / "outside"
        lines.append(f"{key}={text}")
    return "".join(line + "\n" for line in lines)


BOUNDARY_CAP_S = 10


@settings(max_examples=300, deadline=None)
@given(config=boundary_configs())
@example(config=("evolve", {"p": "good", "m": "good", "h": "good", "steps": "-1"}))
@example(config=("sample", {"sp_dir": "good", "sh_dir": "good", "m": "good",
                            "horizon": "-2"}))
@example(config=("sample", {"sp_dir": "good", "sh_dir": "good", "m": "good",
                            "seeds": "-3"}))
@example(config=("sample", {"sp_dir": "good", "sh_dir": "good", "m": "good",
                            "seeds": ""}))
# the mode, not _values, rejects these shapes: the run names the keys it read
@example(config=("analyze", {"p": "mis_shaped"}))
@example(config=("evolve", {"p": "good", "m": "mis_shaped", "h": "good"}))
@example(config=("sample", {"sp_dir": "good", "sh_dir": "good", "m": "mis_shaped"}))
# beliefs with an all-zero column cannot have their concepts normalized
@example(config=("homophily", {"m": "zero_column", "eps_p": "0.3", "eps_h": "0.25"}))
@example(config=("clusters", {"m": "zero_column", "epsilon": "0.3", "axis": "cols"}))
# certificate refusals name the keys read as well
@example(config=("certify", {"kind": "inhomogeneous", "family_dir": "good", "nu": "100000"}))
@example(config=("certify", {"kind": "inhomogeneous", "family_dir": "periodic"}))
@example(config=("certify", {"kind": "homogeneous", "p": "periodic", "h": "good"}))
@example(config=("certify", {"kind": "homogeneous", "p": "good", "h": "good", "nu": "5"}))
def test_cli_boundary_runs_or_fails_with_one_line(boundary_inputs, config):
    mode, texts = config
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg, out = root / "run.cfg", root / "out"
        cfg.write_text(_boundary_config(mode, texts, boundary_inputs, root))
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(["run", str(cfg), "--out", str(out), "--quiet"])
        assert time.perf_counter() - start < BOUNDARY_CAP_S
        assert stdout.getvalue() == ""
        if status == 0:
            outputs = json.loads((out / "manifest.json").read_text())["outputs"]
            assert all((out / name).is_file() for name in outputs)
            return
        assert status == 2
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists() and not (root / "outside").exists()
        # an error of the config, of an input file or of the mode on the
        # parsed inputs names a key
        message = lines[0][len("error: "):]
        keys = [key for key, _, _ in cli._MODES[mode][2]]
        assert any(key in message.replace(":", " ").replace(",", " ").split()
                   for key in keys), message


FILE_FAILURES = [("p", case) for case in ("missing", "directory", "malformed", "ragged")] + [
    ("family_dir", case) for case in ("missing", "empty", "file", "malformed", "weights")]


@pytest.mark.parametrize("key, case", FILE_FAILURES,
                         ids=[f"{key}-{case}" for key, case in FILE_FAILURES])
def test_file_failure_names_its_key_and_path(boundary_inputs, tmp_path, capsys, key, case):
    # a file that cannot be read or parsed, or a family directory that is
    # missing, empty, a file, or holds a bad member or weights.txt line
    path = boundary_inputs[cli._load if key == "p" else cli.load_family][case]
    argv = (["analyze", "--p"] if key == "p"
            else ["certify", "--kind", "inhomogeneous", "--family-dir"])
    out = tmp_path / "out"
    assert main(argv + [str(path), "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    lines = printed.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} "), lines
    assert str(path) in lines[0]
    assert not out.exists()
