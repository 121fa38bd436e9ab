import json
from pathlib import Path

import numpy as np
import pytest

from beliefdyn.cli import main, parse_config, replay_manifest, run
from beliefdyn.matrixio import read_matrix

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

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


def test_homophily_plot_frames(tmp_path):
    out = run_dir(tmp_path, "triangle")
    assert main(["run", str(FIXTURES / "triangle" / "homophily.cfg"),
                 "--out", out, "--quiet"]) == 0
    frames = sorted((Path(out) / "frames").glob("*.svg"))
    assert frames
    assert frames[0].read_text().startswith("<svg")


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
    assert manifest["stabilized_at"] == 6


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
    replay_manifest(manifest_path)
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
