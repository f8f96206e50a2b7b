"""Byte identity of the CLI walkthrough: every output file against its pinned sha256.

Each case runs gen, background, discover, eval, baseline and eval through
``dualmem.cli.main`` on a small corpus of one of the reference shapes, and
compares the sha256 of every file written (the spec and config files too) with
the values below; only ``manifest.json`` files, which record input paths, are
left out. ``bg.bin``, the checkpoints and everything computed from them depend
on how the installed BLAS rounds, so the values are pinned for one toolchain: a
mismatch names each differing file with the numpy version and BLAS
configuration. A change that alters an output on purpose updates its hashes in
the same commit.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from dualmem.cli import main
from dualmem.config import Config, save_config
from dualmem.corpus import convert_corpus, ingest_corpus, load_corpus
from dualmem.reporting import read_key_values
from dualmem.stats import BackgroundStats, whiten
from dualmem.synth import SynthSpec, kmeans_baseline, save_spec

SHAPE = dict(d=32, n_known=5, n_unknown=10, classes_per_image=3, regions_per_class_per_image=2, std=1.0)
# name: (spec, config, background threads, DMRF corpus)
CASES = {
    # JSON lines, det_scores priors, and a slot cap that rejects regions in both rounds.
    "frozen": (
        SynthSpec(images=200, n_background_per_image=3, separation=8.0, seed=20, **SHAPE),
        Config(d=32, rounds=2, slot_cap=200, rng_seed=9), 1, False,
    ),
    # No background regions, a DMRF corpus and three rounds.
    "semantic": (
        SynthSpec(images=200, n_background_per_image=0, separation=12.0, seed=20, **SHAPE),
        Config(d=32, rounds=3, rng_seed=9), 2, True,
    ),
    # Priors taken from ground-truth overlap instead of detection scores.
    "gt_overlap": (
        SynthSpec(images=200, n_background_per_image=3, separation=8.0, seed=7, **SHAPE),
        Config(d=32, rounds=2, slot_cap=200, rng_seed=9, init_mode="gt_overlap"), 1, False,
    ),
}

# Taken with numpy 2.4.6 and scipy-openblas 0.3.31 (Haswell kernels) on x86-64.
GOLDEN = {
    "frozen": {
        "bg/bg.bin": "029df6763c91a846cfac5cb4ee5508a7462e17e30d36c0083fc4b4d5b23cd52b",
        "config.txt": "e113d4c233e18bbd0c8163bc6738c26bd0a619798c8a109db13fc84dec5c9e51",
        "data/corpus.jsonl": "0cdafb4c3fefb54ebfce162c86496e02661049b995be19c6bd101782a4f1b1f2",
        "data/gt.jsonl": "4099b3ac1122d6c26bb8b107c3243180947ccd11e30eb8cd1e8ededef2d0e927",
        "data/priors.jsonl": "494e8c23e413bf95f9a100fe179c5401ae1fad01cd73ca518ecb6e0a5676a81a",
        "eval/curve_0.2.csv": "72fe37d263f6c6fb6e7120fa136cd2200a498548ed094ea292c579df5a99daf5",
        "eval/curve_0.5.csv": "72fe37d263f6c6fb6e7120fa136cd2200a498548ed094ea292c579df5a99daf5",
        "eval/metrics.txt": "2ec61f859f642f376d163a59a9d5fb27ad84e0749724429889b6c6b8dee8cf09",
        "km/assignments.tsv": "5fd647057e250eea7a4595fdee3d2e920d40ff6db2d6c86afdb28dade6532dbf",
        "km_eval/curve_0.2.csv": "96cad2e565b576fc0e18364a898a5a2cb5e13a4df87833f94afb574ba3d43b11",
        "km_eval/curve_0.5.csv": "96cad2e565b576fc0e18364a898a5a2cb5e13a4df87833f94afb574ba3d43b11",
        "km_eval/metrics.txt": "b4ca33d1231387e241712c92ac329b752ff95da348fe5f27692b86ec29e6cd7b",
        "run/assignments.tsv": "fb5772c549d92fe55ee6c3a583967d0af256216fa855b3198b6e711b289a79e1",
        "run/bg.bin": "029df6763c91a846cfac5cb4ee5508a7462e17e30d36c0083fc4b4d5b23cd52b",
        "run/config.txt": "e113d4c233e18bbd0c8163bc6738c26bd0a619798c8a109db13fc84dec5c9e51",
        "run/round_1/checkpoint.bin": "82963d62e3a37c826c798e4f6df9b82d7b5c1e9dee53c26912ba9dad0dc581db",
        "run/round_1/consolidation.log": "05af30e01a672e01c70e8702e96e56339e7592e7ea01a984c03c09bbb294aec9",
        "run/round_2/checkpoint.bin": "a13b9b3901764adc928e10fb4cedb3222b953b55ffb0ac18d983161a53921b69",
        "run/round_2/consolidation.log": "13bed32920a4bc52306ecb052b406557090feda2c220b0af86f684a487676ffa",
        "run/stats.txt": "54792e90ee9402a8191485afefb16e63914e767ee1ad21405b90eb2602ebb9ef",
        "spec.txt": "8227edcadff3c097c5f60b7bcba3a69d7eea001ead6235d6f54184a64ee6d5a3",
    },
    "gt_overlap": {
        "bg/bg.bin": "f635cf4c65f393ef2a1d6b9d769497d569113fbdfdd284ef167ab05196e832dc",
        "config.txt": "ff9c862d58a7fd130cc1013ad9f0b702203496e0ec139ef2536741619b8521f2",
        "data/corpus.jsonl": "104fe695d026da3e3b461614a29b30dbee84c74d10dad1fe7adcf92f8f4522fb",
        "data/gt.jsonl": "4099b3ac1122d6c26bb8b107c3243180947ccd11e30eb8cd1e8ededef2d0e927",
        "data/priors.jsonl": "ca9d59a75074f646754abfa018986e7c99fdddee225447fff3bb0a84587ccbfa",
        "eval/curve_0.2.csv": "8af793aa4e1000a349e0ad95fe703c000e6cb10dc847385062afb8487be46d87",
        "eval/curve_0.5.csv": "8af793aa4e1000a349e0ad95fe703c000e6cb10dc847385062afb8487be46d87",
        "eval/metrics.txt": "0794f529905a8076e47279e71d9ea5026bab86f8003eb8ecfb99f3ff92f67bbf",
        "km/assignments.tsv": "2c4eeb5636fb6b18f9f738730eb45d4fdbdaf8c119e50b5d2f84a9a86bad3d99",
        "km_eval/curve_0.2.csv": "ae4e274583356314181b1674eec9b15fde41367ebf6559e48a818242e5c91022",
        "km_eval/curve_0.5.csv": "ae4e274583356314181b1674eec9b15fde41367ebf6559e48a818242e5c91022",
        "km_eval/metrics.txt": "4276e9744ed0b77eed5e0c3d21b9e076b043205d87e387d916cc382aee9b5e82",
        "run/assignments.tsv": "5c74373b60ff493408e42a4901f23e760ae2ebab9b949110a4244ef6b5d76e79",
        "run/bg.bin": "f635cf4c65f393ef2a1d6b9d769497d569113fbdfdd284ef167ab05196e832dc",
        "run/config.txt": "ff9c862d58a7fd130cc1013ad9f0b702203496e0ec139ef2536741619b8521f2",
        "run/round_1/checkpoint.bin": "d9b3d448bdd807a3790e10db1cb677b268ca596e6810cd8eb033c907cafbc165",
        "run/round_1/consolidation.log": "dd954901ecc248098a806ff326e0c67068f0174ed18288cf5fc427098a3386a6",
        "run/round_2/checkpoint.bin": "29fabd76f7f031acf95d91aee519878554b24fbd9aa7b20e412c9c22673512cf",
        "run/round_2/consolidation.log": "2aaa15dff51739263a09e82f0d727d42f159f0a5d1c6a834e22d262dae1ac45b",
        "run/stats.txt": "ecacbb0dd1744e9c4e704f71e28098015ffe9e050e8b9d6a7fc8ac467e1f176f",
        "spec.txt": "be49a458bffadcf0fef1d0ddd2f9245054bc905b8117929438d0b6dab23e84f7",
    },
    "semantic": {
        "bg/bg.bin": "6a668f31bae2c16779ea17ed0064aecc9944acc1843ec4b71aa24cb728bcfe30",
        "config.txt": "1c7bb707fded06ee2010375530b8b1a856ad0b6e18763eb695c61a049c438bbb",
        "data/corpus.dmrf": "23cd109d2f042d711c9a6eddf29455186944af2382d32ca49b639eab52b74f75",
        "data/corpus.jsonl": "3692dd0aa4c4c11ad784956051c218efea0264a9daaa86353c8ed01e0eca74d7",
        "data/gt.jsonl": "4099b3ac1122d6c26bb8b107c3243180947ccd11e30eb8cd1e8ededef2d0e927",
        "data/priors.jsonl": "9afdc08ea9dd4e803ee395f6fb859a58d35e225b11a43a2b8d6457da18fdc9fe",
        "eval/curve_0.2.csv": "e444c3458f468a5e40848505704ef0de5ff265a566ee516677a8d94ec44f5798",
        "eval/curve_0.5.csv": "e444c3458f468a5e40848505704ef0de5ff265a566ee516677a8d94ec44f5798",
        "eval/metrics.txt": "2ec61f859f642f376d163a59a9d5fb27ad84e0749724429889b6c6b8dee8cf09",
        "km/assignments.tsv": "187d621fa1a593a4880eb389da66367eff25bd9b2068ed40c68e4f52d80fe3ec",
        "km_eval/curve_0.2.csv": "33aad84b67c924b9d5559610854c2db65705e5bacc8d068497c9fba297f96038",
        "km_eval/curve_0.5.csv": "33aad84b67c924b9d5559610854c2db65705e5bacc8d068497c9fba297f96038",
        "km_eval/metrics.txt": "784796a6fde61240e3e59e314e5f1b8a513379c543ffe6807fe40e4e1a64e8f1",
        "run/assignments.tsv": "d80daf28ac0dd58d589bc1752e9b86ebc51c15c2d62e5f78fa9c7fad913a5660",
        "run/bg.bin": "6a668f31bae2c16779ea17ed0064aecc9944acc1843ec4b71aa24cb728bcfe30",
        "run/config.txt": "1c7bb707fded06ee2010375530b8b1a856ad0b6e18763eb695c61a049c438bbb",
        "run/round_1/checkpoint.bin": "99bf3b9f329f97f4f906f64305d7d3713c7d3b5a4dd4450c8ecc8e8a397f2809",
        "run/round_1/consolidation.log": "57605585cc0fe5351a38c910359ea9a1c8f6aa4041d098faa29d5a6822721bd2",
        "run/round_2/checkpoint.bin": "61de5e302bd27e353960dda41db2a35658f0195d2e76623b66ae7f19229abb9e",
        "run/round_2/consolidation.log": "4bf33404b76cdbb4bf932ecb2659a6a0fcaf028ba4ed0fb5de59f176dbccf099",
        "run/round_3/checkpoint.bin": "e4e71f8e41f5d36618ff4f3aed4a6cc49f5fad9f8950c7acecfbbd84322baa6f",
        "run/round_3/consolidation.log": "bd662d30ea1a3f52299baa2768951f0ee7c09700569fd0ef1fb071f39305f1c7",
        "run/stats.txt": "1585500186b5213b8449df7fe6a18cc67234eaf579298a29989d79d5b2c08d7f",
        "spec.txt": "bf1ad664c2345015c40ce49889e5a485e3433507b20b68665c71f0c98964718e",
    },
}
# The frozen case's K-means at seed 9 and k = clusters_final (18): its iteration count, and the sha256 of
# its inertia history's float64 bytes followed by its centroids' bytes.
FROZEN_KMEANS = (10, "a6d0fe76499a75aeaf9f381c09c2fdd4f05a3345fef2ad893831adaa94c318a2")


def walkthrough(out, spec, config, threads, binary):
    """The README walkthrough into ``out``; the sha256 of each file written, manifests aside."""
    save_spec(spec, out / "spec.txt")
    save_config(config, out / "config.txt")

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv

    data = out / "data"
    run("gen", "--spec", out / "spec.txt", "--out", data)
    corpus = data / "corpus.jsonl"
    if binary:
        convert_corpus(corpus, data / "corpus.dmrf")
        corpus = data / "corpus.dmrf"
    run("background", "--corpus", corpus, "--threads", threads, "--out", out / "bg")
    mode = ["--gt", data / "gt.jsonl"] if config.init_mode == "gt_overlap" else ["--priors", data / "priors.jsonl"]
    run("discover", "--corpus", corpus, "--bg", out / "bg" / "bg.bin", "--config", out / "config.txt",
        *mode, "--out", out / "run")
    for assignments, result in (("run", "eval"), ("km", "km_eval")):
        if assignments == "km":
            run("baseline", "--corpus", corpus, "--stats", out / "run" / "stats.txt", "--seed", 9, "--out", out / "km")
        run("eval", "--corpus", corpus, "--assignments", out / assignments / "assignments.tsv",
            "--gt", data / "gt.jsonl", "--out", out / result)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file() and path.name != "manifest.json"
    }


def toolchain():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, BLAS {json.dumps(blas, sort_keys=True)}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each case's directory and hashes, run once for the tests below."""
    runs = {}

    def get(case):
        if case not in runs:
            out = tmp_path_factory.mktemp(case)
            runs[case] = out, walkthrough(out, *CASES[case])
        return runs[case]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
def test_walkthrough_outputs_match_the_pinned_hashes(outputs, case):
    _, hashes = outputs(case)
    pinned = GOLDEN[case]
    differing = [name for name in sorted(hashes.keys() | pinned.keys()) if hashes.get(name) != pinned.get(name)]
    assert not differing, f"{case}: {', '.join(differing)} differ from the pinned sha256 ({toolchain()})"


def test_the_frozen_case_binds_the_slot_cap(outputs):
    """The frozen case keeps its shape: the cap rejects regions in every round."""
    out, _ = outputs("frozen")
    stats = dict(line.split(" = ") for line in (out / "run" / "stats.txt").read_text().splitlines())
    assert all(int(stats[f"round_{r}_rejected"]) > 0 for r in (1, 2))


def test_the_frozen_kmeans_history_keeps_its_bits(outputs):
    """Every inertia and centroid of the baseline, not only the labels ``km/assignments.tsv`` holds."""
    out, _ = outputs("frozen")
    k = int(read_key_values(out / "run" / "stats.txt")["clusters_final"])
    _, centers, history = kmeans_baseline(load_corpus(out / "data" / "corpus.jsonl"), k, seed=9)
    digest = hashlib.sha256(np.array(history).tobytes() + centers.tobytes()).hexdigest()
    assert (len(history), digest) == FROZEN_KMEANS, toolchain()


def test_whitening_the_frozen_corpus_equals_scipy_byte_for_byte(outputs):
    """The golden ``frozen`` background whitens its corpus, each row alone and no row at all, with scipy's bits."""
    out, _ = outputs("frozen")
    bg = BackgroundStats.load(out / "bg" / "bg.bin")
    feats = ingest_corpus(out / "data" / "corpus.jsonl", CASES["frozen"][1]).features
    for x in (feats, feats[7], feats[:0]):
        expected = solve_triangular(bg.chol_lower, (x - bg.mean).T, lower=True).T
        z = whiten(x, bg)
        assert z.shape == expected.shape and z.tobytes() == expected.tobytes()
