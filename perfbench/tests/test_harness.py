"""Tests of the benchmark harness itself, at tiny N.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads
from tracer import Tracer, module_of, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small enough that one untraced and one traced round trip take about a
# second; fib-dirmult still walks its 10^4 slots.
TINY = {"rsha1-binomial": 32, "fib-betabin": 64, "dups-general": 256, "fib-dirmult": 16}


def digest(raw) -> str:
    return hashlib.sha256(
        json.dumps([r.hex() if isinstance(r, bytes) else r for r in raw]).encode()
    ).hexdigest()


# sha256 of each workload's seed-0 inputs at its benchmark size, and of the
# headline inputs.  A change here changes what every recorded number means.
GOLDEN_INPUTS = {
    "rsha1-binomial": "1bc4c564d01bac6e0b95d632d2b9bdbdcef550c0eb0e0f4d75d141384d75fab8",
    "fib-betabin": "2ffa5deb0f2367e827e6771b1ddc61f11bdf0b260800ea7943366efdea9f5db5",
    "dups-general": "e04d1f6eb0f1fb3925c208e45aee75fe2167b67142c86862f434ce592622d31a",
    "fib-dirmult": "d8824d7ac453a7444b981691ad5decfbac28c7dce308782309609d7bd3ef1e4c",
}
GOLDEN_HEADLINE = "1c187b10fb63c5ff49c69c6bcb4847a16967e94a21a4f36b4561ba5cfa69e69f"


@pytest.fixture(scope="module")
def traced_runs():
    return {
        name: worker.measure(w, seed=1, seconds=0, trace=True, n=TINY[name])
        for name, w in WORKLOADS.items()
    }


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END_UNITS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_present(traced_runs, name):
    m = traced_runs[name]
    assert m["failed"] == 0 and m["attempted"] == 4
    e2e = run.end_to_end_metrics(m, [0.5, 0.4, 0.6])
    assert list(e2e) == [x["name"] for x in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in e2e.values())
    layers = run.per_layer_metrics(m["layers"])
    assert list(layers) == [x["name"] for x in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert layers[spec["name"]]["unit"] == spec["unit"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_module_self_times_add_up_to_the_traced_round_trip(traced_runs, name):
    layers = traced_runs[name]["layers"]
    assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.traced_round_trip_s"])
    modules = ["container", "msettree", "bits", "treecodec", "rangecoder", "quantize",
               "distributions", "models", "dirmult"]
    assert sum(layers[f"{m}.self_s"] for m in modules) == pytest.approx(
        layers["trace.traced_round_trip_s"]
    )


def test_layers_see_their_workloads(traced_runs):
    assert traced_runs["fib-betabin"]["layers"]["models.detector_calls"] > 0
    assert traced_runs["dups-general"]["layers"]["models.hazard_calls"] > 0
    assert traced_runs["fib-dirmult"]["layers"]["dirmult.slots_coded"] > 0
    assert traced_runs["fib-dirmult"]["layers"]["treecodec.decisions"] == 0
    for name in ("rsha1-binomial", "fib-betabin", "dups-general"):
        layers = traced_runs[name]["layers"]
        assert layers["treecodec.decisions"] > 0
        assert layers["msettree.nodes"] > TINY[name]
        assert layers["bits.from_bits_calls"] == TINY[name]


def test_tracer_restores_the_package():
    import msetzip
    from msetzip import quantize, treecodec

    before = (msetzip.RangeEncoder.encode_interval, treecodec.hazard, quantize.quantize,
              msetzip.MultisetTree.__dict__["build"])
    with Tracer().installed():
        assert treecodec.hazard is not before[1]
    after = (msetzip.RangeEncoder.encode_interval, treecodec.hazard, quantize.quantize,
             msetzip.MultisetTree.__dict__["build"])
    assert after == before


def test_summarize_charges_children_to_their_parent():
    t = Tracer()
    with t.span("container.compress"):
        with t.span("msettree.build"):
            pass
    s = summarize(t.spans)
    root, child = t.spans
    assert child.parent == root.id
    assert s["module_self"]["container"] + s["module_self"]["msettree"] == pytest.approx(
        root.end - root.start
    )
    assert module_of("rangecoder.encode_interval") == "rangecoder"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_container(name):
    w = WORKLOADS[name]
    a = worker.measure(w, seed=5, seconds=0, trace=False, n=TINY[name])
    b = worker.measure(w, seed=5, seconds=0, trace=False, n=TINY[name])
    c = worker.measure(w, seed=6, seconds=0, trace=False, n=TINY[name])
    assert a["container_sha256"] == b["container_sha256"]
    assert a["container_sha256"] != c["container_sha256"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_the_inputs(name):
    w = WORKLOADS[name]
    assert w.inputs(1, TINY[name]) == w.inputs(1, TINY[name])
    assert w.inputs(1, TINY[name]) != w.inputs(2, TINY[name])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_golden_inputs(name):
    assert digest(WORKLOADS[name].inputs(0)) == GOLDEN_INPUTS[name]


def test_golden_headline_inputs():
    assert digest(workloads.sha1_digests(0, workloads.HEADLINE_N)) == GOLDEN_HEADLINE


def test_inputs_match_the_experiment_harness():
    bench = pytest.importorskip("msetzip.bench")
    if not all(hasattr(bench, f) for f in ("_rng_for", "sha1_members", "bench_fib")):
        pytest.skip("msetzip.bench no longer has the paper's generators")
    w = WORKLOADS["rsha1-binomial"]
    for n in (1024, workloads.HEADLINE_N):
        assert w.members(workloads.sha1_digests(0, n)) == bench.sha1_members(bench._rng_for(0, n), n)

    n, k = 64, 1000
    rows = {r.family: r for r in bench.bench_fib([n], seed=3, k=k)}
    values = workloads.uniform_values(3, n, k)
    fib = WORKLOADS["fib-betabin"]
    assert fib.inputs(3, n) == workloads.uniform_values(3, n, workloads.FIB_K)
    assert fib.codec().reference(fib.members(values))[1] == rows["beta_binomial"].bits_total
    assert workloads.DirMultCodec(k).reference(values)[1] == rows["dirichlet_multinomial"].bits_total


class Corrupting:
    """Flips one payload byte of every container before decompressing it."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def decompress(self, blob: bytes):
        i = len(blob) // 2
        return self.inner.decompress(blob[:i] + bytes([blob[i] ^ 0x5A]) + blob[i + 1:])


@pytest.mark.parametrize("name", ["rsha1-binomial", "fib-dirmult"])
def test_corrupt_container_counts_as_failed(name):
    w = WORKLOADS[name]
    m = worker.measure(w, seed=1, seconds=0, trace=False, codec=Corrupting(w.codec()), n=TINY[name])
    assert m["attempted"] == 2
    assert m["failed"] == 1
    assert m["failures"][0].startswith("decompress")
    assert "compress_s" not in m


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fib-betabin", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
