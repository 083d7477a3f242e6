"""One workload in one process; run.py starts it and reads its last line.

Modes:
  measure   time round trips (compress, then decompress) for --seconds,
            untraced; with --trace 1 traced and untraced trips alternate.
  setup     time the import of msetzip, building the params and one
            warm-up round trip on the workload's smallest members.
  headline  compress the rsha1-binomial inputs at the paper's size, N =
            16384, and report bits per element.

Each mode prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (standard library only, as is tracer)
from tracer import Tracer, summarize  # noqa: E402
from workloads import HEADLINE_N, WARMUP_MEMBERS, WORKLOADS  # noqa: E402


# The host probe's size, and its time on the reference host: a 2.0 GHz Xeon
# vCPU under Python 3.11 builds the probe's trie in about 50 ms.  Times
# behind the throughputs and set-up time are scaled to that host speed.
PROBE_SEED = 20140125
PROBE_KEYS = 3000
PROBE_REF_S = 0.05


class Ops:
    """Every compress and every decompress is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{what}: {detail}")


def in_output_order(members: list) -> list:
    """What decompress returns: ascending integers, or bit strings in
    lexicographic order with a prefix before its extensions, which is the
    order of their 0/1 text (BitString's own comparison, keyed once per
    distinct member)."""
    keys = {m: m if isinstance(m, int) else m.to_str() for m in set(members)}
    return sorted(members, key=keys.__getitem__)


def host_probe() -> float:
    """Seconds for a fixed pure-Python binary-trie build that shares no
    code with msetzip.  Timed next to every operation, it measures how fast
    the host runs the interpreter at that moment.  The trie lives in two
    preallocated lists, so the probe allocates no containers and never
    triggers the cyclic collector: its time does not depend on what else
    the process holds."""
    rng = random.Random(PROBE_SEED)
    size = 48 * PROBE_KEYS + 1
    count = [0] * size
    child = [0] * (2 * size)
    nodes = 1
    t0 = time.perf_counter()
    for _ in range(PROBE_KEYS):
        key = rng.getrandbits(48)
        node = 0
        count[0] += 1
        for i in range(47, -1, -1):
            j = 2 * node + ((key >> i) & 1)
            nxt = child[j]
            if not nxt:
                nxt = child[j] = nodes
                nodes += 1
            count[nxt] += 1
            node = nxt
    return time.perf_counter() - t0


def round_trip(codec, members, expected, reference: bytes, ops: Ops, tracer=None):
    """(compress s, decompress s, probe s before, between and after them),
    or None if either operation failed.

    A compress fails if it raises or its bytes differ from the reference
    container; a decompress fails if it raises or its output differs from
    the sorted input.  Each operation starts after gc.collect(), so from the
    same collector state.
    """
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    ops.attempted += 1
    gc.collect()
    before = host_probe()
    t0 = time.perf_counter()
    try:
        with span("container.compress"):
            blob = codec.compress(members)
    except Exception:
        ops.fail("compress", traceback.format_exc(limit=1))
        return None
    tc = time.perf_counter() - t0
    if blob != reference:
        ops.fail("compress", "container bytes differ from the first ones of the run")
        return None
    ops.attempted += 1
    gc.collect()
    between = host_probe()
    t0 = time.perf_counter()
    try:
        with span("container.decompress"):
            out = codec.decompress(blob)
    except Exception:
        ops.fail("decompress", traceback.format_exc(limit=1))
        return None
    td = time.perf_counter() - t0
    if out != expected:
        ops.fail("decompress", "output multiset differs from the input")
        return None
    return tc, td, before, between, host_probe()


def _versions() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


def _timing(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": len(samples),
    }


def measure(workload, seed: int, seconds: float, trace: bool, codec=None, n: int | None = None) -> dict:
    raw = workload.inputs(seed, n)
    n = len(raw)
    members = workload.members(raw)
    expected = in_output_order(members)
    codec = codec if codec is not None else workload.codec()
    reference, bits = codec.reference(members)

    ops = Ops()
    plain: list[tuple[float, ...]] = []   # round_trip's five times
    traced: list[tuple[Tracer, dict]] = []   # with the trip's table-cache counts
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        r = round_trip(codec, members, expected, reference, ops)
        if r is not None:
            plain.append(r)
        if trace:
            tracer = Tracer()
            before = _cache_info()
            with tracer.installed():
                r = round_trip(codec, members, expected, reference, ops, tracer)
            if r is not None:
                after = _cache_info()
                traced.append((tracer, {k: after[k] - before[k] for k in after}))
        last = time.perf_counter() - t0
        if time.perf_counter() + last > deadline:
            break

    result = {
        "workload": workload.name,
        "seed": seed,
        "n": n,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "container_bits": bits,
        "container_sha256": hashlib.sha256(reference).hexdigest(),
        "bits_per_element": bits / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_versions(),
    }
    if plain:
        result["compress_s"] = _timing([r[0] for r in plain])
        result["decompress_s"] = _timing([r[1] for r in plain])
        result["host_probe_s"] = _timing([p for r in plain for p in r[2:]])
        # Each operation's time over the mean of the probes just before and
        # just after it: a host that runs slower for a while slows both.
        result["compress_at_ref_s"] = PROBE_REF_S * statistics.median(
            2 * tc / (p0 + p1) for tc, _, p0, p1, _ in plain
        )
        result["decompress_at_ref_s"] = PROBE_REF_S * statistics.median(
            2 * td / (p1 + p2) for _, td, _, p1, p2 in plain
        )
        result["trips"] = plain
    if traced:
        result["layers"] = layer_metrics(codec, members, n, plain, traced)
        result["spans"] = [[s.to_json() for s in t.spans] for t, _ in traced]
    return result


def _cache_info() -> dict:
    from msetzip import quantize

    out = {"hits": 0, "misses": 0}
    for name in ("quantized_binomial", "quantized_betabin"):
        info = getattr(getattr(quantize, name, None), "cache_info", None)
        if info is not None:
            ci = info()
            out["hits"] += ci.hits
            out["misses"] += ci.misses
    return out


def layer_metrics(codec, members, n, plain, traced) -> dict:
    """Per-module metrics of the run's median traced round trip (by its
    duration), so that the module self times add up to it exactly."""
    per_trip = []
    for tracer, cache in traced:
        s = summarize(tracer.spans)
        inc, self_, calls, mod, cnt = (
            s["inclusive"], s["span_self"], s["calls"], s["module_self"], s["counters"]
        )
        symbols = cnt["rangecoder.symbols_coded"]
        on_trie = isinstance(codec, workloads.TreeCodec)
        lookups = cache["hits"] + cache["misses"]
        per_trip.append(
            {
                "container.self_s": mod["container"],
                "msettree.build_s": inc["msettree.build"],
                "msettree.enumerate_s": inc["msettree.enumerate"],
                "msettree.self_s": mod["msettree"],
                "bits.from_bits_calls": calls["bits.from_bits"][0],
                "bits.from_bits_s": calls["bits.from_bits"][1],
                "bits.self_s": mod["bits"],
                "treecodec.validate_s": inc["treecodec.validate"],
                "treecodec.encode_s": inc["treecodec.encode"],
                "treecodec.decode_s": inc["treecodec.decode"],
                "treecodec.validate_self_s": self_["treecodec.validate"],
                "treecodec.encode_self_s": self_["treecodec.encode"],
                "treecodec.decode_self_s": self_["treecodec.decode"],
                "treecodec.self_s": mod["treecodec"],
                "treecodec.decisions": symbols if on_trie else 0,
                "rangecoder.encode_s": calls["rangecoder.encode_interval"][1]
                + calls["rangecoder.finish"][1],
                "rangecoder.decode_s": calls["rangecoder.decode_target"][1]
                + calls["rangecoder.decode_commit"][1],
                "rangecoder.self_s": mod["rangecoder"],
                "rangecoder.payload_bits": cnt["rangecoder.payload_bits"],
                "quantize.lookup_s": calls["quantize.lookup"][1],
                "quantize.build_s": calls["quantize.build"][1],
                "quantize.self_s": mod["quantize"],
                "quantize.table_builds": calls["quantize.build"][0],
                "quantize.table_hits": cache["hits"],
                "quantize.cache_lookups": lookups,
                "quantize.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
                "distributions.log2pmf_s": calls["distributions.log2pmf"][1],
                "distributions.self_s": mod["distributions"],
                "models.detector_calls": calls["models.detector"][0],
                "models.detector_s": calls["models.detector"][1],
                "models.hazard_calls": calls["models.hazard"][0],
                "models.hazard_s": calls["models.hazard"][1],
                "models.self_s": mod["models"],
                "dirmult.encode_s": inc["dirmult.encode"],
                "dirmult.decode_s": inc["dirmult.decode"],
                "dirmult.self_s": mod["dirmult"],
                "dirmult.slots_coded": 0 if on_trie else symbols,
                "trace.self_sum_s": sum(mod.values()),
                "trace.traced_round_trip_s": inc["container.compress"]
                + inc["container.decompress"],
            }
        )
    per_trip.sort(key=lambda t: t["trace.traced_round_trip_s"])
    out = per_trip[(len(per_trip) - 1) // 2]
    ideal, out["msettree.nodes"] = codec.ideal_and_nodes(members)
    out["rangecoder.redundancy_bits_per_element"] = (out["rangecoder.payload_bits"] - ideal) / n
    untraced = statistics.median(r[0] + r[1] for r in plain) if plain else float("nan")
    out["trace.untraced_round_trip_s"] = untraced
    out["trace.overhead_ratio"] = out["trace.traced_round_trip_s"] / untraced
    return out


def setup(workload, seed: int) -> dict:
    """Set-up time, raw and at the reference host speed (over the mean of
    host probes just before and just after it)."""
    first = sorted(workload.inputs(seed))[:WARMUP_MEMBERS]
    before = host_probe()
    t0 = time.perf_counter()
    import msetzip  # noqa: F401  (the import is what is being timed)

    codec = workload.codec()
    members = workload.members(first)
    out = codec.decompress(codec.compress(members))
    elapsed = time.perf_counter() - t0
    after = host_probe()
    return {
        "setup_s": elapsed,
        "setup_at_ref_s": PROBE_REF_S * 2 * elapsed / (before + after),
        "ok": out == in_output_order(members),
    }


def headline() -> dict:
    workload = WORKLOADS["rsha1-binomial"]
    members = workload.members(workloads.sha1_digests(0, HEADLINE_N))
    blob, bits = workload.codec().reference(members)
    return {
        "n": HEADLINE_N,
        "bits_per_element": bits / HEADLINE_N,
        "container_sha256": hashlib.sha256(blob).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("measure", "setup", "headline"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "measure":
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    elif args.mode == "setup":
        result = setup(workload, args.seed)
    else:
        result = headline()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
