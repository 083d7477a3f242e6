"""msetzip benchmark: timed, checked compress/decompress round trips.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in fresh, single-threaded worker processes (perfbench/
worker.py), one at a time: five set-up probes, then the measurement.  For
rsha1-binomial at seed 0 one more process checks the paper's headline,
147.44 to 147.46 bits per element at N = 16384.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-module metrics with --trace 1.  The line before it is the full report
(container hash, sample counts, versions, load average, commit), which is
also written, with the trace spans, to .bench_build/perfbench/.  The exit
code is 1 if any operation failed or any check did not hold.  --workload all
runs every workload in turn and prints a table of metrics with units.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import HEADLINE_BITS_PER_ELEMENT, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_BUDGET_S = 170.0   # a run must end within 180 s

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "compress_members_per_s": "members/s",
    "decompress_members_per_s": "members/s",
    "bits_per_element": "bits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class CheckFailed(Exception):
    pass


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}


def end_to_end_metrics(m: dict, setup_s: list[float]) -> dict:
    """The end-to-end metrics from a measure worker's result."""
    n = m["n"]
    values = {
        "compress_members_per_s": n / m["compress_at_ref_s"],
        "decompress_members_per_s": n / m["decompress_at_ref_s"],
        "bits_per_element": m["bits_per_element"],
        "peak_rss_mb": m["peak_rss_mb"],
        "setup_s": statistics.median(setup_s),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(layers: dict) -> dict:
    return {k: {"value": layers[k], "unit": u} for k, u in per_layer_units().items()}


def _worker(mode: str, workload: str, seed: int, seconds: float, trace: int, timeout: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as e:
        raise CheckFailed(f"{mode} worker for {workload} did not end within {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise CheckFailed(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the report with its "result" line."""
    started = time.monotonic()
    report: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": _commit(),
    }
    problems: list[str] = []

    setups = [_worker("setup", name, seed, seconds, trace, 60.0) for _ in range(SETUP_PROBES)]
    if not all(s["ok"] for s in setups):
        problems.append("a set-up warm-up round trip returned the wrong multiset")
    report["setup_s"] = [s["setup_s"] for s in setups]
    report["setup_at_ref_s"] = [s["setup_at_ref_s"] for s in setups]

    if name == "rsha1-binomial" and seed == 0:
        head = _worker("headline", name, seed, seconds, trace, 120.0)
        lo, hi = HEADLINE_BITS_PER_ELEMENT
        if not lo <= head["bits_per_element"] <= hi:
            problems.append(
                f"headline: {head['bits_per_element']:.4f} bits/element at N = {head['n']}, "
                f"outside [{lo}, {hi}]"
            )
        report["headline"] = head

    remaining = RUN_BUDGET_S - (time.monotonic() - started)
    m = _worker("measure", name, seed, seconds, trace, remaining)
    spans = m.pop("spans", None)
    layers = m.pop("layers", None)
    report.update(m)
    report["loadavg_end"] = list(os.getloadavg())
    problems += m["failures"]
    if m["failed"] or "compress_s" not in m:
        problems.append(f"{m['failed']} of {m['attempted']} operations failed")

    if trace:
        if layers is None:
            problems.append("no traced round trip succeeded")
        metrics = per_layer_metrics(layers) if layers is not None else {}
    else:
        metrics = end_to_end_metrics(m, report["setup_at_ref_s"]) if "compress_s" in m else {}

    report["problems"] = problems
    report["result"] = {
        "correct": not problems,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps({**report, "layers": layers, "spans": spans}, indent=1))
    return report


def _print_table(reports: list[dict]) -> None:
    for r in reports:
        res = r["result"]
        print(f"== {r['workload']}  seed {r['seed']}  N {r['n']}  container {r['container_sha256'][:16]}")
        for name, m in res["metrics"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'ops_attempted':<40} {res['attempted']:>14d} count")
        print(f"  {'ops_failed':<40} {res['failed']:>14d} count")
        for p in r["problems"]:
            print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "msetzip" / "__init__.py").is_file():
        print(f"error: no msetzip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _benchmark_spec()["run_seconds"]
    if seconds < 1:
        ap.error("--seconds must be at least 1")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, seconds, args.trace) for n in names]
    except CheckFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.workload == "all":
        _print_table(reports)
        result = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {
                f"{r['workload']}/{k}": v for r in reports for k, v in r["result"]["metrics"].items()
            },
        }
    else:
        (report,) = reports
        for p in report["problems"]:
            print(f"PROBLEM: {p}", file=sys.stderr)
        print(json.dumps({k: v for k, v in report.items() if k != "result"}))
        result = report["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
