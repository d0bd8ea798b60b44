"""Benchmark of vlcfair: offline derivation, online allocation, batch comparison.

Run from the root of a checkout (the directory holding BENCHMARK.json,
src/ and configs/):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

With one workload, the last line of stdout is one JSON object: whether
every output checked out, ops attempted and failed, and every
end-to-end metric of BENCHMARK.json (``--trace 0``) or every per-layer
metric (``--trace 1``), each with its unit.  ``--workload all`` runs
each workload untraced and traced, prints the headline numbers, the
per-layer numbers and the tracing overhead with their units, and
writes everything, with the machine's facts, to perfbench/out/results.json.

Each workload runs in fresh single-threaded processes, one at a time:
SETUP_SAMPLES processes that only set up, then the process that sets up
and measures.  Set-up time is taken from launching a process until it
is ready for its first op, and reported as the median of all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOADS = ("offline_derive", "online_allocate", "batch_compare")
SETUP_SAMPLES = 10
TIME_LIMIT_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(mode, workload, work, seed, seconds, trace, subsample, deadline):
    """Run worker.py once in a fresh process; returns (launch stamp, result)."""
    out = work / f"{mode}-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd() / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every process
    argv = [
        sys.executable, str(HERE / "worker.py"), mode, workload, str(work),
        str(seed), str(seconds), str(int(trace)), str(subsample), str(out),
    ]  # fmt: skip
    launch = time.monotonic_ns()
    try:
        proc = subprocess.run(
            argv,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process of {workload} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} process of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return launch, json.loads(out.read_text(encoding="utf-8"))


def setup_numbers(launch: int, stamps: dict) -> dict:
    """Set-up time of one process and of its stages, from its stamps."""
    return {
        "setup_s": (stamps["ready"] - launch) / 1e9,
        "import.interpreter_s": (stamps["start"] - launch) / 1e9,
        "import.numpy_s": (stamps["numpy"] - stamps["start"]) / 1e9,
        "import.vlcfair_s": (stamps["vlcfair"] - stamps["numpy"]) / 1e9,
        "config.load_ms": (stamps["config"] - stamps["vlcfair"]) / 1e6,
        "modelio.load_ms": (stamps["model"] - stamps["config"]) / 1e6 if "model" in stamps else 0.0,
    }


def run_workload(workload, seed, seconds, trace, subsample) -> dict:
    """One measured run: its values by metric name, counts and details."""
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        args = (workload, work, seed, seconds, trace, subsample, deadline)
        spawn("prepare", *args)
        samples = []
        for mode in ("setup",) * SETUP_SAMPLES + ("run",):
            launch, res = spawn(mode, *args)
            samples.append(setup_numbers(launch, res["stamps"]))
        if trace:
            (OUT_DIR / "spans").mkdir(exist_ok=True)
            shutil.move(
                str(work / "spans.jsonl.gz"),
                str(OUT_DIR / "spans" / f"{workload}-seed{seed}.jsonl.gz"),
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    e2e = res["e2e"]
    values.update(
        {
            "ops_per_s": e2e["ops_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "bench.op_p50_ms": e2e["op_p50_ms"],
            "bench.op_p99_ms": e2e["op_p99_ms"],
            "bench.samples": e2e["samples"],
        }
    )
    attempted, failed = res["attempted"], res["failed"]
    wrong, unexpected = res["wrong"], res["unexpected"]
    values["ok_frac"] = (attempted - failed) / attempted
    notes = res["notes"]
    if trace:
        t = res["traced"]
        attempted += t["attempted"]
        failed += t["failed"]
        wrong += t["wrong"]
        unexpected += t["unexpected"]
        notes = notes + t["notes"]
        values.update(res["layers"])
        for key in ("op_p50_ms", "op_p99_ms", "ops_per_s"):
            values[f"trace.delta_{key}"] = t["e2e"][key] - e2e[key]
    return {
        "correct": wrong == 0 and unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "details": res["details"],
        "notes": notes,
    }


def load_spec() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))


def report(run: dict, metrics: list) -> dict:
    """The result line: every named metric with its unit.  Layers a
    workload never reaches read 0."""
    out = {}
    for m in metrics:
        value = float(run["values"].get(m["name"], 0.0))
        if not math.isfinite(value):
            raise BenchError(f"{m['name']} is not finite: {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": out,
    }


def headline(results: dict) -> list:
    """The headline numbers (name, value, unit) derived from the runs;
    design.json maps each to the metrics it comes from."""
    plain = {w: results[w]["untraced"] for w in WORKLOADS}
    d, o, b = (plain[w]["values"] for w in WORKLOADS)
    rows = [(f"setup_s[{w}]", plain[w]["values"]["setup_s"], "s") for w in WORKLOADS]
    rows += [
        ("derive_s", d["bench.op_p50_ms"] / 1e3, "s"),
        ("derive_curve_dev", plain["offline_derive"]["details"]["curve_dev_max"], "ratio"),
        ("alloc_per_s", o["ops_per_s"], "ops/s"),
        ("alloc_p50_us", o["bench.op_p50_ms"] * 1e3, "us"),
        ("alloc_p99_us", o["bench.op_p99_ms"] * 1e3, "us"),
        ("alloc_latency_samples", o["bench.samples"], "count"),
        (
            "pairs_per_s",
            plain["batch_compare"]["details"]["pairs_per_op"] / (b["bench.op_p50_ms"] / 1e3),
            "pairs/s",
        ),
    ]
    rows += [(f"peak_rss_mb[{w}]", plain[w]["values"]["peak_rss_mb"], "MB") for w in WORKLOADS]
    rows += [(f"fail_frac[{w}]", 1.0 - plain[w]["values"]["ok_frac"], "ratio") for w in WORKLOADS]
    return rows


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit,
    }


def run_all(spec, seed, seconds, subsample) -> dict:
    results = {}
    for w in WORKLOADS:
        results[w] = {
            "untraced": run_workload(w, seed, seconds, False, subsample),
            "traced": run_workload(w, seed, seconds, True, subsample),
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("== end-to-end (untraced)")
    for w in WORKLOADS:
        r = results[w]["untraced"]
        print(f"-- {w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for m in spec["end_to_end"]:
            print(f"  {m['name']} = {r['values'][m['name']]:.6g} {m['unit']}")
    print("== headline")
    rows = headline(results)
    for name, value, unit in rows:
        print(f"  {name} = {value:.6g} {unit}")
    print("== tracing overhead (traced minus untraced)")
    overhead = {}
    for w in WORKLOADS:
        plain, traced = results[w]["untraced"]["values"], results[w]["traced"]["values"]
        overhead[w] = {
            "setup_s": traced["setup_s"] - plain["setup_s"],
            "peak_rss_mb": traced["peak_rss_mb"] - plain["peak_rss_mb"],
            "ok_frac": traced["ok_frac"] - plain["ok_frac"],
            "ops_per_s": traced["trace.delta_ops_per_s"],
            "bench.op_p50_ms": traced["trace.delta_op_p50_ms"],
            "bench.op_p99_ms": traced["trace.delta_op_p99_ms"],
        }
        print(f"-- {w}: " + ", ".join(f"{k} {v:+.6g} {units[k]}" for k, v in overhead[w].items()))
    print("== per layer (traced)")
    for w in WORKLOADS:
        r = results[w]["traced"]
        print(f"-- {w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for m in spec["per_layer"]:
            print(f"  {m['name']} = {r['values'].get(m['name'], 0.0):.6g} {m['unit']}")
    summary = {
        "machine": machine_facts(),
        "design": json.loads((HERE / "design.json").read_text(encoding="utf-8")),
        "seed": seed,
        "seconds": seconds,
        "subsample": subsample,
        "headline": [{"name": n, "value": v, "unit": u} for n, v, u in rows],
        "tracing_overhead": overhead,
        "runs": {
            w: {
                "untraced": report(results[w]["untraced"], spec["end_to_end"]),
                "traced": report(results[w]["traced"], spec["per_layer"]),
                "details": results[w]["untraced"]["details"],
                "notes": results[w]["untraced"]["notes"] + results[w]["traced"]["notes"],
            }
            for w in WORKLOADS
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"results -> {OUT_DIR / 'results.json'}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--subsample",
        type=int,
        default=8,
        help="offline_derive keeps every n-th channel, so one op fits a run",
    )
    args = parser.parse_args(argv)
    missing = [
        p for p in ("BENCHMARK.json", "src/vlcfair/cli.py", "configs/paper.cfg")
        if not Path(p).is_file()
    ]  # fmt: skip
    if missing:
        print(f"error: not the root of a vlcfair checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.workload == "all":
            summary = run_all(spec, args.seed, args.seconds, args.subsample)
            print(json.dumps(summary["runs"]))
            return 0
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.subsample)
        line = report(run, spec["per_layer"] if args.trace else spec["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in run["notes"]:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
