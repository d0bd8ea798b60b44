"""One fresh workload process of the benchmark.

run.py starts this file once per set-up sample and once per measured
run, always as a new single-threaded interpreter:

    python3 perfbench/worker.py MODE WORKLOAD WORKDIR SEED SECONDS TRACE SUBSAMPLE OUT

MODE is ``prepare`` (write the run's input files into WORKDIR),
``setup`` (set up, then exit) or ``run`` (set up, then run WORKLOAD for
SECONDS).  The process stamps each set-up stage on the system-wide
monotonic clock, so run.py can measure from the moment it launched
the process, and writes its result as JSON to OUT.
"""

import time

T_START = time.monotonic_ns()

import sys  # noqa: E402

CONFIG = "configs/paper.cfg"


def set_up(workload: str, workdir: str):
    """Import the program and load what the workload's first op needs."""
    stamps = {"start": T_START}
    import numpy  # noqa: F401

    stamps["numpy"] = time.monotonic_ns()
    import vlcfair.cli  # noqa: F401

    stamps["vlcfair"] = time.monotonic_ns()
    from vlcfair.config import load_config

    cfg = load_config(CONFIG)
    stamps["config"] = time.monotonic_ns()
    model = None
    if workload != "offline_derive":
        from vlcfair.modelio import load_model

        model = load_model(f"{workdir}/ref_model.txt")
        stamps["model"] = time.monotonic_ns()
    stamps["ready"] = time.monotonic_ns()
    return stamps, cfg, model


def prepare(workdir: str, seed: int):
    """Inputs made once per run and never timed: the published-constants
    model, the channel set, and a seed-shuffled copy of it (the program
    sorts the gains it reads, so the shuffle changes no result)."""
    import random
    from pathlib import Path

    from workloads import quiet_main

    work = Path(workdir)
    codes = [
        quiet_main(["reference-model", "--out", work / "ref_model.txt"]),
        quiet_main(["channels", "--config", CONFIG, "--out", work / "channels.csv"]),
    ]
    if any(codes):
        raise SystemExit(f"preparing inputs failed: exit codes {codes}")
    lines = (work / "channels.csv").read_text(encoding="utf-8").splitlines()
    body = lines.index("gain") + 1
    gains = lines[body:]
    random.Random(seed).shuffle(gains)
    (work / "channels_shuffled.csv").write_text(
        "\n".join(lines[:body] + gains) + "\n", encoding="utf-8"
    )


def main(argv) -> int:
    mode, workload, workdir, seed, seconds, trace, subsample, out = argv
    seed, seconds, trace, subsample = int(seed), float(seconds), trace == "1", int(subsample)
    if mode == "prepare":
        prepare(workdir, seed)
        result = {}
    else:
        stamps, cfg, model = set_up(workload, workdir)
        result = {"stamps": stamps}
    import json

    if mode == "run":
        import resource
        from pathlib import Path

        import workloads

        ctx = workloads.Context(
            workdir=Path(workdir),
            seed=seed,
            subsample=subsample,
            trace=trace,
            deadline=time.perf_counter() + seconds,
            cfg=cfg,
            model=model,
        )
        got = workloads.WORKLOADS[workload](ctx)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain, traced = got["plain"], got["traced"]
        result.update(plain.summary())
        result["e2e"] = plain.e2e()
        result["details"] = got["details"]
        if trace:
            result["traced"] = {**traced.summary(), "e2e": traced.e2e()}
            result["layers"] = got["layers"]
            got["tracer"].dump(Path(workdir) / "spans.jsonl.gz")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
