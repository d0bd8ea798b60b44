"""Self-test of the benchmark, run from the root of a checkout:

    python -m pytest perfbench/test_bench.py

It runs every workload at toy size, untraced and traced, through the
same entry point as the real runs, and checks that every metric of
BENCHMARK.json comes out with its unit, that a wrong split is counted
as a failure, and that outside a checkout the benchmark fails without
printing a result.  Takes about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402
from vlcfair.allocate import efopa_allocate, grpa_allocate, ngdpa_allocate, oma_allocate  # noqa: E402
from vlcfair.rates import NoiseModel, UserLink, rate_oma  # noqa: E402
from vlcfair.reference import reference_model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = ("--seconds", "1", "--subsample", "32")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def toy():
    proc = bench("--workload", "all", "--seed", "7", *TOY)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_every_metric_with_its_unit(toy):
    _, runs = toy
    assert set(runs) == {w["name"] for w in SPEC["workloads"]}
    for name, run in runs.items():
        for kind, metrics in (("untraced", SPEC["end_to_end"]), ("traced", SPEC["per_layer"])):
            line = run[kind]
            assert line["correct"], (name, kind, run["notes"])
            assert line["attempted"] >= 1
            units = {key: m["unit"] for key, m in line["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in metrics}, (name, kind)


def test_every_layer_metric_is_reached_by_some_workload(toy):
    _, runs = toy
    for m in SPEC["per_layer"]:
        values = [run["traced"]["metrics"][m["name"]]["value"] for run in runs.values()]
        assert any(values), m["name"]


def test_headline_metrics_are_printed_with_units(toy):
    stdout, _ = toy
    for name, unit in (
        ("setup_s[offline_derive]", "s"),
        ("derive_s", "s"),
        ("derive_curve_dev", "ratio"),
        ("alloc_per_s", "ops/s"),
        ("alloc_p50_us", "us"),
        ("alloc_p99_us", "us"),
        ("pairs_per_s", "pairs/s"),
        ("peak_rss_mb[batch_compare]", "MB"),
        ("fail_frac[online_allocate]", "ratio"),
    ):
        assert re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$", stdout, re.M), name


def test_a_wrong_split_is_counted_as_a_failure():
    model, p_max, bandwidth, s2 = reference_model(), 22.5, 3e7, 3e-12
    h1 = np.array([1.2e-4, 1.2e-4, 1.2e-4, 1.2e-4])
    h2 = np.array([6e-5, 4e-5, 2e-5, 1e-5])
    codes = np.array([0, 1, 2, 3])
    rows = []
    for a, b, code in zip(h1, h2, codes):
        if code == 3:
            noise = NoiseModel(s2)
            p = oma_allocate(p_max, 2)
            rows.append((*p, *(rate_oma(UserLink(h, bandwidth), p_max, 2, noise) for h in (a, b))))
        else:
            split = (lambda: efopa_allocate(model, a, b, p_max), lambda: grpa_allocate(a, b, p_max),
                     lambda: ngdpa_allocate(a, b, p_max))[code]  # fmt: skip
            rows.append((*split().powers, 1.0, 1.0))
    res = np.array(rows)
    args = (model, p_max, bandwidth, s2, h1, h2, codes)
    assert workloads.check_online_block(*args, res)[0] == 0
    for row, col, factor in ((0, 0, 1 + 1e-9), (1, 1, 1 + 1e-9), (3, 2, 1.01)):
        wrong = res.copy()
        wrong[row, col] *= factor
        assert workloads.check_online_block(*args, wrong)[0] == 1, (row, col)


def test_the_equal_gain_probe_counts_each_rejected_pair():
    def op(h1, h2, code):
        if code != 1:
            raise ValueError("equal gains")

    assert workloads.equal_gain_probe([1e-4, 2e-4, 3e-4], op) == 6


def test_latency_buffer_keeps_an_even_sample():
    tally = workloads.Tally(capacity=64)
    for start in range(0, 1000, 100):
        tally.record(list(range(start, start + 100)), 1)
    assert tally.returned == 1000
    assert 0 < tally._kept <= 64
    kept = tally._buf[: tally._kept]
    assert kept.min() < 100 and kept.max() >= 900


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = bench("--workload", "online_allocate", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
