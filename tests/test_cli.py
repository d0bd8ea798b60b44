"""CLI commands end to end, plus scalar/vector rate-path consistency."""

import csv
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vlcfair import allocate, stats
from vlcfair.allocate import channel_stream_seed
from vlcfair.cli import _resolve_h1, main
from vlcfair.config import _KEYS, load_config
from vlcfair.modelio import format_float, load_model
from vlcfair.rates import AllocationVector, NoiseModel, UserLink, evaluate
from vlcfair.stats import METHODS, RATE_MODELS, jain_vec, method_rates, noma_rates_vec

from oracle import exact_fair_split

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def ref_model(workdir):
    path = workdir / "ref_model.txt"
    assert main(["reference-model", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def channels_file(workdir):
    path = workdir / "channels.csv"
    assert main(["channels", "--config", CONFIG, "--out", str(path)]) == 0
    return str(path)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(rows))


def read_meta(path):
    meta = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            meta[key.strip()] = value.strip()
    return meta


class TestChannelsCommand:
    def test_metadata_reports_statistics(self, channels_file):
        meta = read_meta(channels_file)
        assert meta["combo_count"] == "3024"
        assert meta["unique_count"] == "1538"
        assert float(meta["dedup_resolution"]) == pytest.approx(1.5e-9)
        rows = read_rows(channels_file)
        assert rows[0] == ["gain"]
        gains = [float(r[0]) for r in rows[1:]]
        assert len(gains) == 1538
        assert gains == sorted(gains)
        assert float(meta["mean_gain"]) == pytest.approx(
            sum(gains) / len(gains), rel=1e-8
        )

    def test_invalid_config_fails_with_diagnostic(self, workdir, capsys):
        bad = workdir / "bad.cfg"
        bad.write_text(Path(CONFIG).read_text().replace(
            "optics.fov_deg = 60.0", "optics.fov_deg = 0.0"
        ))
        rc = main(["channels", "--config", str(bad), "--out", str(workdir / "x.csv")])
        assert rc != 0
        assert "fov" in capsys.readouterr().err


class TestAllocateCommand:
    def test_efopa_reference_point(self, ref_model, capsys):
        rc = main([
            "allocate", "--config", CONFIG, "--model", ref_model,
            "--method", "efopa", "--h1", "9.5493e-5", "--h2", "9.1924e-6",
            "--mu-mode", "paper-example",
        ])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["p1_w"]) == pytest.approx(0.0790, abs=5e-4)
        assert float(values["rate1_bps"]) == pytest.approx(237.42e6, rel=5e-3)
        assert float(values["rate2_bps"]) == pytest.approx(244.61e6, rel=5e-3)

    def test_grpa(self, capsys):
        rc = main([
            "allocate", "--config", CONFIG, "--method", "grpa",
            "--h1", "9.5493e-5", "--h2", "9.1924e-6",
        ])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        # r = 9.1924e-6 / 9.5493e-5, not the rounded reference ratio
        r = 9.1924e-6 / 9.5493e-5
        assert float(values["p1_w"]) == pytest.approx(22.5 * r * r / (1 + r * r), rel=1e-6)

    def test_oma(self, capsys):
        rc = main([
            "allocate", "--config", CONFIG, "--method", "oma",
            "--h1", "9.5493e-5", "--h2", "9.1924e-6",
        ])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["p1_w"]) == 22.5
        assert float(values["p2_w"]) == 22.5
        expected = 15e6 * math.log2(1 + (9.5493e-5) ** 2 * 22.5 / 3e-12)
        assert float(values["rate1_bps"]) == pytest.approx(expected, rel=1e-8)

    def test_unknown_method_rejected(self, capsys):
        rc = main([
            "allocate", "--config", CONFIG, "--method", "magic",
            "--h1", "1e-4", "--h2", "1e-5",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "--method" in err

    def test_ordering_violation_diagnostic(self, ref_model, capsys):
        rc = main([
            "allocate", "--config", CONFIG, "--model", ref_model,
            "--method", "efopa", "--h1", "1e-5", "--h2", "1e-4",
        ])
        assert rc == 2
        assert "h2" in capsys.readouterr().err

    @pytest.mark.parametrize("rate_model", RATE_MODELS)
    @pytest.mark.parametrize("method", ["grpa", "ngdpa", "efopa"])
    def test_equal_gains_accepted(self, ref_model, capsys, method, rate_model):
        # SIC needs h1 >= h2, so h1 == h2 is a pair like any other, scored
        # as pairs-stats scores it
        rc = main([
            "allocate", "--config", CONFIG, "--model", ref_model, "--method", method,
            "--h1", "1e-4", "--h2", "1e-4", "--rate-model", rate_model,
        ])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        cfg = replace(load_config(CONFIG), rate_model=rate_model)
        expected = method_rates(method, load_model(ref_model), 1e-4, 1e-4, cfg)
        names = ("p1_w", "p2_w", "rate1_bps", "rate2_bps", "sum_rate_bps", "fairness")
        assert [values[n] for n in names] == [format_float(v) for v in expected]
        if (method, rate_model) == ("ngdpa", "paper-repro"):
            # p1 = 0: no interference, so the weak rate is the model's limit
            assert values["rate2_bps"] == "inf"
            assert float(values["fairness"]) == 0.5

    def test_rates_whose_squares_overflow_are_scored(self, tmp_path, capsys):
        # rates near 1e201 bit/s: their squares overflow, and the Jain
        # index rescales them instead of calling the fairness undefined
        wide = (("noma.bandwidth_hz", "1e200"),)
        config, _ = _variant(CONFIG, tmp_path / "wide.cfg", wide)
        rc = main(["allocate", "--config", config, "--method", "grpa",
                   "--h1", "1e-4", "--h2", "1e-5"])  # fmt: skip
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        r1, r2 = float(values["rate1_bps"]), float(values["rate2_bps"])
        assert r1 > 1e200
        x = r2 / r1
        expected = (1.0 + x) ** 2 / (2.0 * (1.0 + x * x))
        assert float(values["fairness"]) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("method", ["efopa", "oma"])
    def test_rates_that_overflow_are_infinite(self, tmp_path, ref_model, capsys, method):
        # the largest bandwidth: both rates overflow to inf, scored as the
        # limit (fairness 1), with no numpy warning
        wide = (("noma.bandwidth_hz", "1.7976931348623157e308"),)
        config, _ = _variant(CONFIG, tmp_path / "wide.cfg", wide)
        rc = main(["allocate", "--config", config, "--model", ref_model, "--method", method,
                   "--h1", "1e-4", "--h2", "1e-5"])  # fmt: skip
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert [values[n] for n in ("rate1_bps", "rate2_bps", "sum_rate_bps")] == ["inf"] * 3
        assert float(values["fairness"]) == 1.0

    @pytest.mark.parametrize(
        "flag, extra",
        [
            ("--h1", ["--h1", "inf", "--h2", "1e-5"]),
            ("--h2", ["--h1", "1e-4", "--h2", "nan"]),
            ("--p-max", ["--h1", "1e-4", "--h2", "1e-5", "--p-max", "inf"]),
            ("--p-max", ["--h1", "1e-4", "--h2", "1e-5", "--p-max", "0"]),
            ("--h2", ["--h1", "1e-4", "--h2=-1e-5"]),
        ],
    )
    def test_non_finite_input_rejected(self, flag, extra, capsys):
        rc = main(["allocate", "--config", CONFIG, "--method", "grpa", *extra])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert flag in captured.err


class TestDeriveCommand:
    def test_rates_whose_squares_overflow_are_scored(self, tmp_path, capsys):
        # rates near 1e201 bit/s: the colony's objective rescales them as
        # the Jain index does, and every optimum stays the fair split
        wide = (("noma.bandwidth_hz", "1e200"),)
        config, _ = _variant(CONFIG, tmp_path / "wide.cfg", wide)
        dataset = tmp_path / "dataset.csv"
        rc = main(["derive", "--config", config, "--subsample", "64",
                   "--out-model", str(tmp_path / "model.txt"), "--out-dataset", str(dataset)])  # fmt: skip
        assert rc == 0
        assert capsys.readouterr().out.startswith("derive: 22 points")
        meta = read_meta(dataset)
        h1, p_max = float(meta["h1"]), float(meta["p_max_w"])
        rows = np.array(read_rows(dataset)[1:], dtype=float)
        exact = exact_fair_split(h1, rows[:, 0] * h1, p_max, 1.2e-11)
        assert np.max(np.abs(rows[:, 1] - exact)) <= 1e-3 * p_max

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch, capsys):
        # one solve fails, and only in a forked worker: its error must come
        # back with its type and message, as one line, and exit 2
        parent = os.getpid()
        solve = allocate.optimize_fair_two_user

        def failing(inst, abc):
            if os.getpid() != parent and abc.seed == channel_stream_seed(7, 0):
                raise ValueError("boom")
            return solve(inst, abc)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(allocate, "optimize_fair_two_user", failing)
        rc = main(["derive", "--config", CONFIG, "--seed", "7", "--subsample", "64",
                   "--out-model", str(tmp_path / "model.txt"),
                   "--out-dataset", str(tmp_path / "dataset.csv")])  # fmt: skip
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: boom\n"

    def test_dead_worker_fails_the_run(self, tmp_path):
        # a worker that ends without a result (killed, say) must not leave
        # derive waiting for it
        model, dataset = str(tmp_path / "model.txt"), str(tmp_path / "dataset.csv")
        done = _python("-c", f"""
import os
from vlcfair import allocate
from vlcfair.cli import main
parent = os.getpid()
solve = allocate.optimize_fair_two_user
def dying(inst, abc):
    if os.getpid() != parent:
        os._exit(1)
    return solve(inst, abc)
os.sched_getaffinity = lambda pid: {{0, 1}}
allocate.optimize_fair_two_user = dying
main(["derive", "--config", {CONFIG!r}, "--subsample", "64",
      "--out-model", {model!r}, "--out-dataset", {dataset!r}])
""")
        assert done.returncode != 0
        assert "ended without a result (exit status 1)" in done.stderr

    def test_worker_dying_after_a_claim_fails_the_run(self, tmp_path):
        # a worker that dies right after it reads the claim queue takes its
        # claim with it: derive must still end with the worker's error, well
        # within _python's timeout, with every child reaped
        model, dataset = str(tmp_path / "model.txt"), str(tmp_path / "dataset.csv")
        start = time.monotonic()
        done = _python("-c", f"""
import os
from vlcfair.cli import main
parent = os.getpid()
read = os.read
def dying(fd, n):
    data = read(fd, n)
    if os.getpid() != parent:
        os._exit(3)
    return data
os.sched_getaffinity = lambda pid: {{0, 1}}
os.read = dying
try:
    main(["derive", "--config", {CONFIG!r}, "--subsample", "64",
          "--out-model", {model!r}, "--out-dataset", {dataset!r}])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
""")
        assert time.monotonic() - start < 30
        assert done.returncode != 0
        assert "ended without a result (exit status 3)" in done.stderr
        assert done.stdout == "no child left\n"


class TestSweepCommand:
    def test_row_grid_and_ordering(self, workdir, ref_model):
        out = workdir / "sweep.csv"
        rc = main([
            "sweep", "--config", CONFIG, "--model", ref_model,
            "--r-min", "0.2", "--r-max", "0.4", "--r-step", "0.1",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 12  # 3 ratios x 4 methods
        keys = [(float(r[0]), r[1]) for r in rows]
        assert keys == sorted(keys)

    def test_oma_strong_user_rate_constant(self, workdir, ref_model):
        out = workdir / "sweep_oma.csv"
        main([
            "sweep", "--config", CONFIG, "--model", ref_model,
            "--methods", "oma", "--out", str(out),
        ])
        rates = {row[4] for row in read_rows(out)[1:]}
        assert len(rates) == 1

    def test_last_ratio_is_r_max(self, workdir, ref_model):
        # 0.09 + 26 * 0.035 is 1.0000000000000002, where ngdpa's strong-user
        # power and rate would come out negative
        out = workdir / "sweep_edge.csv"
        rc = main([
            "sweep", "--config", CONFIG, "--model", ref_model, "--r-min", "0.09",
            "--r-step", "0.035", "--methods", "ngdpa", "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out)[1:]
        assert len(rows) == 27
        assert rows[-1][0] == "1.00000000e+00"
        assert min(float(v) for row in rows for v in row[2:]) >= 0.0

    @pytest.mark.parametrize(
        "spec, gain",
        [("h0", 4e-5), ("2h0", 8e-5), ("2*h0", 8e-5), ("2xh0", 8e-5), (" 1.17 H0 ", 1.17 * 4e-5),
         ("3e-5", 3e-5)],
    )  # fmt: skip
    def test_h1_forms(self, spec, gain):
        # the forms --h1 accepts for derive and sweep: a gain, h0 or a multiple of it
        assert _resolve_h1(spec, 4e-5) == gain


class TestWalkCommand:
    def test_waypoint_rates(self, workdir, ref_model):
        out = workdir / "walk.csv"
        rc = main([
            "walk", "--config", CONFIG, "--model", ref_model,
            "--mu-mode", "paper-example", "--out", str(out),
        ])
        assert rc == 0
        rows = {r[0]: r for r in read_rows(out)[1:]}
        assert set(rows) == {"a", "b", "c"}
        r1 = {k: float(v[10]) for k, v in rows.items()}
        r2 = {k: float(v[11]) for k, v in rows.items()}
        assert r1["a"] == pytest.approx(237.42e6, rel=5e-3)
        assert r2["a"] == pytest.approx(244.61e6, rel=5e-3)
        assert r1["b"] == pytest.approx(246.96e6, rel=5e-3)
        assert r2["b"] == pytest.approx(235.03e6, rel=5e-3)
        assert r1["c"] == pytest.approx(228.06e6, rel=5e-3)
        assert r2["c"] == pytest.approx(254.01e6, rel=5e-3)

    def test_out_of_fov_waypoint_flagged(self, workdir, ref_model):
        cfg = workdir / "fov.cfg"
        text = Path(CONFIG).read_text()
        cfg.write_text(text + "walk.point.far = 5.9, 5.9, 2.9\n")
        out = workdir / "walk_fov.csv"
        rc = main([
            "walk", "--config", str(cfg), "--model", ref_model, "--out", str(out),
        ])
        assert rc == 0
        rows = {r[0]: r for r in read_rows(out)[1:]}
        far = rows["far"]
        assert far[5] == "0"  # in_fov flag cleared
        assert float(far[4]) == 0.0


# eleven gains, unsorted, with repeats (the API takes them, the CLI does
# not), pairs clamped at the floor and at P/2 and infinite paper-repro rates
PAIR_GAINS = [1.6e-4, 8e-5, 4e-5, 1.6e-4, 2e-5, 1e-5, 4e-5, 1e-6, 5e-7, 3e-7, 5e-7]


def full_grid_statistics(gains, model, cfg, subsample):
    """pair_statistics scored on the whole n x n grid masked to h2 <= h1,
    all methods at once: the reference for the blocked walk."""
    gains = np.asarray(sorted(gains), dtype=float)
    if subsample is not None and subsample < len(gains):
        rng = np.random.default_rng(cfg.seed)
        gains = gains[np.sort(rng.choice(len(gains), size=subsample, replace=False))]
    n = len(gains)
    h1, h2 = np.repeat(gains, n), np.tile(gains, n)
    mask = h2 <= h1
    h1, h2 = h1[mask], h2[mask]
    results = {m: method_rates(m, model, h1, h2, cfg) for m in METHODS}
    p1, _, r1, r2, ref_sum, ref_fair = results["efopa"]
    report = {"pairs_total": int(len(h1)), "gains_used": n, "rate_model": cfg.rate_model}
    for m in ("grpa", "ngdpa", "oma"):
        s, f = results[m][4:]
        report[f"efopa_vs_{m}_sum_wins_pct"] = 100.0 * float(np.mean(ref_sum > s))
        report[f"efopa_vs_{m}_sum_ties_pct"] = 100.0 * float(np.mean(ref_sum == s))
        report[f"efopa_vs_{m}_fairness_wins_pct"] = 100.0 * float(np.mean(ref_fair > f))
    report["clamped_pairs"] = int(np.sum((p1 <= model.clamp_floor) | (p1 >= cfg.p_max / 2)))
    report["infinite_rate_pairs"] = int(np.sum(np.isinf(r1) | np.isinf(r2)))
    report["equal_gain_pairs"] = int(np.sum(h1 == h2))
    return report


class TestPairsStatsCommand:
    def test_subsampled_report(self, workdir, ref_model, channels_file, capsys):
        rc = main([
            "pairs-stats", "--config", CONFIG, "--model", ref_model,
            "--channels", channels_file, "--subsample", "200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        report = {}
        for line in out.splitlines():
            if " = " in line and not line.startswith("#"):
                k, _, v = line.partition(" = ")
                report[k.strip()] = v.strip()
        assert report["gains_used"] == "200"
        assert int(report["pairs_total"]) == 200 * 201 // 2
        assert 0.0 <= float(report["efopa_vs_oma_sum_wins_pct"]) <= 100.0

    def test_rate_model_follows_config(self, tmp_path, ref_model, capsys):
        config, _ = _variant(CONFIG, tmp_path / "run.cfg", (("noma.rate_model", "shannon"),))
        gains = tmp_path / "gains.csv"
        gains.write_text("gain\n3e-5\n1e-5\n")
        rc = main(["pairs-stats", "--config", config, "--model", ref_model,
                   "--channels", str(gains)])  # fmt: skip
        assert rc == 0
        assert "rate_model = shannon" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "body, bad_line",
        [
            ("gain\n3e-5\nnan\n", 3),
            ("gain\n3e-5\ninf\n", 3),
            ("gain\n3e-5\n-2e-5\n", 3),
            ("gain\n3e-5\n0\n", 3),
            ("gain\n3e-5\n1e-5\n3.0e-5\n", 4),
            ("gain\n3e-5\nabc\n", 3),
            ("# unsorted is fine\ngain\n3e-5\n1e-5\n2e-5\n", None),
        ],
        ids=["nan", "inf", "negative", "zero", "duplicate", "not-a-number", "unsorted"],
    )
    def test_channels_file_gains_checked(self, workdir, ref_model, capsys, body, bad_line):
        path = workdir / "gains.csv"
        path.write_text(body)
        rc = main([
            "pairs-stats", "--config", CONFIG, "--model", ref_model,
            "--channels", str(path),
        ])
        captured = capsys.readouterr()
        if bad_line is None:
            assert rc == 0
            assert "pairs_total = 6" in captured.out
        else:
            assert rc == 2
            assert captured.out == ""
            assert f"{path}:{bad_line}:" in captured.err

    def test_single_gain_degenerate_set(self):
        from vlcfair.reference import reference_model
        from vlcfair.stats import pair_statistics

        stats = pair_statistics([1e-4], reference_model(), load_config(CONFIG))
        assert stats["pairs_total"] == 1
        for key, value in stats.items():
            if key.endswith("_pct"):
                assert value in (0.0, 100.0)

    def test_empty_gain_set_rejected(self):
        from vlcfair.reference import reference_model
        from vlcfair.stats import pair_statistics

        with pytest.raises(ValueError, match="need at least one gain"):
            pair_statistics([], reference_model(), load_config(CONFIG))

    @pytest.mark.parametrize(
        "rate_model, subsample",
        [(m, None) for m in RATE_MODELS] + [("paper-repro", 8)],
    )
    def test_blocked_walk_matches_full_grid(self, monkeypatch, rate_model, subsample):
        from vlcfair import stats
        from vlcfair.reference import reference_model

        # a budget of 5 pairs: the rows of 11 gains (1, 3, 3, 4, 5, 6, 8, ...
        # pairs) make blocks of two rows, of one row, and of one row longer
        # than the budget; the reference scores orthogonal access per pair
        monkeypatch.setattr(stats, "_PAIR_BLOCK", 5)
        cfg = replace(load_config(CONFIG), rate_model=rate_model, seed=5)
        args = (PAIR_GAINS, reference_model(), cfg, subsample)
        assert stats.pair_statistics(*args) == full_grid_statistics(*args)

    @pytest.mark.parametrize("rate_model", RATE_MODELS)
    def test_report_does_not_depend_on_the_cpu_count(
        self, tmp_path, monkeypatch, ref_model, channels_file, rate_model
    ):
        # one usable CPU scores every block in this process; with two and
        # three, forked children and this process share the blocks: the
        # reports must be the same bytes, on the full set and on a subsample
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for subsample in ([], ["--subsample", "300"]):
            reports = []
            for cpus in ({0}, {0, 1}, {0, 1, 2}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
                out = tmp_path / "stats.txt"
                rc = main(["pairs-stats", "--config", CONFIG, "--model", ref_model,
                           "--channels", channels_file, "--rate-model", rate_model,
                           "--out", str(out), *subsample])  # fmt: skip
                assert rc == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1] == reports[2]
        assert len(forks) == 2 * (1 + 2)

    def test_one_block_forks_nothing(self, monkeypatch):
        # pairs that fit one block run in this process, whatever the CPU
        # count; one pair more makes two blocks and one child
        from vlcfair.reference import reference_model

        args = (PAIR_GAINS, reference_model(), load_config(CONFIG))
        total = stats.pair_statistics(*args)["pairs_total"]
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(stats, "_PAIR_BLOCK", total)
        stats.pair_statistics(*args)
        assert forks == []
        monkeypatch.setattr(stats, "_PAIR_BLOCK", total - 1)
        stats.pair_statistics(*args)
        assert forks == [1]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the two batch engines: the module function each item calls, and a
# command line that runs it on many items
_ENGINES = {
    "derive": (allocate, "optimize_fair_two_user",
               ["derive", "--config", CONFIG, "--subsample", "64",
                "--out-model", "{out}", "--out-dataset", "{dataset}"]),
    "pairs-stats": (stats, "method_rates",
                    ["pairs-stats", "--config", CONFIG, "--model", "{model}",
                     "--channels", "{channels}", "--subsample", "300", "--out", "{out}"]),
}  # fmt: skip


@pytest.mark.parametrize("engine", sorted(_ENGINES))
class TestForkedChildren:
    """Failures in the forked children of derive and pairs-stats, and in
    the calling process's own items: each reaches the caller, and no
    child outlives the call."""

    @pytest.fixture
    def run(self, monkeypatch, tmp_path, ref_model, channels_file, engine):
        module, name, argv = _ENGINES[engine]
        paths = {"out": str(tmp_path / "out.txt"), "dataset": str(tmp_path / "dataset.csv"),
                 "model": ref_model, "channels": channels_file}
        argv = [arg.format(**paths) for arg in argv]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def run(child, caller=None):
            """main(argv) with the engine's item function running
            ``child`` in a forked child and ``caller`` in this process
            before the real function."""
            parent, real = os.getpid(), getattr(module, name)

            def patched(*args):
                (child if os.getpid() != parent else caller or (lambda: None))()
                return real(*args)

            monkeypatch.setattr(module, name, patched)
            return main(argv)

        return run

    def test_child_error_reaches_the_caller(self, run, capsys):
        def boom():
            raise ValueError("boom")

        assert run(boom) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: boom\n"
        _assert_no_child_left()

    def test_dead_child_fails_the_run(self, run):
        with pytest.raises(RuntimeError, match=r"ended without a result \(exit status 3\)"):
            run(lambda: os._exit(3))
        _assert_no_child_left()

    def test_caller_error_kills_the_children(self, run, capsys):
        # the children would run for a minute: the caller's error must not
        # wait for them
        def boom():
            raise ValueError("caller boom")

        start = time.monotonic()
        assert run(lambda: time.sleep(60), boom) == 2
        assert time.monotonic() - start < 30
        assert capsys.readouterr().err == "error: caller boom\n"
        _assert_no_child_left()


def _variant(src, dst, set_keys=(), extra=""):
    """A copy of a ``key = value`` file with some values replaced and
    lines appended; returns its path and the number of the last line it
    changed (the last line of the file if it changed none)."""
    lines = Path(src).read_text().splitlines()
    changed = len(lines)
    for key, value in set_keys:
        changed = next(n for n, s in enumerate(lines, 1) if s.startswith(f"{key} = "))
        lines[changed - 1] = f"{key} = {value}"
    lines += extra.splitlines()
    if extra:
        changed = len(lines)
    dst.write_text("\n".join(lines) + "\n")
    return str(dst), changed


ALLOCATE_EFOPA = ["allocate", "--config", "{config}", "--model", "{model}",
                  "--method", "efopa", "--h1", "1e-4", "--h2", "1e-5"]
SWEEP = ["sweep", "--config", "{config}", "--model", "{model}", "--out", "{out}"]
WALK = ["walk", "--config", "{config}", "--model", "{model}", "--out", "{out}"]
DERIVE = ["derive", "--config", "{config}", "--out-model", "{out}", "--out-dataset", "{dataset}"]
PAIRS_STATS = ["pairs-stats", "--config", "{config}", "--model", "{model}",
               "--channels", "{gains}"]


class TestBoundary:
    @pytest.mark.parametrize(
        "argv, model_keys, model_extra, config_keys, config_extra, diagnostic",
        [
            (["reference-model", "--clamp-floor", "nan", "--out", "{out}"],
             (), "", (), "", "clamp_floor must be finite"),
            (ALLOCATE_EFOPA, (("h_ref", "inf"),), "", (), "",
             "{model}:{line}: h_ref: must be finite"),
            (SWEEP, (("clamp_floor", "nan"),), "", (), "",
             "{model}:{line}: clamp_floor: must be finite"),
            (ALLOCATE_EFOPA, (), "a = 5.0\n", (), "", "{model}:{line}: duplicate key 'a'"),
            (ALLOCATE_EFOPA, (), "bogus = 1\n", (), "",
             "{model}:{line}: unknown model field 'bogus'"),
            (WALK, (), "", (), "walk.point.a = 1.0, 1.0, 1.7\n",
             "{config}:{line}: duplicate key 'walk.point.a'"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (), "abc.limit = 0\n", "{config}:{line}: abc.limit: must be >= 1"),
            (SWEEP + ["--h1", "inf"], (), "", (), "", "--h1 must give a finite gain > 0"),
            (SWEEP + ["--h1", "infh0"], (), "", (), "", "--h1 must give a finite gain > 0"),
            (SWEEP + ["--h1", "1e400"], (), "", (), "", "--h1 must give a finite gain > 0"),
            (SWEEP + ["--h1=-2h0"], (), "", (), "", "--h1 must give a finite gain > 0"),
            (DERIVE + ["--h1", "inf"], (), "", (), "", "--h1 must give a finite gain > 0"),
            # not a number at all, absolute or as a multiple of h0
            (SWEEP + ["--h1", "abc"], (), "", (), "",
             "--h1 must give a finite gain > 0, got 'abc'"),
            (DERIVE + ["--h1", "twoh0"], (), "", (), "",
             "--h1 must give a finite gain > 0, got 'twoh0'"),
            # a multiple of h0 is a number, then at most one '*' or 'x'
            (DERIVE + ["--h1", "xh0"], (), "", (), "",
             "--h1 must give a finite gain > 0, got 'xh0'"),
            (DERIVE + ["--h1", "2**h0"], (), "", (), "",
             "--h1 must give a finite gain > 0, got '2**h0'"),
            (SWEEP + ["--h1", "*h0"], (), "", (), "",
             "--h1 must give a finite gain > 0, got '*h0'"),
            (SWEEP + ["--h1", "2x*xh0"], (), "", (), "",
             "--h1 must give a finite gain > 0, got '2x*xh0'"),
            # an optics value out of range: at its own line, in degrees
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.refractive_index", "0.5"),), "",
             "{config}:{line}: optics.refractive_index: must be >= 1, got 0.5"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.semi_angle_deg", "90"),), "",
             "{config}:{line}: optics.semi_angle_deg: must be in (0, 90) degrees, got 90.0"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.fov_deg", "95"),), "",
             "{config}:{line}: optics.fov_deg: must be in (0, 90] degrees, got 95.0"),
            # a positive angle whose radians round to 0: still in degrees
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.fov_deg", "5e-324"),), "",
             "{config}:{line}: optics.fov_deg: must be > 0 in radians, got 5e-324 degrees"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.semi_angle_deg", "5e-324"),), "",
             "{config}:{line}: optics.semi_angle_deg: must be > 0 in radians, got 5e-324 degrees"),
            # gains whose squares underflow: both rates are zero
            (["allocate", "--config", "{config}", "--method", "oma",
              "--h1", "1e-200", "--h2", "1e-201"], (), "", (), "", "fairness undefined"),
            # a given distance must be > 0, never dropped in silence
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.d_append", "-3"),), "",
             "{config}:{line}: grid.d_append: must be > 0, got -3.0"),
            (WALK, (), "", (), "walk.point.z = inf, 1.5, 1.7\n",
             "{config}:{line}: walk.point.z: must be finite, got inf"),
            (WALK, (), "", (), "walk.point.z = 1.0, x, 1.7\n",
             "{config}:{line}: walk.point.z: not a number: 'x'"),
            # at or above the ceiling emitter no link geometry exists
            (WALK, (), "", (("walk.point.a", "3.0, 3.0, 3.5"),), "",
             "{config}:{line}: walk.point.a: must lie below the transmitter"),
            # an infinite strong rate next to a nan weak one has no fairness
            (["allocate", "--config", "{config}", "--method", "ngdpa", "--h1", "1e200",
              "--h2", "1e-170", "--rate-model", "paper-repro"], (), "", (), "",
             "fairness undefined for rates inf, nan"),
            # a step that would take more than MAX_POINTS steps: refused
            # before any point is built, at its key or flag
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.d_step", "1e-300"),), "",
             "{config}:{line}: grid.d_step: 4.75e+300 steps from 0.25 to 5.0, more than 100000"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.angle_step_deg", "1e-300"),), "",
             "{config}:{line}: grid.angle_step_deg: 5.5e+301 steps from 5.0 to 60.0"),
            (SWEEP + ["--r-step", "1e-300"], (), "", (), "",
             "--r-step: 9.9e+299 steps from 0.01 to 1.0, more than 100000"),
            (SWEEP + ["--r-min", "0.5", "--r-max", "0.2"], (), "", (), "",
             "need 0 < --r-min <= --r-max <= 1, got 0.5, 0.2"),
            (SWEEP + ["--methods", "efopa,bogus"], (), "", (), "",
             "--methods: unknown ['bogus']; choose from efopa, grpa, ngdpa, oma"),
            # a file that is not UTF-8 is named with the line of its first bad byte
            (["channels", "--config", "{undecodable}", "--out", "{out}"], (), "", (), "",
             "{undecodable}:2: not UTF-8: byte 0xff"),
            (["allocate", "--config", "{config}", "--model", "{undecodable}",
              "--method", "efopa", "--h1", "1e-4", "--h2", "1e-5"], (), "", (), "",
             "{undecodable}:2: not UTF-8: byte 0xff"),
            (["pairs-stats", "--config", "{config}", "--model", "{model}",
              "--channels", "{undecodable}"], (), "", (), "",
             "{undecodable}:2: not UTF-8: byte 0xff"),
            # --subsample is checked, and named, before any work is done
            (DERIVE + ["--subsample", "0"], (), "", (), "",
             "--subsample must be >= 1, got 0"),
            (DERIVE + ["--subsample", "100000"], (), "", (), "",
             "--subsample 100000 keeps 1 of 1538 channels, fewer than the 4 points the fit needs"),
            (PAIRS_STATS + ["--subsample", "1"], (), "", (), "",
             "--subsample must keep at least 2 gains, got 1"),
            (PAIRS_STATS + ["--subsample", "0"], (), "", (), "",
             "--subsample must keep at least 2 gains, got 0"),
            (PAIRS_STATS + ["--subsample=-5"], (), "", (), "",
             "--subsample must keep at least 2 gains, got -5"),
            # --above-ref skip leaves out every channel above the reference
            # gain, counted before any solve; the paper set's two weakest
            # gains lie below 1e-6
            (DERIVE + ["--h1", "1e-12"], (), "", (), "",
             "--h1 1e-12 (gain 1e-12) has 0 of 1538 channels at or below it, "
             "fewer than the 4 points the fit needs"),
            (DERIVE + ["--h1", "1e-6"], (), "", (), "",
             "--h1 1e-6 (gain 1e-06) has 2 of 1538 channels at or below it, "
             "fewer than the 4 points the fit needs"),
            # a beam so narrow that cos(phi)^k_l underflows on every link:
            # no gain, so no mean gain and no h0 to scale --h1 by
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.semi_angle_deg", "0.001"),), "",
             "no link of the grid's 3024 combinations has a gain > 0"),
            (DERIVE, (), "", (("optics.semi_angle_deg", "0.001"),), "",
             "no link of the grid's 3024 combinations has a gain > 0"),
            # a negative bin width, in the form of every float key
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.dedup_resolution", "-1"),), "",
             "{config}:{line}: grid.dedup_resolution: must be >= 0, got -1.0"),
            # a --model file is read and checked for every method
            (["allocate", "--config", "{config}", "--model", "{undecodable}",
              "--method", "oma", "--h1", "1e-4", "--h2", "1e-5"], (), "", (), "",
             "{undecodable}:2: not UTF-8: byte 0xff"),
            # sweep and walk refuse a row whose fairness allocate refuses:
            # rates that underflow to zero, or overflow to nan
            (SWEEP + ["--h1", "1e-200"], (), "", (), "",
             "--h1 1e-200 (gain 1e-200) at r = 0.01, efopa: "
             "fairness undefined for rates 0.0, 0.0"),
            (SWEEP + ["--h1", "1e300"], (), "", (), "",
             "--h1 1e300 (gain 1e+300) at r = 0.01, efopa: "
             "fairness undefined for rates nan, nan"),
            (WALK, (), "", (("walk.h1", "1e300"),), "",
             "{config}: walk.h1 = 1e+300, waypoint a: fairness undefined for rates nan, inf"),
            # a flag that stands for a config key takes that key's rule, with
            # or without --subsample: numpy's generator takes no negative seed
            (PAIRS_STATS + ["--subsample", "2", "--seed=-1"], (), "", (), "",
             "--seed: seed: must be >= 0, got -1"),
            (PAIRS_STATS + ["--seed=-1"], (), "", (), "", "--seed: seed: must be >= 0, got -1"),
            # random.Random seeds with |seed|, so -3 would draw seed 3's colonies
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("seed", "-3"),), "", "{config}:{line}: seed: must be >= 0, got -3"),
            (DERIVE + ["--seed=-3"], (), "", (), "", "--seed: seed: must be >= 0, got -3"),
            # argparse's own errors: one line naming the flag; its wording
            # differs across Python versions and is not pinned
            (["allocate", "--config", "{config}", "--method", "bogus",
              "--h1", "1e-4", "--h2", "1e-5"], (), "", (), "", "--method"),
            (["derive", "--config", "{config}", "--out-dataset", "{out}"], (), "", (), "",
             "--out-model"),
            (PAIRS_STATS + ["--subsample", "x"], (), "", (), "", "--subsample"),
            # walk.csv writes a label unquoted: a ',' or '"' in it, or none
            # at all, would corrupt its row
            (WALK, (), "", (), "walk.point.a,x = 2.5, 1.5, 1.7\n",
             "{config}:{line}: walk.point.a,x: label must be non-empty, without ',' or '\"'"),
            (WALK, (), "", (), "walk.point. = 2.5, 1.5, 1.7\n",
             "{config}:{line}: walk.point.: label must be non-empty"),
            # one file for both outputs would keep only the dataset: refused,
            # however the path is spelled
            (["derive", "--config", "{config}", "--subsample", "64",
              "--out-model", "{out}", "--out-dataset", "{out}"], (), "", (), "",
             "--out-model {out} and --out-dataset {out} name one file; give two"),
            (DERIVE[:-1] + ["{out_respelled}"], (), "", (), "",
             "--out-model {out} and --out-dataset {out_respelled} name one file"),
            # an appended distance the axis already holds would count its
            # combinations twice, and the dedup would drop them
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.d_append", "5.0"),), "",
             "{config}:{line}: grid.d_append: must be > grid.d_stop (5.0), got 5.0"),
            # a waypoint outside the room's walls or below its floor
            (WALK, (), "", (("walk.point.c", "-40.0, 4.0, -2.0"),), "",
             "{config}:{line}: walk.point.c: must lie in the room (0 <= x <= 6.0, "
             "0 <= y <= 6.0, z >= 0), got -40.0, 4.0, -2.0"),
            (WALK, (), "", (("walk.point.b", "2.0, 6.5, 1.7"),), "",
             "{config}:{line}: walk.point.b: must lie in the room"),
            (WALK, (), "", (("walk.point.a", "2.5, 1.5, -0.1"),), "",
             "{config}:{line}: walk.point.a: must lie in the room"),
            # squares of the gain formula beyond the float range, named by
            # the value whose square it is
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.d_start", "1e-170"),), "",
             "distance 1e-170: its square underflows to 0"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.d_append", "1e200"),), "", "distance 1e+200: its square overflows"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.refractive_index", "1e200"),), "",
             "refractive_index 1e+200: its square overflows"),
            (WALK, (), "", (("optics.refractive_index", "1e200"),), "",
             "refractive_index 1e+200: its square overflows"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.fov_deg", "1e-170"), ("grid.angle_start_deg", "1e-171"),
                      ("grid.angle_stop_deg", "1e-171")), "",
             "the sine of fov 1.7453292519943295e-172: its square underflows to 0"),
            # a semi-angle whose cosine rounds to 1: the Lambertian order
            # would divide by log(1) = 0
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.semi_angle_deg", "1e-7"),), "",
             "{config}:{line}: optics.semi_angle_deg: must have a cosine < 1, got 1e-07 degrees"),
            (WALK, (), "", (("optics.semi_angle_deg", "1e-7"),), "",
             "{config}:{line}: optics.semi_angle_deg: must have a cosine < 1"),
            # dedup keys gain / resolution that overflow would all fall in one bin
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.dedup_resolution", "5e-324"),), "",
             "dedup_resolution 5e-324 cannot bin the largest gain 0.0015162814318992514: "
             "gain / resolution is not finite"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("grid.dedup_resolution", "1e-313"),), "",
             "dedup_resolution 1e-313 cannot bin the largest gain 0.0015162814318992514"),
            (["channels", "--config", "{config}", "--out", "{out}"],
             (), "", (("optics.filter_gain", "1.7976931348623157e308"),), "",
             "dedup_resolution 1.5e-09 cannot bin the largest gain 2.725808720644486e+305"),
        ],
        ids=[
            "clamp-floor-nan", "model-h_ref-inf", "model-clamp_floor-nan",
            "model-repeated-key", "model-unknown-key", "repeated-walk-point",
            "abc-limit-zero", "h1-inf", "h1-infh0", "h1-1e400", "h1-negative", "derive-h1-inf",
            "h1-not-a-number", "derive-h1-not-a-number", "derive-h1-bare-x",
            "derive-h1-double-star", "sweep-h1-bare-star", "sweep-h1-x-star-x",
            "refractive-index-below-one", "semi-angle-90", "fov-95", "fov-zero-radians", "semi-angle-zero-radians",
            "zero-rates", "d-append-negative", "walk-point-inf", "walk-point-not-a-number",
            "walk-point-above-tx", "inf-and-nan-rates", "d-step-tiny", "angle-step-tiny",
            "r-step-tiny", "r-min-above-r-max", "unknown-method", "config-not-utf8",
            "model-not-utf8", "channels-not-utf8", "derive-subsample-zero",
            "derive-subsample-above-channels", "pairs-subsample-one", "pairs-subsample-zero",
            "pairs-subsample-negative", "derive-h1-below-every-channel",
            "derive-h1-above-two-channels", "channels-no-gain", "derive-no-gain",
            "dedup-resolution-negative", "allocate-oma-model-not-utf8", "sweep-h1-underflow",
            "sweep-h1-overflow", "walk-h1-overflow", "pairs-seed-negative",
            "pairs-seed-negative-no-subsample", "config-seed-negative", "derive-seed-negative",
            "allocate-method-bogus", "out-model-missing", "pairs-subsample-not-an-int",
            "walk-label-with-comma", "walk-label-empty", "derive-one-output-file",
            "derive-one-output-file-respelled", "d-append-at-d-stop", "walk-point-outside-room",
            "walk-point-beyond-depth", "walk-point-below-floor", "d-start-square-underflows",
            "d-append-square-overflows", "refractive-index-square-overflows",
            "walk-refractive-index-square-overflows", "fov-sine-square-underflows",
            "semi-angle-cosine-one",
            "walk-semi-angle-cosine-one", "dedup-keys-overflow", "dedup-keys-partly-overflow",
            "filter-gain-dedup-keys-overflow",
        ],
    )  # fmt: skip
    def test_rejected_with_one_line(
        self, tmp_path, ref_model, capsys,
        argv, model_keys, model_extra, config_keys, config_extra, diagnostic,
    ):
        model, model_line = _variant(ref_model, tmp_path / "model.txt", model_keys, model_extra)
        config, config_line = _variant(CONFIG, tmp_path / "run.cfg", config_keys, config_extra)
        line = model_line if model_keys or model_extra else config_line
        undecodable = tmp_path / "undecodable.txt"
        undecodable.write_bytes(b"gain\n\xff\n")
        gains = tmp_path / "gains.csv"
        gains.write_text("gain\n3e-5\n2e-5\n1e-5\n")
        fill = dict(model=model, config=config, out=tmp_path / "out.txt", line=line,
                    undecodable=undecodable, gains=gains, dataset=tmp_path / "dataset.csv",
                    out_respelled=f"{tmp_path}/./out.txt")  # fmt: skip
        rc = main([arg.format(**fill) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert diagnostic.format(**fill) in captured.err
        assert not fill["out"].exists() and not fill["dataset"].exists()

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_derive_checks_clamp_floor_before_any_solve(
        self, tmp_path, monkeypatch, capsys, value
    ):
        def solve(*args, **kwargs):
            raise AssertionError("derive got past its argument checks")

        monkeypatch.setattr("vlcfair.cli.enumerate_channels", solve)
        monkeypatch.setattr("vlcfair.cli.build_efopa_dataset", solve)
        rc = main(["derive", "--config", CONFIG, "--clamp-floor", value,
                   "--out-model", str(tmp_path / "model.txt"),
                   "--out-dataset", str(tmp_path / "dataset.csv")])  # fmt: skip
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "clamp_floor must be finite and >= 0" in captured.err

    def test_negative_h1_as_a_separate_word_is_not_a_gain(self, ref_model, capsys):
        # argparse reads "-2h0" as an unknown option: its error, as one line
        rc = main(["sweep", "--config", CONFIG, "--model", ref_model, "--h1", "-2h0",
                   "--out", "unused.csv"])  # fmt: skip
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "--h1" in err


EXTREMES = ("5e-324", "1e-200", "1e200", "1.7976931348623157e308")


class TestExtremeValues:
    """Every float key of the config at both ends of the float range,
    one key at a time, through each command that reads it."""

    @pytest.mark.parametrize("value", EXTREMES)
    @pytest.mark.parametrize(
        "key", [key for key, (kind, _, _) in _KEYS.items() if kind is float]
    )
    def test_exit_0_or_one_error_line(
        self, tmp_path, ref_model, channels_file, capsys, key, value
    ):
        cfg = tmp_path / "run.cfg"
        lines = [s for s in Path(CONFIG).read_text().splitlines() if not s.startswith(f"{key} =")]
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        out, dataset = str(tmp_path / "out.txt"), str(tmp_path / "dataset.csv")
        given = ["--config", str(cfg)]
        runs = [
            ["channels", *given, "--out", out],
            ["allocate", *given, "--model", ref_model, "--method", "efopa",
             "--h1", "1e-4", "--h2", "1e-5"],
            ["walk", *given, "--model", ref_model, "--out", out],
            ["sweep", *given, "--model", ref_model, "--r-step", "0.1", "--out", out],
        ]  # fmt: skip
        if key.startswith("noma."):
            runs += [
                ["derive", *given, "--subsample", "64", "--out-model", out, "--out-dataset", dataset],
                ["pairs-stats", *given, "--model", ref_model, "--channels", channels_file,
                 "--subsample", "40"],
            ]  # fmt: skip
        for argv in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any warning fails the run
                rc = main(argv)
            err = capsys.readouterr().err
            assert (rc, err) == (0, "") or (
                rc == 2 and err.startswith("error: ") and err.count("\n") == 1
            ), (argv[0], rc, err)
            if argv[0] == "derive" and rc == 0:
                meta = read_meta(out)
                if not math.isfinite(float(meta["fit_rmse_w"])):
                    assert meta["fit_converged"] == "false"


def _python(*args):
    """Run a fresh interpreter on this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


class TestEntryPoints:
    def test_python_m_vlcfair_runs_the_cli(self):
        from vlcfair import __version__

        done = _python("-m", "vlcfair", "--version")
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{__version__}\n"

    def test_import_vlcfair_leaves_numpy_unloaded(self):
        done = _python("-c", "import sys, vlcfair; print('numpy' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_online_commands_leave_multiprocessing_unloaded(self):
        # only derive's parallel branch imports it
        done = _python("-c", "import sys, vlcfair.cli; print('multiprocessing' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_commands_leave_openssl_and_numpy_ma_unloaded(self, tmp_path):
        # the config digest takes the builtin SHA-256 and the fit checks its
        # r values without np.unique: hashlib would load OpenSSL's
        # libcrypto, np.unique numpy.ma; pairs-stats --subsample alone
        # loads hashlib, through numpy's RNG
        model, gains = tmp_path / "model.txt", tmp_path / "gains.csv"
        gains.write_text("gain\n3e-5\n1e-5\n2e-5\n")
        inputs = ["--config", CONFIG, "--model", str(model)]
        runs = [
            ["channels", "--config", CONFIG, "--out", str(tmp_path / "channels.csv")],
            ["derive", "--config", CONFIG, "--subsample", "64", "--out-model", str(model),
             "--out-dataset", str(tmp_path / "dataset.csv")],
            ["allocate", *inputs, "--method", "efopa", "--h1", "1e-4", "--h2", "1e-5"],
            ["sweep", *inputs, "--out", str(tmp_path / "sweep.csv")],
            ["walk", *inputs, "--out", str(tmp_path / "walk.csv")],
            ["pairs-stats", *inputs, "--channels", str(gains),
             "--out", str(tmp_path / "pairs.txt")],
        ]
        done = _python("-c", f"""
import sys
from vlcfair.cli import main
for argv in {runs!r}:
    assert main(argv) == 0, argv
print([m for m in ("_hashlib", "numpy.ma") if m in sys.modules])
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_vanishing_weak_gain_fails_with_one_line(self):
        # paper-repro divides 0 by 0 here; numpy must not add its own warning
        done = _python(
            "-m", "vlcfair", "allocate", "--config", CONFIG, "--method", "grpa",
            "--h1", "1e-4", "--h2", "1e-170",
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1, done.stderr


class TestVectorScalarConsistency:
    def test_rates_match_scalar_module(self):
        # the vectorized engine and the scalar evaluate run the same kernel
        rng = np.random.default_rng(19)
        h1 = rng.uniform(1e-5, 1e-3, 50)
        h2 = h1 * rng.uniform(0.05, 0.99, 50)
        p1 = rng.uniform(1e-4, 11.25, 50)
        p2 = 22.5 - p1
        noise = NoiseModel(3e-12)
        for name in RATE_MODELS:
            v1, v2 = noma_rates_vec(h1, h2, p1, p2, 30e6, 3e-12, name)
            for i in range(len(h1)):
                links = (UserLink(h1[i], 30e6), UserLink(h2[i], 30e6))
                alloc = AllocationVector(powers=(p1[i], p2[i]), total=22.5)
                s1, s2 = evaluate(links, alloc, noise, name).per_user_rates
                assert v1[i] == s1
                assert v2[i] == s2

    def test_jain_vec_matches_scalar(self):
        from vlcfair.rates import jain_index

        rng = np.random.default_rng(29)
        r1 = rng.uniform(1e6, 5e8, 100)
        r2 = rng.uniform(1e6, 5e8, 100)
        vec = jain_vec(r1, r2)
        for i in range(100):
            assert vec[i] == pytest.approx(jain_index((r1[i], r2[i])), rel=1e-12)
        assert jain_vec(np.array([1.0]), np.array([np.inf]))[0] == 0.5
