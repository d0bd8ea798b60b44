"""Acceptance gate: every criterion in one module, one printed line each.

Run with output visible to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s

Heavy artifacts (channel enumeration, the full offline derivation) are
built once per session through the real CLI and shared by the criteria
that need them.
"""

import math
import os
import platform
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vlcfair.allocate import MuMode
from vlcfair.channel import Position, VlcParams, channel_gain, geometry_from_positions
from vlcfair.cli import main
from vlcfair.config import axis, load_config
from vlcfair.expfit import eval_two_term_exp, fit_two_term_exp
from vlcfair.modelio import load_model
from vlcfair.optimize import AbcConfig
from vlcfair.reference import REFERENCE_COEFFICIENTS, reference_model
from vlcfair.stats import METHODS, pair_statistics, sweep_rows
from vlcfair.allocate import TwoUserInstance, optimize_fair_two_user

from oracle import exact_fair_split, lower_bound_fairness

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")

# reference values of the standard office setup
REF_COMBOS = 3024
REF_UNIQUE = 1544
REF_MEAN_GAIN = 7.9144e-5
REF_GAINS = {"a": 9.1924e-6, "b": 1.8671e-5, "c": 6.6131e-6}
REF_RATES = {  # strong/weak rates at the three waypoints, bits/s
    "a": (237.42e6, 244.61e6),
    "b": (246.96e6, 235.03e6),
    "c": (228.06e6, 254.01e6),
}
H1_FIXED = 9.5493e-5
TX = Position(3.0, 3.0, 3.0)
WAYPOINTS = {"a": (2.5, 1.5, 1.7), "b": (2.0, 2.5, 1.7), "c": (4.5, 4.0, 1.7)}
TABLE_PARAMS = VlcParams(1e-4, 1.5, 1.0, math.radians(60), math.radians(60))
P_MAX = 22.5
BANDWIDTH = 30e6
NOISE_REPRO = 3e-12
NOISE_DERIVE = 1.2e-11  # derivation anchor, see README


def criterion(name, checks):
    """Print one pass/fail line, then assert every sub-check."""
    ok = all(flag for _, flag, _ in checks)
    detail = "; ".join(d for _, _, d in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    for label, flag, d in checks:
        assert flag, f"{name} / {label}: {d}"


@pytest.fixture(scope="session")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def channels_path(outdir):
    path = outdir / "channels.csv"
    assert main(["channels", "--config", CONFIG, "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="session")
def channel_gains(channels_path):
    gains = [
        float(line)
        for line in channels_path.read_text().splitlines()
        if line and not line.startswith("#") and line != "gain"
    ]
    return np.array(gains)


@pytest.fixture(scope="session")
def derived(outdir):
    """Full offline derivation at twice the mean gain, through the CLI."""
    model_path = outdir / "derived_model.txt"
    dataset_path = outdir / "derived_dataset.csv"
    rc = main([
        "derive", "--config", CONFIG, "--h1", "2h0",
        "--out-model", str(model_path), "--out-dataset", str(dataset_path),
    ])
    assert rc == 0
    dataset = []
    for line in dataset_path.read_text().splitlines():
        if line.startswith("#") or line == "r,p1_w" or not line:
            continue
        r, p1 = line.split(",")
        dataset.append((float(r), float(p1)))
    return load_model(model_path), dataset, model_path, dataset_path


def test_channel_enumeration(channels_path, channel_gains):
    meta = {}
    for line in channels_path.read_text().splitlines():
        if line.startswith("# ") and " = " in line:
            k, _, v = line[2:].partition(" = ")
            meta[k.strip()] = v.strip()
    combos = int(meta["combo_count"])
    unique = int(meta["unique_count"])
    mean = float(meta["mean_gain"])
    mean_err = abs(mean / REF_MEAN_GAIN - 1)
    deviation_reported = "unique_count" in meta and "dedup_resolution" in meta
    checks = [
        ("combo count", combos == REF_COMBOS, f"combos={combos}"),
        (
            "unique count",
            unique == REF_UNIQUE or deviation_reported,
            f"unique={unique} (reference {REF_UNIQUE}; deviation and resolution "
            f"{meta.get('dedup_resolution')} reported in metadata)",
        ),
        (
            "mean gain",
            mean_err <= 0.005,
            f"mean={mean:.6e} vs {REF_MEAN_GAIN:.4e} ({100 * mean_err:.2f}% <= 0.5%)",
        ),
        ("row count", len(channel_gains) == unique, f"rows={len(channel_gains)}"),
    ]
    criterion("channel enumeration", checks)


def test_geometry_gains():
    checks = []
    for label, rx in sorted(WAYPOINTS.items()):
        gain = channel_gain(*geometry_from_positions(TX, Position(*rx)), TABLE_PARAMS)
        ref = REF_GAINS[label]
        err = abs(gain / ref - 1)
        checks.append(
            (f"gain {label}", err <= 5e-5, f"{label}: {gain:.5e} vs {ref:.4e}")
        )
    criterion("waypoint geometry gains", checks)


def test_reference_curve_evaluation():
    h2a = channel_gain(
        *geometry_from_positions(TX, Position(*WAYPOINTS["a"])), TABLE_PARAMS
    )
    r_a = h2a / H1_FIXED
    model = reference_model(mu_mode=MuMode.PAPER_EXAMPLE)
    mu = model.mu(H1_FIXED, P_MAX)
    p1 = eval_two_term_exp(model.coefficients, r_a)
    checks = [
        ("ratio", abs(r_a - 0.0963) <= 1e-4, f"r(a)={r_a:.5f} vs 0.0963+-0.0001"),
        ("scale factor", abs(mu - 1.6576) <= 5e-4, f"mu={mu:.5f} vs 1.6576+-0.0005"),
        ("power", abs(p1 - 0.0790) <= 5e-4, f"p1(a)={p1:.5f} W vs 0.0790+-0.0005"),
    ]
    criterion("reference curve evaluation", checks)


def test_rate_reproduction():
    from vlcfair.allocate import efopa_allocate
    from vlcfair.rates import NoiseModel, UserLink, evaluate, paper_repro_models

    model = reference_model(mu_mode=MuMode.PAPER_EXAMPLE)
    noise = NoiseModel(NOISE_REPRO)
    checks = []
    shannon_discrepancies = {}
    for label, rx in sorted(WAYPOINTS.items()):
        h2 = channel_gain(*geometry_from_positions(TX, Position(*rx)), TABLE_PARAMS)
        alloc = efopa_allocate(model, H1_FIXED, h2, P_MAX)
        links = (UserLink(H1_FIXED, BANDWIDTH), UserLink(h2, BANDWIDTH))
        report = evaluate(links, alloc, noise, paper_repro_models(2))
        ref1, ref2 = REF_RATES[label]
        err1 = abs(report.per_user_rates[0] / ref1 - 1)
        err2 = abs(report.per_user_rates[1] / ref2 - 1)
        checks.append(
            (
                f"rates {label}",
                err1 <= 0.005 and err2 <= 0.005,
                f"{label}: {report.per_user_rates[0] / 1e6:.2f}/"
                f"{report.per_user_rates[1] / 1e6:.2f} Mbps vs "
                f"{ref1 / 1e6:.2f}/{ref2 / 1e6:.2f}",
            )
        )
        full = evaluate(links, alloc, noise, "shannon").per_user_rates[1]
        shannon_discrepancies[label] = 1 - full / ref2
    # regression guard on the documented gap of the noise-included weak rate
    worst = max(shannon_discrepancies.values())
    checks.append(
        (
            "full-noise weak-user gap",
            all(0 < d <= 0.13 for d in shannon_discrepancies.values())
            and abs(worst - 0.12417) <= 2e-3,
            "shannon weak rates lower by "
            + ", ".join(
                f"{label}={100 * d:.2f}%"
                for label, d in sorted(shannon_discrepancies.items())
            )
            + " (each <= 13%)",
        )
    )
    criterion("rate reproduction", checks)


def test_optimizer_oracle_equivalence():
    h0 = REF_MEAN_GAIN
    ratios = np.linspace(0.02, 1.0, 20)
    worst_gap = 0.0
    worst_fair = 0.0
    for seed, r in enumerate(ratios):
        inst = TwoUserInstance(
            h_strong=2 * h0,
            h_weak=float(r) * 2 * h0,
            p_max=P_MAX,
            bandwidth=BANDWIDTH,
            noise_variance=NOISE_DERIVE,
        )
        abc_p1 = optimize_fair_two_user(inst, AbcConfig(seed=seed))
        exact = exact_fair_split(inst.h_strong, inst.h_weak, P_MAX, NOISE_DERIVE)
        worst_gap = max(worst_gap, abs(abc_p1 - exact))
        # the exact split reaches fairness 1, so this is the shortfall
        # against the best any split can do
        worst_fair = max(worst_fair, 1.0 - lower_bound_fairness(abc_p1, inst))
    checks = [
        (
            "position gap",
            worst_gap <= 1e-3 * P_MAX,
            f"max |abc-exact| = {worst_gap:.2e} W <= {1e-3 * P_MAX:.2e}",
        ),
        (
            "fairness gap",
            worst_fair <= 1e-4,
            f"max fairness shortfall from 1 = {worst_fair:.2e} <= 1e-4",
        ),
    ]
    criterion("optimizer-oracle equivalence (20 seeded cases)", checks)


def test_derivation_fidelity(derived):
    model, dataset, _, _ = derived
    grid = np.linspace(0.05, 1.0, 951)
    mine = eval_two_term_exp(model.coefficients, grid)
    ref = eval_two_term_exp(REFERENCE_COEFFICIENTS, grid)
    curve_dev = float(np.max(np.abs(mine / ref - 1)))

    # zero-noise synthetic recovery
    rs = np.linspace(0.02, 1.0, 50)
    pts = [(float(r), eval_two_term_exp(REFERENCE_COEFFICIENTS, r)) for r in rs]
    coeffs, report = fit_two_term_exp(pts)
    fine = np.linspace(0.02, 1.0, 1001)
    rec_err = float(
        np.max(
            np.abs(
                eval_two_term_exp(coeffs, fine)
                - eval_two_term_exp(REFERENCE_COEFFICIENTS, fine)
            )
        )
    )
    # dataset shape: near-zero start, steep rise, plateau around 0.1 W
    rs_d = np.array([r for r, _ in dataset])
    p1_d = np.array([p for _, p in dataset])
    start = float(p1_d[rs_d <= 0.02].max()) if np.any(rs_d <= 0.02) else 0.0
    plateau = float(np.mean(p1_d[rs_d >= 0.9]))
    # every colony optimum against the exact split at its r
    h1 = model.h_ref
    exact = exact_fair_split(h1, rs_d * h1, model.p_ref, NOISE_DERIVE)
    exact_gap = float(np.max(np.abs(p1_d - exact)))
    checks = [
        (
            "curve agreement",
            curve_dev <= 0.05,
            f"max dev vs reference curve on [0.05,1] = {100 * curve_dev:.2f}% <= 5%",
        ),
        (
            "synthetic recovery",
            rec_err < 1e-6 and report.converged,
            f"noiseless recovery max error = {rec_err:.2e} W < 1e-6",
        ),
        (
            "dataset size",
            len(dataset) > 1000,
            f"{len(dataset)} optimized points",
        ),
        (
            "dataset shape",
            start < 0.01 and 0.08 <= plateau <= 0.12,
            f"p1 <= {start:.4f} W below r=0.02, plateau ~{plateau:.3f} W",
        ),
        (
            "exact split per point",
            exact_gap <= 1e-3 * P_MAX,
            f"max |p1-exact| over {len(dataset)} points = {exact_gap:.2e} W "
            f"<= {1e-3 * P_MAX:.2e}",
        ),
    ]
    criterion("derivation fidelity", checks)


def test_fit_tracks_dataset_knee(derived):
    # fit-vs-data spread: structurally ~6.6% at the knee (see ledger);
    # guarded here so it cannot silently grow
    model, dataset, _, _ = derived
    rs = np.array([r for r, _ in dataset])
    p1 = np.array([p for _, p in dataset])
    mask = rs >= 0.05
    fit = eval_two_term_exp(model.coefficients, rs[mask])
    dev = float(np.max(np.abs(fit / p1[mask] - 1)))
    assert dev <= 0.07, f"fit-vs-dataset deviation grew to {100 * dev:.2f}%"


def test_comparative_statistics(channel_gains):
    model = reference_model()
    cfg = load_config(CONFIG)
    assert (cfg.p_max, cfg.bandwidth, cfg.noise_variance, cfg.rate_model) == (
        P_MAX, BANDWIDTH, NOISE_REPRO, "paper-repro"
    )
    stats = pair_statistics(channel_gains, model, cfg)
    oma_pct = stats["efopa_vs_oma_sum_wins_pct"]
    ngdpa_pct = stats["efopa_vs_ngdpa_sum_wins_pct"]
    grpa_pct = stats["efopa_vs_grpa_sum_wins_pct"]

    ratios = axis(0.01, 1.0, 0.01)
    rows = sweep_rows(ratios, 2 * model.h0, METHODS, model, replace(cfg, rate_model="shannon"))
    fairness = {}
    for row in rows:
        r, method, fair = row[0], row[1], row[7]
        fairness.setdefault(method, []).append((r, fair))
    efopa_min = min(f for r, f in fairness["efopa"] if r >= 0.05 - 1e-12)
    baseline_mins = {
        m: min(f for _, f in fairness[m]) for m in ("grpa", "ngdpa", "oma")
    }
    checks = [
        (
            "sum-rate wins vs orthogonal access",
            oma_pct >= 93.0,
            f"efopa>oma {oma_pct:.2f}% of {stats['pairs_total']} pairs (>=93%)",
        ),
        (
            "sum-rate wins vs gain-difference baseline",
            ngdpa_pct >= 85.0,
            f"efopa>ngdpa {ngdpa_pct:.2f}% (>=85%)",
        ),
        (
            "gain-ratio baseline emitted",
            0.0 <= grpa_pct <= 100.0,
            f"efopa>grpa {grpa_pct:.2f}% (informational)",
        ),
        (
            "fitted-curve fairness floor",
            efopa_min >= 0.98,
            f"efopa min fairness on [0.05,1] = {efopa_min:.4f} >= 0.98",
        ),
        (
            "baseline fairness dips",
            all(v <= 0.76 for v in baseline_mins.values()),
            "baseline minima "
            + ", ".join(f"{m}={v:.3f}" for m, v in sorted(baseline_mins.items()))
            + " (each <= 0.76)",
        ),
    ]
    criterion("comparative statistics", checks)


def test_pair_statistics_memory(channel_gains):
    # pairs are built one block of about 2^14 pairs at a time (~3 MB peak;
    # blocks of 128 strong-user rows peaked at ~27 MB, the whole n x n grid
    # at ~159 MB on this set), so the bound pins the block size
    tracemalloc.start()
    try:
        pair_statistics(channel_gains, reference_model(), load_config(CONFIG))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    criterion(
        "pair statistics memory",
        [("peak", peak < 8e6, f"tracemalloc peak {peak / 1e6:.1f} MB (< 8 MB)")],
    )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap rules")
def test_pair_statistics_reuses_heap_pages(channel_gains, monkeypatch):
    # with glibc's bars left as the block arrays set them, the heap top
    # would go back to the kernel after every block and each block would
    # fault in fresh pages (~37k minor faults for this call, since a
    # block's arrays are all freed when it ends); the first call may grow
    # the heap, the second should find it in place.  One usable CPU:
    # every block runs in this process
    import resource

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = (channel_gains, reference_model(), load_config(CONFIG))
    pair_statistics(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pair_statistics(*args)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    criterion(
        "pair statistics page reuse",
        [("faults", faults < 1000, f"{faults} minor page faults (< 1000)")],
    )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap rules")
def test_pair_statistics_reuses_heap_pages_on_two_cpus(channel_gains, monkeypatch):
    # two usable CPUs: a forked child and this process share the blocks.
    # The child inherits the raised bars, so it faults in its blocks'
    # ~3 MB once and the pages it shares with this process that it
    # writes, and this process takes a copy-on-write fault on each heap
    # page it writes while the child lives: ~1.3-1.4k and ~1.0-1.2k a
    # call, measured on a 2-vCPU host.  Without the bars the heap goes
    # back to the kernel after every block, in both processes (~18k and
    # ~20k a call)
    import resource

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    args = (channel_gains, reference_model(), load_config(CONFIG))
    pair_statistics(*args)
    calls = 3
    own = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    for _ in range(calls):
        pair_statistics(*args)
    own = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - own) / calls
    children = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - children) / calls
    criterion(
        "pair statistics page reuse on two CPUs",
        [
            ("caller", own < 2500, f"caller {own:.0f} minor page faults a call (< 2500)"),
            ("children", children < 3000, f"children {children:.0f} a call (< 3000)"),
        ],
    )


def test_scaling_law_report(outdir, channel_gains, derived):
    model, _, _, _ = derived
    h0 = float(channel_gains.mean())
    cases = [
        ("h0_full_power", h0, 22.5),
        ("2h0_half_power", 2 * h0, 11.25),
        ("1.17h0_full_power", 1.17 * h0, 22.5),
        ("h0_low_power", h0, 8.1),
    ]
    lines = [
        "case,h1,p_max_w,points,max_rel_dev,"
        "max_rel_dev_r_ge_0.05,max_rel_dev_r_ge_0.4"
    ]
    devs = {}
    for name, h1, p_max in cases:
        # every 8th channel at or below h1, as `derive --subsample 8` pairs them
        gains = channel_gains[::8]
        gains = gains[gains <= h1]
        rs = gains / h1
        p1 = exact_fair_split(h1, gains, p_max, NOISE_DERIVE)
        mu = (model.h_ref / h1) * math.sqrt(p_max / model.p_ref)
        predicted = mu * eval_two_term_exp(model.coefficients, rs)
        rel = np.abs(predicted - p1) / np.maximum(np.abs(p1), 1e-12)
        knee = rel[rs >= 0.05]
        plateau = rel[rs >= 0.4]
        devs[name] = (float(rel.max()), float(knee.max()), float(plateau.max()))
        lines.append(
            f"{name},{h1:.8e},{p_max:.8e},{len(gains)},"
            f"{devs[name][0]:.8e},{devs[name][1]:.8e},{devs[name][2]:.8e}"
        )
    report_path = outdir / "scaling_report.csv"
    report_path.write_text("\n".join(lines) + "\n")
    checks = [
        (
            "report written",
            report_path.exists() and len(devs) == 4,
            f"4 cases -> {report_path.name}",
        ),
        (
            "deviations finite",
            all(math.isfinite(v[0]) for v in devs.values()),
            "rescaled-curve deviation per case (knee | plateau): "
            + ", ".join(
                f"{k}={100 * v[1]:.1f}%|{100 * v[2]:.1f}%" for k, v in devs.items()
            ),
        ),
    ]
    criterion("scaling-law measurement (reporting only)", checks)


def test_determinism(outdir, channels_path):
    pairs = []

    def run_twice(label, args_fn):
        a = outdir / f"det_{label}_1"
        b = outdir / f"det_{label}_2"
        assert main(args_fn(str(a))) == 0
        assert main(args_fn(str(b))) == 0
        pairs.append((label, a.read_bytes() == b.read_bytes()))

    run_twice(
        "channels", lambda out: ["channels", "--config", CONFIG, "--out", out]
    )
    ref = outdir / "det_ref_model.txt"
    assert main(["reference-model", "--out", str(ref)]) == 0
    run_twice(
        "sweep",
        lambda out: [
            "sweep", "--config", CONFIG, "--model", str(ref),
            "--r-min", "0.1", "--r-max", "0.5", "--r-step", "0.1", "--out", out,
        ],
    )
    run_twice(
        "walk",
        lambda out: ["walk", "--config", CONFIG, "--model", str(ref), "--out", out],
    )
    run_twice(
        "pairs",
        lambda out: [
            "pairs-stats", "--config", CONFIG, "--model", str(ref),
            "--channels", str(channels_path), "--subsample", "250", "--out", out,
        ],
    )

    model_a = outdir / "det_derive_model_1.txt"
    model_b = outdir / "det_derive_model_2.txt"
    data_a = outdir / "det_derive_data_1.csv"
    data_b = outdir / "det_derive_data_2.csv"
    for mp, dp in ((model_a, data_a), (model_b, data_b)):
        assert main([
            "derive", "--config", CONFIG, "--h1", "2h0", "--subsample", "40",
            "--out-model", str(mp), "--out-dataset", str(dp),
        ]) == 0
    pairs.append(("derive-model", model_a.read_bytes() == model_b.read_bytes()))
    pairs.append(("derive-dataset", data_a.read_bytes() == data_b.read_bytes()))

    checks = [
        (label, ok, f"{label} byte-identical" if ok else f"{label} differs")
        for label, ok in pairs
    ]
    criterion("determinism (byte-identical reruns)", checks)
