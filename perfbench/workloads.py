"""The benchmark's three workloads: operation loops, output checks, traces.

Every workload is a closed loop with one caller: the next operation is
sent only after the previous one returned.  A workload runs until the
context's deadline, checks every output, and returns plain numbers that
worker.py writes for run.py.  With tracing on, plain and traced
operations alternate on the same inputs, so one run yields both the
per-layer numbers and the cost of tracing.

The program is reached only through ``vlcfair.cli.main`` and the
``__all__`` exports of its modules.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from spans import END, PARENT, SID, START, Tracer
from vlcfair import __version__, cli
from vlcfair.allocate import (
    EfopaModel,
    MuMode,
    TwoUserInstance,
    channel_stream_seed,
    efopa_allocate,
    fairness_objective,
    grpa_allocate,
    ngdpa_allocate,
    oma_allocate,
)
from vlcfair.channel import enumerate_channels
from vlcfair.config import load_config
from vlcfair.expfit import eval_two_term_exp, fit_two_term_exp
from vlcfair.modelio import (
    atomic_write_text,
    format_float,
    load_model,
    provenance_lines,
    save_model,
)
from vlcfair.optimize import AbcConfig, SearchSpace, abc_maximize
from vlcfair.rates import (
    NoiseModel,
    UserLink,
    evaluate,
    jain_index,
    paper_repro_models,
    rate_oma,
)
from vlcfair.reference import REFERENCE_COEFFICIENTS
from vlcfair.stats import jain_vec, noma_rates_vec, oma_rates_vec, split_for_method

CONFIG = "configs/paper.cfg"

# acceptance bounds the outputs are checked against
CURVE_DEV_MAX = 0.05  # derived vs published curve on r in [0.05, 1]
OMA_WIN_MIN_PCT = 93.0  # efopa sum rate beats orthogonal access
NGDPA_WIN_MIN_PCT = 85.0  # efopa sum rate beats the gain-difference split
SPLIT_RTOL = 1e-12  # scalar split vs the vectorized split of the same pair

# online stream: pairs are drawn in blocks; every other block is traced
# while the traced-block budget lasts
BLOCK = 2048
TRACED_BLOCKS_MAX = 16
METHODS = ("efopa", "grpa", "ngdpa", "oma")
METHOD_CUTS = (0.7, 0.8, 0.9)  # 70% efopa, 10% each for the others

LAYERS = (
    "bench", "config", "channel", "optimize", "allocate",
    "expfit", "rates", "stats", "modelio", "cli",
)  # fmt: skip


@dataclass
class Context:
    """What worker.py hands a workload after its set-up."""

    workdir: Path
    seed: int
    subsample: int
    trace: bool
    deadline: float  # perf_counter seconds
    cfg: object
    model: Optional[EfopaModel]


class Tally:
    """Attempts, failures and latencies of one kind of operation.

    Latencies go into a buffer of fixed size, written in full up front so
    that the benchmark's own memory does not grow with the op count.
    When it fills, every other kept latency is dropped and the sampling
    stride doubles, so the kept ones stay an even sample of the run.
    """

    def __init__(self, capacity: int = 1 << 12):
        self.attempted = 0
        self.errors = 0  # ops that raised or returned an error code
        self.wrong = 0  # ops whose output failed a check
        self.unexpected = 0  # errors, each of which makes the run incorrect
        self.returned = 0  # ops that returned, so had their latency taken
        self.busy_ns = 0  # wall time of the loop that issued them
        self.notes = []
        self._buf = np.full(capacity, -1, dtype=np.int64)
        self._kept = 0
        self._stride = 1

    def record(self, lat_ns, busy_ns: int):
        """Take the latencies of ops that returned, in issue order, and the
        wall time of the loop that issued them."""
        self.busy_ns += busy_ns
        self.returned += len(lat_ns)
        lat = np.asarray(lat_ns, dtype=np.int64)[:: self._stride]
        buf = self._buf
        while self._kept + len(lat) > len(buf):
            half = self._kept // 2
            for i in range(0, half, 1 << 16):
                j = min(i + (1 << 16), half)
                buf[i:j] = buf[2 * i + 1 : 2 * j : 2]
            self._kept = half
            self._stride *= 2
            lat = lat[::2]
        buf[self._kept : self._kept + len(lat)] = lat
        self._kept += len(lat)

    def note(self, text: str):
        if len(self.notes) < 5:
            self.notes.append(text)

    def failed(self) -> int:
        return self.errors + self.wrong

    def e2e(self) -> dict:
        """Latency median and 99th percentile, and completed ops per second."""
        p50, p99 = np.percentile(self._buf[: self._kept] / 1e6, [50, 99])
        done = self.attempted - self.failed()
        return {
            "op_p50_ms": float(p50),
            "op_p99_ms": float(p99),
            "ops_per_s": done / (self.busy_ns / 1e9),
            "samples": self.returned,
        }

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed(),
            "wrong": self.wrong,
            "unexpected": self.unexpected,
            "notes": self.notes,
        }


def quiet_main(argv) -> int:
    """Run one CLI command in process, keeping its stdout out of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def read_channels(path: Path):
    """Gains and the header's mean gain of a ``vlcfair channels`` file."""
    gains, mean = [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# mean_gain ="):
            mean = float(line.split("=", 1)[1])
        elif line and not line.startswith("#") and line != "gain":
            gains.append(float(line))
    return gains, mean


def provenance(path: Path) -> dict:
    """The ``# key = value`` header of an output file."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            out[key] = value
    return out


def data_rows(path: Path) -> list:
    """Table rows of an output file, without comments and header row."""
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    return lines[1:]


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def self_ms_per_op(tracer: Tracer, ops: int) -> dict:
    by_layer = tracer.self_ns_by_layer()
    return {f"{layer}.self_ms": by_layer.get(layer, 0) / 1e6 / ops for layer in LAYERS}


def past(deadline: float) -> bool:
    return time.perf_counter() >= deadline


# --------------------------------------------------------------- offline_derive

_CURVE_GRID = np.linspace(0.05, 1.0, 951)


def curve_dev(model: EfopaModel) -> float:
    """Max |p_derived / p_ref - 1| on r in [0.05, 1], as the acceptance test."""
    mine = eval_two_term_exp(model.coefficients, _CURVE_GRID)
    ref = eval_two_term_exp(REFERENCE_COEFFICIENTS, _CURVE_GRID)
    return float(np.max(np.abs(mine / ref - 1.0)))


def check_derive(model_path: Path, dataset_path: Path, expected_points: int):
    """Problems found in one derivation's outputs (empty when correct),
    and the derived curve's deviation from the published one."""
    problems = []
    dev = curve_dev(load_model(model_path))
    if not dev <= CURVE_DEV_MAX:
        problems.append(f"curve deviation {dev:.4f} > {CURVE_DEV_MAX}")
    points = len(data_rows(dataset_path))
    if points != expected_points:
        problems.append(f"{points} dataset points, expected {expected_points}")
    if provenance(model_path).get("fit_converged") != "true":
        problems.append("fit did not converge")
    return problems, dev


def replay_derive(ctx: Context, tracer: Tracer, seed: int, model_path, dataset_path, solves):
    """``vlcfair derive --h1 2h0`` stage by stage through public functions,
    one span per call, one colony solve per channel exactly as
    ``optimize_fair_two_user`` runs it.  Appends per-solve numbers to the
    lists in ``solves`` and returns per-op layer numbers."""
    wrap = tracer.wrap
    cfg = wrap(load_config, "config.load_config")(CONFIG)
    channels = wrap(enumerate_channels, "channel.enumerate_channels")(
        cfg.channel_grid(), cfg.params
    )
    h1 = 2.0 * channels.mean_gain
    above_ref = cfg.derive_above_ref
    solve_ns = []
    evaluations = 0
    points = []
    with tracer.span("allocate.build_efopa_dataset") as dataset_span:
        for index, gain in enumerate(channels.gains):
            if index % ctx.subsample:
                continue
            if gain > h1:
                if above_ref == "skip":
                    continue
                strong, weak = gain, h1
            else:
                strong, weak = h1, gain
            inst = TwoUserInstance(
                h_strong=strong,
                h_weak=weak,
                p_max=cfg.p_max,
                bandwidth=cfg.bandwidth,
                noise_variance=cfg.derive_noise_variance,
            )
            abc = AbcConfig(
                food_count=cfg.abc_food_count,
                max_evaluations=cfg.abc_max_evaluations,
                limit=cfg.abc_limit,
                seed=channel_stream_seed(seed, index),
            )
            space = SearchSpace(lower=(0.0,), upper=(inst.p_max / 2.0,))
            spent = 0

            def objective(pos, inst=inst):
                nonlocal spent
                t0 = time.perf_counter_ns()
                value = fairness_objective(pos[0], inst)
                spent += time.perf_counter_ns() - t0
                return value

            solve = tracer.begin("optimize.abc_maximize")
            result = abc_maximize(objective, space, abc)
            tracer.aggregate("allocate.fairness_objective", spent, result.evaluations_used)
            tracer.end(solve)
            solve_ns.append(solve[END] - solve[START])
            solves["solve_ns"].append(solve_ns[-1])
            evaluations += result.evaluations_used
            solves["objective_ns"].append(spent)
            solves["useful"].append(useful_cycle_frac(result.trace))
            points.append((inst.ratio, float(result.best_position[0])))
        points.sort(key=lambda p: (p[0], p[1]))
    coeffs, report = wrap(fit_two_term_exp, "expfit.fit_two_term_exp")(points)
    model = EfopaModel(
        coefficients=coeffs,
        h_ref=h1,
        p_ref=cfg.p_max,
        h0=channels.mean_gain,
        mu_mode=MuMode.EQ22,
    )
    wrap(save_model, "modelio.save_model")(
        model_path, model, {"fit_converged": str(report.converged).lower()}
    )
    lines = provenance_lines(
        __version__,
        cfg.digest,
        seed,
        extra={
            "h1": format_float(h1),
            "p_max_w": format_float(cfg.p_max),
            "above_ref": above_ref,
            "subsample": ctx.subsample,
        },
    )
    lines.append("r,p1_w")
    lines.extend(f"{format_float(r)},{format_float(p1)}" for r, p1 in points)
    wrap(atomic_write_text, "modelio.atomic_write_text")(
        dataset_path, "\n".join(lines) + "\n"
    )
    child_ns = sum(
        s[END] - s[START]
        for s in tracer.spans[dataset_span[SID] + 1 :]
        if s[PARENT] == dataset_span[SID]
    )
    return {
        "channel.combos": channels.combo_count,
        "channel.unique": len(channels),
        "optimize.solves": len(solve_ns),
        "optimize.evaluations": evaluations,
        "optimize.busy_s": sum(solve_ns) / 1e9,
        "allocate.dataset_points": len(points),
        "allocate.dataset_self_s": (dataset_span[END] - dataset_span[START] - child_ns) / 1e9,
        "expfit.iterations": report.iterations,
        "expfit.converged": int(report.converged),
        "expfit.rmse_w": report.rmse,
        "expfit.curve_dev": curve_dev(model),
        "modelio.write_bytes": model_path.stat().st_size + dataset_path.stat().st_size,
    }


def useful_cycle_frac(trace) -> float:
    """Share of colony cycles spent before the best value came within 1e-9
    of its final value; the rest of the budget bought nothing."""
    final = trace[-1]
    first = next(i for i, v in enumerate(trace) if v >= final - 1e-9)
    return first / (len(trace) - 1)


def offline_derive(ctx: Context) -> dict:
    gains, mean_gain = read_channels(ctx.workdir / "channels.csv")
    expected_points = sum(
        1 for i, g in enumerate(gains) if i % ctx.subsample == 0 and g <= 2.0 * mean_gain
    )
    rng = random.Random(ctx.seed)
    plain, traced = Tally(), Tally()
    tracer = Tracer() if ctx.trace else None
    per_op = defaultdict(list)
    solves = defaultdict(list)
    model_path = ctx.workdir / "model.txt"
    dataset_path = ctx.workdir / "dataset.csv"
    op = 0
    while True:
        seed = rng.randrange(2**31)
        argv = [
            "derive", "--config", CONFIG, "--h1", "2h0", "--seed", seed,
            "--subsample", ctx.subsample,
            "--out-model", model_path, "--out-dataset", dataset_path,
        ]  # fmt: skip
        plain.attempted += 1
        t0 = time.perf_counter_ns()
        rc = quiet_main(argv)
        dt = time.perf_counter_ns() - t0
        if rc != 0:
            plain.errors += 1
            plain.unexpected += 1
            plain.note(f"derive exited {rc}")
        else:
            plain.record([dt], dt)
            problems, dev = check_derive(model_path, dataset_path, expected_points)
            if problems:
                plain.wrong += 1
                plain.note("; ".join(problems))
            per_op["curve_dev"].append(dev)
        if tracer is not None and rc == 0:
            replay_model = ctx.workdir / "model_traced.txt"
            replay_dataset = ctx.workdir / "dataset_traced.csv"
            tracer.op = op
            traced.attempted += 1
            t0 = time.perf_counter_ns()
            with tracer.span("bench.op"):
                got = replay_derive(ctx, tracer, seed, replay_model, replay_dataset, solves)
            dt = time.perf_counter_ns() - t0
            traced.record([dt], dt)
            problems = check_derive(replay_model, replay_dataset, expected_points)[0]
            if replay_dataset.read_bytes() != dataset_path.read_bytes():
                problems.append("traced dataset differs from the untraced one")
            if load_model(replay_model) != load_model(model_path):
                problems.append("traced model differs from the untraced one")
            if problems:
                traced.wrong += 1
                traced.note("; ".join(problems))
            for key, value in got.items():
                per_op[key].append(value)
        op += 1
        if past(ctx.deadline):
            break

    out = {"plain": plain, "traced": traced, "details": {
        "curve_dev_max": max(per_op["curve_dev"], default=float("nan")),
        "expected_points": expected_points,
    }}  # fmt: skip
    if tracer is not None:
        ops = traced.attempted
        layers = {key: median(values) for key, values in per_op.items() if key != "curve_dev"}
        solve_ms = np.asarray(solves["solve_ns"]) / 1e6
        useful = solves["useful"]
        layers.update(
            {
                "channel.enumerate_ms": median(tracer.durations_ns("channel.enumerate_channels")) / 1e6,
                "optimize.solve_ms_p50": float(np.percentile(solve_ms, 50)),
                "optimize.solve_ms_p99": float(np.percentile(solve_ms, 99)),
                "optimize.useful_cycle_frac": median(useful),
                "optimize.useful_cycle_frac_max": max(useful),
                "allocate.objective_ns": sum(solves["objective_ns"])
                / sum(per_op["optimize.evaluations"]),
                "expfit.fit_ms": median(tracer.durations_ns("expfit.fit_two_term_exp")) / 1e6,
                "modelio.save_ms": (
                    sum(tracer.durations_ns("modelio.save_model"))
                    + sum(tracer.durations_ns("modelio.atomic_write_text"))
                ) / 1e6 / ops,
            }
        )
        layers.update(self_ms_per_op(tracer, ops))
        out["layers"] = layers
        out["tracer"] = tracer
    return out


# -------------------------------------------------------------- online_allocate


def online_allocate(ctx: Context) -> dict:
    cfg, model = ctx.cfg, ctx.model
    if cfg.rate_model != "paper-repro":
        raise ValueError(f"{CONFIG}: expected rate_model paper-repro, got {cfg.rate_model}")
    p_max, bandwidth, s2 = cfg.p_max, cfg.bandwidth, cfg.noise_variance
    rate_models = paper_repro_models(2)
    gains = np.asarray(read_channels(ctx.workdir / "channels.csv")[0])
    if len(np.unique(gains)) != len(gains):
        raise ValueError(f"{CONFIG}: the enumerated gains are not distinct")
    rng = np.random.default_rng(ctx.seed % 2**64)  # numpy takes no negative seed

    def split(h1, h2, code):
        if code == 0:
            return efopa_allocate(model, h1, h2, p_max)
        if code == 1:
            return grpa_allocate(h1, h2, p_max)
        return ngdpa_allocate(h1, h2, p_max)

    def noma_rates(h1, h2, alloc):
        noise = NoiseModel(s2)
        links = (UserLink(gain=h1, bandwidth=bandwidth), UserLink(gain=h2, bandwidth=bandwidth))
        return evaluate(links, alloc, noise, rate_models).per_user_rates

    def oma_rates(h1, h2, powers):
        noise = NoiseModel(s2)
        rates = (
            rate_oma(UserLink(gain=h1, bandwidth=bandwidth), powers[0], 2, noise),
            rate_oma(UserLink(gain=h2, bandwidth=bandwidth), powers[1], 2, noise),
        )
        jain_index(rates)
        return rates

    def op(h1, h2, code):
        """The per-pair work of ``vlcfair allocate``: split, then rates."""
        if code == 3:
            powers = oma_allocate(p_max, 2)
            return powers, oma_rates(h1, h2, powers)
        alloc = split(h1, h2, code)
        return alloc.powers, noma_rates(h1, h2, alloc)

    def traced_op(h1, h2, code):
        with tracer.span("bench.op"):
            if code == 3:
                with tracer.span("allocate.oma_allocate"):
                    powers = oma_allocate(p_max, 2)
                with tracer.span("rates.oma"):
                    return powers, oma_rates(h1, h2, powers)
            with tracer.span(f"allocate.{METHODS[code]}_allocate"):
                alloc = split(h1, h2, code)
            with tracer.span("rates.evaluate"):
                return alloc.powers, noma_rates(h1, h2, alloc)

    plain, traced = Tally(1 << 21), Tally(1 << 21 if ctx.trace else 1)
    tracer = Tracer() if ctx.trace else None
    counts = defaultdict(int)
    eval_ns = []
    block = traced_blocks = 0
    perf_ns = time.perf_counter_ns
    while True:
        # two distinct channels per pair: rates.evaluate rejects equal
        # gains (ROADMAP item 4), which equal_gain_probe counts instead
        i = rng.integers(0, len(gains), BLOCK)
        j = rng.integers(0, len(gains) - 1, BLOCK)
        a, b = gains[i], gains[j + (j >= i)]
        h1s, h2s = np.maximum(a, b), np.minimum(a, b)
        codes = np.searchsorted(METHOD_CUTS, rng.random(BLOCK), side="right")
        use_trace = tracer is not None and block % 2 == 1 and traced_blocks < TRACED_BLOCKS_MAX
        tally, run_op = (traced, traced_op) if use_trace else (plain, op)
        traced_blocks += use_trace
        h1l, h2l, cl = h1s.tolist(), h2s.tolist(), codes.tolist()
        done, out, lat = [], [], []
        t_block = perf_ns()
        for k in range(BLOCK):
            if use_trace:
                tracer.op = block * BLOCK + k
            t0 = perf_ns()
            try:
                powers, rates = run_op(h1l[k], h2l[k], cl[k])
            except ValueError as exc:
                tally.errors += 1
                tally.unexpected += 1
                tally.note(f"h1={h1l[k]!r} h2={h2l[k]!r} {METHODS[cl[k]]}: {exc}")
                continue
            lat.append(perf_ns() - t0)
            done.append(k)
            out.append((powers[0], powers[1], rates[0], rates[1]))
        tally.record(lat, perf_ns() - t_block)
        tally.attempted += BLOCK
        if use_trace:
            coeffs = model.coefficients
            for k in done:
                if cl[k] == 0:
                    t0 = perf_ns()
                    eval_two_term_exp(coeffs, h2l[k] / h1l[k])
                    eval_ns.append(perf_ns() - t0)
        idx = np.asarray(done, dtype=np.int64)
        res = np.asarray(out, dtype=float).reshape(-1, 4)
        bad, found = check_online_block(
            model, p_max, bandwidth, s2, h1s[idx], h2s[idx], codes[idx], res
        )
        tally.wrong += bad
        if bad:
            tally.note(f"block {block}: {bad} splits or rates differ from stats")
        for key, value in found.items():
            counts[key] += value
        block += 1
        if past(ctx.deadline):
            break
    if tracer is not None:
        counts["rates.failed"] = equal_gain_probe(gains.tolist(), op)

    out = {"plain": plain, "traced": traced, "details": dict(counts)}
    if tracer is not None:
        layers = {
            f"allocate.{name}_us": median(tracer.durations_ns(f"allocate.{name}_allocate")) / 1e3
            for name in METHODS[:3]
        }
        layers.update(
            {
                "expfit.eval_scalar_us": median(eval_ns) / 1e3,
                "rates.evaluate_us": median(tracer.durations_ns("rates.evaluate")) / 1e3,
                "rates.oma_us": median(tracer.durations_ns("rates.oma")) / 1e3,
                **counts,
            }
        )
        layers.update(self_ms_per_op(tracer, traced.attempted))
        out["layers"] = layers
        out["tracer"] = tracer
    return out


def equal_gain_probe(gains, op) -> int:
    """How many of the equal-gain pairs (h, h), one per channel and NOMA
    method, the per-pair work of ``vlcfair allocate`` rejects.  Not timed
    and not counted as ops: it records ROADMAP item 4 as it stands, at
    the same count on every run."""
    rejected = 0
    for h in gains:
        for code in range(len(METHODS) - 1):
            try:
                op(h, h, code)
            except ValueError:
                rejected += 1
    return rejected


def check_online_block(model, p_max, bandwidth, s2, h1, h2, codes, res):
    """Compare scalar results with the vectorized engine of ``stats``.

    ``res`` holds (p1, p2, rate1, rate2) per op.  Each NOMA split must
    equal ``split_for_method`` for the same pair within SPLIT_RTOL and
    sum to the budget; orthogonal access must give full power in both
    slots and the rates of ``oma_rates_vec``.  Returns the number of
    ops failing a check and the ``degenerate`` counts.
    """
    p1, p2, r1, r2 = res.T
    bad = np.zeros(len(codes), dtype=bool)
    for code, name in enumerate(METHODS[:3]):
        m = codes == code
        ref = split_for_method(name, model, h1[m], h2[m] / h1[m], p_max)
        bad[m] = ~np.isclose(p1[m], ref, rtol=SPLIT_RTOL, atol=0.0) | (
            np.abs(p1[m] + p2[m] - p_max) > SPLIT_RTOL * p_max
        )
    m = codes == 3
    ref1, ref2 = oma_rates_vec(h1[m], h2[m], p_max, bandwidth, s2)
    bad[m] = (
        (p1[m] != p_max)
        | (p2[m] != p_max)
        | ~np.isclose(r1[m], ref1, rtol=SPLIT_RTOL, atol=0.0)
        | ~np.isclose(r2[m], ref2, rtol=SPLIT_RTOL, atol=0.0)
    )
    return int(np.count_nonzero(bad)), degenerate(model, p_max, p1[codes == 0], r1, r2)


def degenerate(model, p_max, efopa_p1, r1, r2) -> dict:
    """Counts of efopa splits clamped (at either bound, and at the floor
    alone) and of ops or pairs with an infinite rate."""
    floor = efopa_p1 <= model.clamp_floor
    return {
        "allocate.clamped": int(np.count_nonzero(floor | (efopa_p1 >= p_max / 2.0))),
        "allocate.clamped_floor": int(np.count_nonzero(floor)),
        "rates.inf_rate": int(np.count_nonzero(np.isinf(r1) | np.isinf(r2))),
    }


# ---------------------------------------------------------------- batch_compare

# names the CLI module imported from the layers; wrapped while an op is traced
_CLI_CALLS = {
    "load_config": "config.load_config",
    "load_model": "modelio.load_model",
    "pair_statistics": "stats.pair_statistics",
    "sweep_rows": "stats.sweep_rows",
    "walk_rows": "stats.walk_rows",
}


@contextlib.contextmanager
def traced_cli(tracer: Tracer, written: list):
    """Spans around the layer calls ``vlcfair.cli`` makes, for one op."""
    saved = {name: getattr(cli, name) for name in (*_CLI_CALLS, "atomic_write_text")}
    write = tracer.wrap(saved["atomic_write_text"], "modelio.atomic_write_text")

    def counted_write(path, text):
        written.append(len(text.encode("utf-8")))
        return write(path, text)

    try:
        for name, span in _CLI_CALLS.items():
            setattr(cli, name, tracer.wrap(saved[name], span))
        cli.atomic_write_text = counted_write
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def check_batch(pairs_path, sweep_path, walk_path, pairs_expected, walk_points) -> list:
    problems = []
    report = report_values(pairs_path)
    if int(report["pairs_total"]) != pairs_expected:
        problems.append(f"pairs_total {report['pairs_total']} != {pairs_expected}")
    oma = float(report["efopa_vs_oma_sum_wins_pct"])
    ngdpa = float(report["efopa_vs_ngdpa_sum_wins_pct"])
    if not oma >= OMA_WIN_MIN_PCT:
        problems.append(f"efopa beats oma on {oma:.2f}% < {OMA_WIN_MIN_PCT}%")
    if not ngdpa >= NGDPA_WIN_MIN_PCT:
        problems.append(f"efopa beats ngdpa on {ngdpa:.2f}% < {NGDPA_WIN_MIN_PCT}%")
    rows = len(data_rows(sweep_path))
    if rows != 100 * len(METHODS):
        problems.append(f"sweep has {rows} rows, expected {100 * len(METHODS)}")
    rows = len(data_rows(walk_path))
    if rows != walk_points:
        problems.append(f"walk has {rows} rows, expected {walk_points}")
    return problems


def report_values(path: Path) -> dict:
    """``key = value`` lines of a pairs-stats report."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#") and " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


def batch_compare(ctx: Context) -> dict:
    cfg, model = ctx.cfg, ctx.model
    work = ctx.workdir
    channels_path = work / "channels_shuffled.csv"
    gains = read_channels(channels_path)[0]
    pairs_expected = len(gains) * (len(gains) + 1) // 2
    model_path = work / "ref_model.txt"
    outs = (work / "pairs.txt", work / "sweep.csv", work / "walk.csv")
    commands = (
        ["pairs-stats", "--config", CONFIG, "--model", model_path,
         "--channels", channels_path, "--seed", ctx.seed, "--out", outs[0]],
        ["sweep", "--config", CONFIG, "--model", model_path, "--h1", "2h0",
         "--out", outs[1]],
        ["walk", "--config", CONFIG, "--model", model_path, "--out", outs[2]],
    )  # fmt: skip
    walk_points = len(cfg.walk_points)
    plain, traced = Tally(), Tally()
    tracer = Tracer() if ctx.trace else None
    per_op = defaultdict(list)
    kernels = None
    op = 0
    while True:
        for tally, use_trace in ((plain, False), (traced, True)):
            if use_trace and tracer is None:
                continue
            tally.attempted += 1
            written = []
            t0 = time.perf_counter_ns()
            if use_trace:
                tracer.op = op
                with tracer.span("bench.op"), traced_cli(tracer, written):
                    rcs = [tracer.wrap(quiet_main, "cli.main")(argv) for argv in commands]
            else:
                rcs = [quiet_main(argv) for argv in commands]
            dt = time.perf_counter_ns() - t0
            if any(rcs):
                tally.errors += 1
                tally.unexpected += 1
                tally.note(f"exit codes {rcs}")
                continue
            tally.record([dt], dt)
            problems = check_batch(*outs, pairs_expected, walk_points)
            if problems:
                tally.wrong += 1
                tally.note("; ".join(problems))
            if use_trace:
                per_op["modelio.write_bytes"].append(sum(written))
                per_op["stats.pairs"].append(
                    int(report_values(outs[0])["pairs_total"])
                )
                if kernels is None:
                    kernels = PairKernels(gains, model, cfg)
                for key, value in kernels.run().items():
                    per_op[key].append(value)
        op += 1
        if past(ctx.deadline):
            break

    out = {"plain": plain, "traced": traced, "details": {"pairs_per_op": pairs_expected}}
    if tracer is not None:
        ops = traced.attempted
        layers = {key: median(values) for key, values in per_op.items()}
        layers.update(
            {
                "stats.pair_statistics_s": median(tracer.durations_ns("stats.pair_statistics")) / 1e9,
                "stats.sweep_ms": median(tracer.durations_ns("stats.sweep_rows")) / 1e6,
                "stats.walk_ms": median(tracer.durations_ns("stats.walk_rows")) / 1e6,
                "modelio.save_ms": sum(tracer.durations_ns("modelio.atomic_write_text")) / 1e6 / ops,
            }
        )
        layers.update(self_ms_per_op(tracer, ops))
        out["layers"] = layers
        out["tracer"] = tracer
        out["details"].update(
            {
                k: layers[k]
                for k in (
                    "allocate.clamped", "allocate.clamped_floor",
                    "rates.inf_rate", "stats.equal_gain_pairs",
                )
            }  # fmt: skip
        )
    return out


class PairKernels:
    """The vectorized kernels behind ``pairs-stats``, timed one by one on the
    same ordered pair arrays ``pair_statistics`` builds."""

    def __init__(self, gains, model, cfg):
        g = np.asarray(sorted(gains), dtype=float)
        n = len(g)
        h1, h2 = np.repeat(g, n), np.tile(g, n)
        keep = h2 <= h1
        self.h1, self.h2 = h1[keep], h2[keep]
        self.r = self.h2 / self.h1
        self.model = model
        self.p_max, self.bandwidth, self.s2 = cfg.p_max, cfg.bandwidth, cfg.noise_variance

    def run(self) -> dict:
        ns = defaultdict(int)
        nbytes = 0

        def timed(key, fn, *args):
            nonlocal nbytes
            t0 = time.perf_counter_ns()
            out = fn(*args)
            ns[key] += time.perf_counter_ns() - t0
            outs = out if isinstance(out, tuple) else (out,)
            nbytes += sum(a.nbytes for a in (*args, *outs) if isinstance(a, np.ndarray))
            return out

        h1, h2, p_max = self.h1, self.h2, self.p_max
        counts = {}
        for method in METHODS[:3]:
            model = self.model if method == "efopa" else None
            p1 = timed("stats.split_ms", split_for_method, method, model, h1, self.r, p_max)
            p2 = p_max - p1
            r1, r2 = timed(
                "stats.noma_rates_ms", noma_rates_vec,
                h1, h2, p1, p2, self.bandwidth, self.s2, "paper-repro",
            )  # fmt: skip
            timed("stats.jain_ms", jain_vec, r1, r2)
            if method == "efopa":
                counts = degenerate(self.model, p_max, p1, r1, r2)
        r1, r2 = timed("stats.oma_rates_ms", oma_rates_vec, h1, h2, p_max, self.bandwidth, self.s2)
        timed("stats.jain_ms", jain_vec, r1, r2)
        out = {key: value / 1e6 for key, value in ns.items()}
        out["stats.bytes_computed"] = nbytes
        out["stats.equal_gain_pairs"] = int(np.count_nonzero(h1 == h2))
        out.update(counts)
        return out


WORKLOADS = {
    "offline_derive": offline_derive,
    "online_allocate": online_allocate,
    "batch_compare": batch_compare,
}
