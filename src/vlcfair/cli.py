"""Command-line front end: derivation pipeline, queries, sweeps, scenarios.

Every command reads a flat ``key = value`` config, writes deterministic
text artifacts (comma-separated tables or flat model files) with a
provenance header, and exits 0 on success or nonzero with a one-line
diagnostic.  Re-running a command with the same config and seed
reproduces its output byte for byte.

``main`` resolves a command's inputs once, before the command runs: the
config (every command but ``reference-model``) with each flag that
stands for a config key applied onto it (``_FLAG_FIELDS``; ``sweep``'s
own ``--rate-model`` default too), and the ``--model`` file with
``--mu-mode`` applied.  A given flag is checked by its key's rule in
``config._KEYS``, as a file value is.  The resolved RunConfig is then
the one holder of those settings, and both engines take it whole: the
``stats`` engine, and derive's ``allocate.build_efopa_dataset`` with
the pairs ``allocate.dataset_pairs`` picks, computed once per run.
Argument errors, argparse's among them, reach main's one handler and
exit 2 with one ``error:`` line.  Each step from input file to
output runs through one function: config and model files through
``load_config`` and ``load_model``, which check each file against its
key table (``config.check_entries``), each gain of a channels file
through the same per-value check (``config.check_value``), every method
through ``stats.method_rates``, every table (channels, derive dataset,
sweep, walk) through ``_write_table``, and every ``key = value`` line
through ``modelio.key_value_lines``.  Both sampled axes (channel grid,
sweep) follow ``config.axis``.  Defaults and choices are read from the
code that uses them (EfopaModel, ``stats.METHODS``,
``allocate.ABOVE_REF``).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .allocate import (
    ABOVE_REF,
    EfopaModel,
    MuMode,
    build_efopa_dataset,
    check_clamp_floor,
    dataset_pairs,
)
from .channel import enumerate_channels
from .config import (_KEYS, POSITIVE, ConfigError, RunConfig, axis, check_value, decode_text,
                     load_config)
from .expfit import MIN_POINTS, fit_two_term_exp
from .modelio import (
    atomic_write_text,
    format_float,
    key_value_lines,
    load_model,
    provenance_lines,
    save_model,
)
from .reference import reference_model
from .stats import (
    METHODS,
    RATE_MODELS,
    method_rates,
    pair_statistics,
    sweep_rows,
    walk_rows,
)


def _resolve_h1(spec: str, h0: float) -> float:
    """Accept an absolute gain or a multiple of the mean gain like '2h0'."""
    text = spec.strip().lower().replace(" ", "")
    scale = 1.0
    if text.endswith("h0"):  # 'h0', '<number>h0', '<number>*h0' or '<number>xh0'
        text, scale = text[:-2], h0
        text = text[:-1] if text[-1:] in ("*", "x") else text or "1"
    try:
        h1 = float(text) * scale
    except ValueError:
        h1 = math.nan  # not a number: reported below as no gain
    if not (math.isfinite(h1) and h1 > 0):
        raise ValueError(f"--h1 must give a finite gain > 0, got {spec!r}")
    return h1


def _grid_description(cfg: RunConfig) -> str:
    d = cfg.distances
    a = cfg.angles_deg
    return (
        f"d[{format_float(d[0])}..{format_float(d[-1])};n={len(d)}]"
        f";angles_deg[{a[0]:g}..{a[-1]:g};n={len(a)}]"
        f";dedup={format_float(cfg.dedup_resolution)}"
    )


def _write_table(path, cfg: RunConfig, extra: dict, header: str, rows):
    """Provenance header, column names, then one comma-separated line per
    row: strings as they are, numbers through format_float."""
    lines = provenance_lines(__version__, cfg.digest, cfg.seed, extra)
    lines.append(header)
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _check_fairness(where: str, r1, r2, fairness):
    """allocate's, sweep's and walk's rule for a scored pair: fairness > 0."""
    if not fairness > 0:  # both rates zero or not a number: gains too small or large to score
        raise ValueError(f"{where}fairness undefined for rates {float(r1)}, {float(r2)}")


def _load_channels_file(path) -> list:
    """Gains of a channels file, in file order: finite, > 0 and distinct."""
    seen = {}  # gain -> line number
    text = decode_text(Path(path).read_bytes(), path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#") or s == "gain":
            continue
        gain = check_value("gain", s, float, POSITIVE, path, lineno)
        if gain in seen:
            raise ValueError(f"{path}:{lineno}: gain {s} repeats line {seen[gain]}")
        seen[gain] = lineno
    if not seen:
        raise ValueError(f"{path}: no gains found")
    return list(seen)


def cmd_channels(args, cfg: RunConfig, model) -> int:
    channels = enumerate_channels(cfg.channel_grid(), cfg.params)
    extra = {
        "combo_count": channels.combo_count,
        "unique_count": len(channels),
        "mean_gain": channels.mean_gain,
        "dedup_resolution": channels.dedup_resolution,
        "grid": _grid_description(cfg),
    }
    _write_table(args.out, cfg, extra, "gain", ((g,) for g in channels.gains))
    print(
        f"channels: {channels.combo_count} combos -> {len(channels)} unique, "
        f"mean {format_float(channels.mean_gain)} -> {args.out}"
    )
    return 0


def cmd_derive(args, cfg: RunConfig, model) -> int:
    # the flags before any channel is enumerated: before the colony spends seconds solving
    check_clamp_floor(args.clamp_floor)
    if args.subsample < 1:
        raise ValueError(f"--subsample must be >= 1, got {args.subsample}")
    channels = enumerate_channels(cfg.channel_grid(), cfg.params)
    h1 = _resolve_h1(args.h1, channels.mean_gain)
    # "swap" pairs every channel the subsample keeps
    kept = len(dataset_pairs(h1, channels, "swap", args.subsample))
    if kept < MIN_POINTS <= len(channels):  # too few channels at all: the fit says so
        raise ValueError(
            f"--subsample {args.subsample} keeps {kept} of {len(channels)} channels, "
            f"fewer than the {MIN_POINTS} points the fit needs"
        )
    pairs = dataset_pairs(h1, channels, cfg.derive_above_ref, args.subsample)
    if len(pairs) < MIN_POINTS <= kept:  # too few at or below h1 under --above-ref skip
        raise ValueError(
            f"--h1 {args.h1} (gain {h1:.6g}) has {len(pairs)} of {kept} channels at or "
            f"below it, fewer than the {MIN_POINTS} points the fit needs"
        )
    dataset = build_efopa_dataset(pairs, cfg)
    coeffs, report = fit_two_term_exp(dataset)
    model = EfopaModel(
        coefficients=coeffs,
        h_ref=h1,
        p_ref=cfg.p_max,
        h0=channels.mean_gain,
        mu_mode=MuMode(args.mu_mode),
        clamp_floor=args.clamp_floor,
    )
    provenance = {
        "tool_version": __version__,
        "config_digest": cfg.digest,
        "seed": cfg.seed,
        "grid": _grid_description(cfg),
        "combo_count": channels.combo_count,
        "unique_count": len(channels),
        "h1_spec": args.h1,
        "above_ref": cfg.derive_above_ref,
        "subsample": args.subsample,
        "derive_noise_variance_w": cfg.derive_noise_variance,
        "bandwidth_hz": cfg.bandwidth,
        "dataset_points": len(dataset),
        "fit_rmse_w": report.rmse,
        "fit_iterations": report.iterations,
        "fit_converged": str(report.converged).lower(),
    }
    save_model(args.out_model, model, provenance)
    extra = {
        "h1": h1,
        "p_max_w": cfg.p_max,
        "above_ref": cfg.derive_above_ref,
        "subsample": args.subsample,
    }
    _write_table(args.out_dataset, cfg, extra, "r,p1_w", dataset)
    print(
        f"derive: {len(dataset)} points, fit rmse {format_float(report.rmse)} W, "
        f"converged={report.converged} -> {args.out_model}"
    )
    return 0


def cmd_allocate(args, cfg: RunConfig, model) -> int:
    h1, h2 = args.h1, args.h2
    for flag, value in (("--h1", h1), ("--h2", h2)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {value!r}")
    if args.method == "efopa" and model is None:
        raise ValueError("--model is required for method=efopa")
    # superposition needs the strong user first (h1 >= h2); orthogonal slots do not
    if args.method != "oma" and not h2 <= h1:
        raise ValueError(f"{args.method} needs h2 <= h1, got h1={h1!r}, h2={h2!r}")
    p1, p2, r1, r2, sum_rate, fairness = method_rates(args.method, model, h1, h2, cfg)
    _check_fairness("", r1, r2, fairness)
    values = (h1, h2, cfg.p_max, p1, p2, r1, r2, sum_rate, fairness)
    print("method,h1,h2,p_max_w,p1_w,p2_w,rate1_bps,rate2_bps,sum_rate_bps,fairness")
    print(",".join([args.method] + [format_float(v) for v in values]))
    return 0


def cmd_sweep(args, cfg: RunConfig, model) -> int:
    h1 = _resolve_h1(args.h1, model.h0)
    if not 0 < args.r_min <= args.r_max <= 1:
        raise ValueError(f"need 0 < --r-min <= --r-max <= 1, got {args.r_min}, {args.r_max}")
    try:
        ratios = axis(args.r_min, args.r_max, args.r_step)
    except ValueError as exc:
        raise ValueError(f"--r-step: {exc}") from None
    methods = args.methods.split(",")
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise ValueError(f"--methods: unknown {unknown}; choose from {', '.join(METHODS)}")
    rows = sweep_rows(ratios, h1, methods, model, cfg)
    for r, method, _, _, r1, r2, _, fair in rows:
        _check_fairness(f"--h1 {args.h1} (gain {h1:.6g}) at r = {r:g}, {method}: ", r1, r2, fair)
    extra = {
        "h1": h1,
        "rate_model": cfg.rate_model,
        "r_axis": f"{args.r_min:g}..{args.r_max:g}:{args.r_step:g}",
    }
    header = "r,method,p1_w,p2_w,rate1_bps,rate2_bps,sum_rate_bps,fairness"
    _write_table(args.out, cfg, extra, header, rows)
    print(f"sweep: {len(rows)} rows -> {args.out}")
    return 0


def cmd_pairs_stats(args, cfg: RunConfig, model) -> int:
    gains = _load_channels_file(args.channels)
    if args.subsample is not None and args.subsample < 2:
        raise ValueError(f"--subsample must keep at least 2 gains, got {args.subsample}")
    report = pair_statistics(gains, model, cfg, args.subsample)
    lines = provenance_lines(__version__, cfg.digest, cfg.seed) + key_value_lines(report)
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"pairs-stats: {report['pairs_total']} pairs -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_walk(args, cfg: RunConfig, model) -> int:
    if not cfg.walk_h1:
        raise ConfigError(f"{args.config}: walk.h1 is required for the walk command")
    if not cfg.walk_points:
        raise ConfigError(f"{args.config}: no walk.point.<label> entries found")
    rows = walk_rows(model, cfg)
    for label, _, _, in_fov, *values in rows:
        if in_fov:  # out of view: no gain, and fairness 0 by design
            _check_fairness(f"{args.config}: walk.h1 = {cfg.walk_h1!r}, waypoint {label}: ",
                            *values[-3:])
    extra = {"h1": cfg.walk_h1, "rate_model": cfg.rate_model}
    header = "point,x_m,y_m,z_m,gain,in_fov,r,mu,p1_w,p2_w,rate1_bps,rate2_bps,fairness"
    table = (
        (label, pos.x, pos.y, pos.z, h2, "1" if in_fov else "0", *values)
        for label, pos, h2, in_fov, *values in rows
    )
    _write_table(args.out, cfg, extra, header, table)
    print(f"walk: {len(rows)} waypoints -> {args.out}")
    return 0


def cmd_reference_model(args, cfg, model) -> int:
    save_model(
        args.out,
        reference_model(mu_mode=MuMode(args.mu_mode), clamp_floor=args.clamp_floor),
        provenance={"tool_version": __version__, "source": "reference-constants"},
    )
    print(f"reference-model -> {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, its errors raised to main's one handler, not printed
    under a usage block; every subcommand's parser is one too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vlcfair",
        description="Fair power allocation toolkit for two-user optical NOMA links",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    mu_modes = [m.value for m in MuMode]

    def command(name, func, help):
        """A command that runs on the config its --config names."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True)
        p.set_defaults(func=func)
        return p

    p = command("channels", cmd_channels, "enumerate the unique channel set")
    p.add_argument("--out", required=True)

    p = command("derive", cmd_derive, "offline pipeline: enumerate, optimize, fit")
    p.add_argument("--h1", default="2h0", help="reference gain: absolute or e.g. '2h0'")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-dataset", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--subsample", type=int, default=1, help="keep every n-th channel")
    p.add_argument("--above-ref", choices=ABOVE_REF, default=None)
    p.add_argument("--mu-mode", choices=mu_modes, default=EfopaModel.mu_mode.value)
    p.add_argument("--clamp-floor", type=float, default=EfopaModel.clamp_floor)

    p = command("allocate", cmd_allocate, "one allocation plus rates on stdout")
    p.add_argument("--model", help="model file (required for method=efopa)")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--h1", type=float, required=True)
    p.add_argument("--h2", type=float, required=True)
    p.add_argument("--p-max", type=float, default=None)
    p.add_argument("--mu-mode", choices=mu_modes, default=None)
    p.add_argument("--rate-model", choices=RATE_MODELS, default=None)

    p = command("sweep", cmd_sweep, "rate/fairness table over the gain ratio axis")
    p.add_argument("--model", required=True)
    p.add_argument("--h1", default="2h0")
    p.add_argument("--r-min", type=float, default=0.01)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--r-step", type=float, default=0.01)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--rate-model", choices=RATE_MODELS, default="shannon")
    p.add_argument("--out", required=True)

    p = command("pairs-stats", cmd_pairs_stats, "win percentages over all gain pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--channels", required=True, help="channels file from 'channels'")
    p.add_argument("--rate-model", choices=RATE_MODELS, default=None)
    p.add_argument("--subsample", type=int, default=None, help="random gain subset size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = command("walk", cmd_walk, "fixed strong user, one row per waypoint")
    p.add_argument("--model", required=True)
    p.add_argument("--mu-mode", choices=mu_modes, default=None)
    p.add_argument("--rate-model", choices=RATE_MODELS, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reference-model", help="write the published-constants model")
    p.add_argument("--out", required=True)
    p.add_argument("--mu-mode", choices=mu_modes, default=EfopaModel.mu_mode.value)
    p.add_argument("--clamp-floor", type=float, default=EfopaModel.clamp_floor)
    p.set_defaults(func=cmd_reference_model)

    return parser


# flags that stand for a config key: the key, whose rule checks a given
# flag, and the RunConfig field the flag then sets
_FLAG_FIELDS = (("seed", "seed", "seed"), ("rate_model", "noma.rate_model", "rate_model"),
                ("p_max", "noma.p_max_w", "p_max"),
                ("above_ref", "derive.above_ref", "derive_above_ref"))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every input of the command, resolved once: its config with each
        # given flag applied, and its model with --mu-mode applied
        cfg = model = None
        if hasattr(args, "config"):
            cfg, given = load_config(args.config), {}
            for flag, key, field in _FLAG_FIELDS:
                value = getattr(args, flag, None)
                if value is not None:  # checked as the config's own value is
                    kind, rule, _ = _KEYS[key]
                    name = "--" + flag.replace("_", "-")
                    given[field] = check_value(key, value, kind, rule, name, 0)
            cfg = replace(cfg, **given)
        if getattr(args, "model", None):
            model = load_model(args.model)
            if getattr(args, "mu_mode", None):
                model = replace(model, mu_mode=MuMode(args.mu_mode))
        return args.func(args, cfg, model)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
