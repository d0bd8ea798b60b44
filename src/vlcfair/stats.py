"""The method engine behind every data command of the CLI.

method_rates, the one method dispatch, runs a power split of
``allocate`` and the rate kernel of ``rates`` on floats or pair arrays.
``allocate``, ``sweep``, ``pairs-stats`` and ``walk`` all run it: a
single pair, one row per (ratio, method), win percentages and
degenerate-pair counts over all ordered gain pairs, one row per
waypoint.  Both are re-exported here.

method_rates and pair_statistics's orthogonal-access rates run with
numpy's overflow warning off: a rate or power that overflows (at the
largest bandwidth or budget, say) is inf and scored as such.

Every engine function takes its settings from one resolved RunConfig,
the config with the CLI's flags applied: the link budget (p_max,
bandwidth, noise_variance, rate_model), pair_statistics's subsample
seed, and walk_rows's strong-user gain, transmitter, waypoints and
optics.

pair_statistics scores its ~10^6 pairs in blocks sized to a core's L2
cache and takes the orthogonal-access rates once per gain.  Each block
reuses the heap pages the one before it freed: under glibc, a freed
chunk larger than the mmap bar raises that bar to its size and the trim
bar to twice it (mallopt(3), M_MMAP_THRESHOLD), so one untouched 2 MB
array, allocated and dropped before the first block, keeps a block's
~3 MB of arrays on the heap and that heap from being handed back to the
kernel between blocks.  The raised bars hold for the whole process, and
let it keep at most 4 MB of free heap; under another allocator the
array is only freed at once.

The blocks run on every usable CPU: allocate._fork_map scores them in
the calling process and in one forked child per other CPU, each claiming
the next unscored blocks from one queue, filled before the fork, as it
finishes the last; a child that dies stalls no other.  The fork comes
after the bars are raised and the row tables and orthogonal-access rates
exist, so every child inherits them.  Only each block's integer counts come
back, and they are summed, so the report does not depend on the CPU
count.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .allocate import EfopaModel, _fork_map, split_for_method
from .channel import channel_gain, geometry_from_positions
from .config import RunConfig
from .rates import RATE_MODELS, jain_vec, noma_rates_vec, oma_rates_vec

__all__ = [
    "METHODS",
    "RATE_MODELS",
    "split_for_method",
    "noma_rates_vec",
    "oma_rates_vec",
    "jain_vec",
    "method_rates",
    "sweep_rows",
    "pair_statistics",
    "walk_rows",
]

METHODS = ("efopa", "grpa", "ngdpa", "oma")


def method_rates(method: str, model: Optional[EfopaModel], h1: np.ndarray, h2: np.ndarray,
                 cfg: RunConfig):
    """(p1, p2, rate1, rate2, sum_rate, fairness) of one method under the
    link budget of ``cfg`` (p_max, bandwidth, noise_variance, rate_model),
    on floats or pair arrays; the strong user (gain h1) first.
    Orthogonal access gives both users the full power in their slot.
    A rate or power that overflows is inf, scored as such, with numpy's
    overflow warning off."""
    p_max = cfg.p_max
    with np.errstate(over="ignore"):
        if method == "oma":
            r1, r2 = oma_rates_vec(h1, h2, p_max, cfg.bandwidth, cfg.noise_variance)
            p1 = p2 = np.full_like(h1, p_max) if isinstance(h1, np.ndarray) else p_max
        else:
            p1 = split_for_method(method, model, h1, h2 / h1, p_max)
            p2 = p_max - p1
            r1, r2 = noma_rates_vec(h1, h2, p1, p2, cfg.bandwidth, cfg.noise_variance,
                                    cfg.rate_model)
        return p1, p2, r1, r2, r1 + r2, jain_vec(r1, r2)


def sweep_rows(ratios: Sequence[float], h1: float, methods: Sequence[str],
               model: Optional[EfopaModel], cfg: RunConfig) -> list:
    """Rows (r, method, p1, p2, rate1, rate2, sum, fairness) of the strong
    user at gain h1 and the weak one at r * h1, ascending r then method
    name."""
    ratios = np.asarray(ratios, dtype=float)
    methods = sorted(set(methods))
    h1s, h2s = np.full_like(ratios, h1), ratios * h1
    with np.errstate(all="ignore"):  # gains out of range give rows the CLI refuses
        columns = {m: method_rates(m, model, h1s, h2s, cfg) for m in methods}
    rows = []
    for i, r in enumerate(ratios):
        for method in methods:
            p1, p2, r1, r2, s, f = (col[i] for col in columns[method])
            rows.append((float(r), method, p1, p2, r1, r2, s, f))
    return rows


# pairs per block, in whole strong-user rows (at least one): a pair array
# of a block holds ~128 KB and all of them together peak at ~3 MB, near a
# core's 2 MB L2 cache, where blocks of 128 rows (arrays of up to 1.5 MB)
# streamed every pass through memory; on the paper set budgets of 2^13 to
# 2^15 pairs ran alike, 2^12 and 2^16 slower.  glibc's trim bar as the
# block arrays leave it (~290 KB) would hand the heap top back after every
# block, and each block would fault in ~3 MB of fresh zeroed pages: the
# array dropped before the first block holds 16 blocks' worth of floats
# (2 MB), which puts the trim bar at 4 MB, above a block's peak; 8 blocks'
# worth (a 2 MB trim bar) still left ~700 faults a call
_PAIR_BLOCK = 2**14


def pair_statistics(
    gains: Sequence[float], model: EfopaModel, cfg: RunConfig, subsample: Optional[int] = None
) -> Dict:
    """Win percentages of the fitted-curve method over every baseline,
    under the link budget of ``cfg``.

    All ordered pairs (h1, h2) with h2 <= h1 are drawn from the gain
    set; ``subsample`` optionally keeps a random subset of the gains
    first, drawn with ``cfg.seed``.  The pairs are built and scored one
    block of whole strong-user rows at a time, about ``_PAIR_BLOCK``
    pairs, and only the integer counts outlive a block; the blocks are shared among the
    usable CPUs (see the module docstring).  Orthogonal access gives each
    user a rate of its own gain alone, so those rates are taken once
    per gain and gathered per pair.  Returns percentages of pairs where
    the fitted-curve sum rate strictly exceeds each baseline's, equals
    it, and where its fairness index strictly exceeds the baseline's.
    Then the degenerate pairs, scored like any other, are counted:
    ``clamped_pairs`` (the fitted-curve split sits at the clamp floor or
    at P/2), ``infinite_rate_pairs`` (one of its two rates is infinite)
    and ``equal_gain_pairs`` (h1 == h2).
    """
    gains = np.asarray(sorted(gains), dtype=float)
    if len(gains) == 0:
        raise ValueError("need at least one gain")
    if subsample is not None and subsample < len(gains):
        if subsample < 2:
            raise ValueError("subsample must keep at least 2 gains")
        rng = np.random.default_rng(cfg.seed)
        keep = np.sort(rng.choice(len(gains), size=subsample, replace=False))
        gains = gains[keep]
    n = len(gains)
    # raise glibc's heap bars before the first block and before any fork
    # (see _PAIR_BLOCK), so that every forked child inherits them
    np.empty(16 * _PAIR_BLOCK)
    # the sorted gains <= gains[i] are the first row_len[i], equal ones included
    row_len = np.searchsorted(gains, gains, side="right")
    row_end = np.cumsum(row_len)
    # both users' orthogonal rates follow one formula of their own gain
    with np.errstate(over="ignore"):  # as in method_rates
        oma = oma_rates_vec(gains, gains, cfg.p_max, cfg.bandwidth, cfg.noise_variance)[0]
    baselines = ("grpa", "ngdpa", "oma")
    keys = [
        f"efopa_vs_{method}_{kind}_pct"
        for method in baselines
        for kind in ("sum_wins", "sum_ties", "fairness_wins")
    ]

    def count_block(rows: tuple) -> dict:
        """The counts of the pairs of the strong-user rows [start, stop)."""
        start, stop = rows
        lengths = row_len[start:stop]
        strong = np.repeat(np.arange(start, stop), lengths)
        weak = np.arange(len(strong)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        h1, h2 = gains[strong], gains[weak]
        p1, _, r1, r2, ref_sum, ref_fair = method_rates("efopa", model, h1, h2, cfg)
        counts = {
            "clamped_pairs": np.count_nonzero((p1 <= model.clamp_floor) | (p1 >= cfg.p_max / 2.0)),
            "infinite_rate_pairs": np.count_nonzero(np.isinf(r1) | np.isinf(r2)),
            "equal_gain_pairs": np.count_nonzero(h1 == h2),
        }
        # free the powers and rates before the baselines run
        del p1, _, r1, r2
        for method in baselines:
            if method == "oma":
                r1, r2 = oma[strong], oma[weak]
                s, f = r1 + r2, jain_vec(r1, r2)
            else:
                s, f = method_rates(method, model, h1, h2, cfg)[4:]
            key = f"efopa_vs_{method}"
            counts[f"{key}_sum_wins_pct"] = np.count_nonzero(ref_sum > s)
            counts[f"{key}_sum_ties_pct"] = np.count_nonzero(ref_sum == s)
            counts[f"{key}_fairness_wins_pct"] = np.count_nonzero(ref_fair > f)
        return {key: int(count) for key, count in counts.items()}

    # blocks of whole rows, each of at most _PAIR_BLOCK pairs or of one row
    blocks = []
    start = 0
    while start < n:
        budget = row_end[start] - row_len[start] + _PAIR_BLOCK
        stop = max(start + 1, int(np.searchsorted(row_end, budget, side="right")))
        blocks.append((start, stop))
        start = stop
    scored = _fork_map(count_block, blocks)
    counts = {key: sum(block[key] for block in scored) for key in scored[0]}

    total = int(row_end[-1])
    report = {"pairs_total": total, "gains_used": n, "rate_model": cfg.rate_model}
    # count / total is the correctly rounded mean of the 0/1 flags
    report.update({key: 100.0 * (counts.pop(key) / total) for key in keys})
    report.update(counts)  # the degenerate pairs
    return report


def walk_rows(model: EfopaModel, cfg: RunConfig) -> list:
    """The strong user fixed at gain ``cfg.walk_h1``; one row per labeled
    waypoint of ``cfg.walk_points``, its gain from ``cfg.tx`` and
    ``cfg.params``.

    Waypoints outside the field of view yield a zero gain and a cleared
    in_fov flag instead of aborting the run.
    """
    rows = []
    h1 = cfg.walk_h1
    for label, pos in cfg.walk_points:
        h2 = channel_gain(*geometry_from_positions(cfg.tx, pos), cfg.params)
        if h2 <= 0.0:
            rows.append((label, pos, 0.0, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        hs, hw = (h1, h2) if h2 <= h1 else (h2, h1)
        p1, p2, r1, r2, _, fair = method_rates("efopa", model, hs, hw, cfg)
        # the scale factor is reported for every mode, applied only in EQ22
        mu = model.mu(hs, cfg.p_max)
        rows.append((label, pos, h2, True, hw / hs, mu, p1, p2, r1, r2, float(fair)))
    return rows
