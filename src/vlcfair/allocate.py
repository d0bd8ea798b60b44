"""Two-user power allocation: the fitted-curve allocator and its baselines.

The fitted-curve method works in two stages.  Offline, every channel of
the enumerated set is paired with a fixed reference gain, the
fairness-optimal strong-user power is found for each pair, and a
two-term exponential is fitted to the resulting (gain ratio, power)
points.  Online, the fitted curve evaluated at r = h2/h1 and scaled by

    mu = (h_ref / h_new) * sqrt(p_new / p_ref)

gives the strong user's power directly, with no further optimization.
The offline stage takes two inputs: the (index, strong, weak) pairs of
dataset_pairs, which alone holds the channel rule, and the resolved
RunConfig, from which build_efopa_dataset reads the link budget and the
colony's settings.  Its colony solves are independent and seeded per
channel, so they run on every CPU the process may use with the same
bits as on one: _fork_map, which ``pairs-stats`` shares, scores them in
the calling process and in one forked child per other CPU, each
claiming the next unsolved channels from one queue, filled before the
fork, as it finishes the last, with no process pool.

Baselines: gain-ratio allocation (p_strong = P r^2 / (1 + r^2)),
normalized-gain-difference allocation (p_strong/p_weak = 1 - r), and
orthogonal access (full power over a 1/K time share).

Each split formula is written once, in split_for_method, which takes
floats or pair arrays; the scalar allocators call it for one pair.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .channel import ChannelSet
from .expfit import ExpFitCoefficients, eval_two_term_exp
from .optimize import AbcConfig, SearchSpace, _colony
from .rates import _PI_E, AllocationVector, FloatOrArray, _jain

__all__ = [
    "MuMode",
    "EfopaModel",
    "TwoUserInstance",
    "fairness_objective",
    "optimize_fair_two_user",
    "dataset_pairs",
    "build_efopa_dataset",
    "efopa_allocate",
    "grpa_allocate",
    "ngdpa_allocate",
    "oma_allocate",
    "split_for_method",
    "channel_stream_seed",
    "check_clamp_floor",
    "ABOVE_REF",
]

_LOG2 = math.log(2.0)

# what dataset_pairs does with a channel above the reference gain;
# the first is the default
ABOVE_REF = ("skip", "swap")


class MuMode(Enum):
    """How the fitted curve is rescaled to a new channel and power budget."""

    EQ22 = "eq22"  # mu = (h_ref/h1) * sqrt(p_new/p_ref)
    PAPER_EXAMPLE = "paper-example"  # no rescaling; curve value used directly


@dataclass(frozen=True)
class EfopaModel:
    """Fitted allocation curve plus the reference point it was derived at."""

    coefficients: ExpFitCoefficients
    h_ref: float
    p_ref: float
    h0: float
    mu_mode: MuMode = MuMode.EQ22
    clamp_floor: float = 0.0

    def __post_init__(self):
        for name in ("h_ref", "p_ref", "h0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        check_clamp_floor(self.clamp_floor)

    def mu(self, h1: float, p_new: float) -> float:
        """Rescaling factor for a new strong-user gain and power budget."""
        return (self.h_ref / h1) * math.sqrt(p_new / self.p_ref)


def check_clamp_floor(value: float):
    """The clamp-floor rule, for EfopaModel and for flags checked before
    a model exists: finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"clamp_floor must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class TwoUserInstance:
    """One two-user link pair: ordered gains, power budget, bandwidth, noise."""

    h_strong: float
    h_weak: float
    p_max: float
    bandwidth: float
    noise_variance: float

    def __post_init__(self):
        for name in ("p_max", "bandwidth", "noise_variance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 < self.h_weak <= self.h_strong < math.inf:
            raise ValueError(
                f"need 0 < h_weak <= h_strong < inf, got {self.h_weak}, {self.h_strong}"
            )

    @property
    def ratio(self) -> float:
        return self.h_weak / self.h_strong

    @cached_property
    def _fairness(self):
        """p1 -> fairness_objective(p1, self) for p1 in [0, p_max], built
        on first use with the constants computed once, in the order the
        formula evaluates them.  It does not check p1: the colony hands it
        only points of [0, p_max/2], and fairness_objective checks every
        other caller's."""
        p_max = self.p_max
        s2 = self.noise_variance
        h2sq = self.h_weak * self.h_weak
        gain1 = 2.0 * (self.h_strong * self.h_strong)
        gain2 = 2.0 * h2sq
        noise1 = _PI_E * s2
        half_b = self.bandwidth / 2.0
        log1p = math.log1p

        def fairness(p1: float) -> float:
            r1 = half_b * log1p(gain1 * p1 / noise1) / _LOG2
            r2 = half_b * log1p(gain2 * (p_max - p1) / (_PI_E * (h2sq * p1 + s2))) / _LOG2
            return _jain(r1, r2)

        return fairness


def fairness_objective(p1: float, inst: TwoUserInstance) -> float:
    """Jain index of the two capacity lower bounds at split (p1, p_max - p1).

    The strong user decodes interference-free; the weak user sees
    residual interference h_weak^2 * p1.  Both rates use the capacity
    lower bound B/2 * log2(1 + 2 h^2 p / (pi e (I + s2))).  Monopoly
    splits (either rate zero) give 1/2.
    """
    if not 0.0 <= p1 <= inst.p_max:
        raise ValueError(f"p1 must lie in [0, p_max], got {p1}")
    return inst._fairness(p1)


def optimize_fair_two_user(inst: TwoUserInstance, abc: AbcConfig) -> float:
    """Fairness-maximal strong-user power over p1 in [0, p_max/2]."""
    space = SearchSpace(lower=(0.0,), upper=(inst.p_max / 2.0,))
    (lo,), (up,) = space.lower, space.upper
    return _colony(inst._fairness, lo, up, abc).best_position[0]


def channel_stream_seed(master_seed: int, channel_index: int) -> int:
    """Per-channel PRNG stream seed: stable, order-independent."""
    return (master_seed << 32) ^ channel_index


def dataset_pairs(
    h1: float, channels: ChannelSet, above_ref: str = ABOVE_REF[0], subsample: int = 1
) -> list:
    """(index, strong gain, weak gain) of each channel build_efopa_dataset
    pairs with the reference gain ``h1``: every ``subsample``-th channel
    of the full set, index counted in it; a channel at ``h1`` as (index,
    h1, h1), and those above ``h1`` swapped with it (``above_ref='swap'``,
    keeping r = weaker/stronger <= 1) or left out (``'skip'``, the
    default for curve derivation: swapped pairs have a different
    strong-user gain, so their optima do not lie on the reference
    curve)."""
    if not (math.isfinite(h1) and h1 > 0):
        raise ValueError(f"h1 must be finite and > 0, got {h1}")
    if above_ref not in ABOVE_REF:
        choices = " or ".join(map(repr, ABOVE_REF))
        raise ValueError(f"above_ref must be {choices}, got {above_ref!r}")
    if subsample < 1:
        raise ValueError(f"subsample must be >= 1, got {subsample}")
    pairs = []
    for index, gain in enumerate(channels.gains):
        if index % subsample:
            continue
        if gain > h1:
            if above_ref == "swap":
                pairs.append((index, gain, h1))
        else:
            pairs.append((index, h1, gain))
    return pairs


def build_efopa_dataset(pairs: list, cfg) -> list:
    """Per-channel fairness optimization: one (r, p1) point per pair.

    ``pairs`` is what dataset_pairs returns, the one home of the channel
    rule (which channels, and what is done with those above the
    reference gain).  ``cfg`` is the resolved RunConfig; the engine reads
    its link budget (``p_max``, ``bandwidth``, ``derive_noise_variance``)
    and its colony (``abc_food_count``, ``abc_max_evaluations``,
    ``abc_limit``, ``seed``).

    Runs are seeded per channel from the master seed and the channel's
    index in the full set, so results do not depend on iteration order,
    subsampling or the number of CPUs the solves are spread over (see
    _fork_map).  Points are returned sorted ascending in r.
    """
    abc = AbcConfig(food_count=cfg.abc_food_count, max_evaluations=cfg.abc_max_evaluations,
                    limit=cfg.abc_limit, seed=cfg.seed)
    jobs = []
    for index, strong, weak in pairs:
        inst = TwoUserInstance(strong, weak, cfg.p_max, cfg.bandwidth, cfg.derive_noise_variance)
        jobs.append((inst, replace(abc, seed=channel_stream_seed(cfg.seed, index))))
    solved = _fork_map(lambda job: optimize_fair_two_user(*job), jobs)
    points = [(inst.ratio, p1) for (inst, _), p1 in zip(jobs, solved)]
    points.sort(key=lambda p: (p[0], p[1]))
    return points


def _fork_map(fn, items: list) -> list:
    """[fn(item) for item in items], on one process per CPU this one may
    run on (os.sched_getaffinity where the platform has it): this one
    and a forked child for each other CPU; all in this process where one
    CPU is usable, there is one item or the platform cannot fork.  The
    batch engines of ``derive`` (an item is one colony solve) and
    ``pairs-stats`` (one block of pairs) share it.

    Process j first scores item j, this process the last of those.  The
    other items wait in a claim queue: one pipe, filled with 4-byte
    tickets and closed for writing before the fork.  A ticket names the
    first of ``run`` consecutive items, and each process reads one
    ticket at a time, scores its items and reads the next, until a read
    finds the queue empty.  A pipe read of 4 bytes takes one whole
    ticket, since the queue holds nothing else, so every item is scored
    exactly once; a process on a slower or busier CPU claims fewer
    tickets, and the items come back in their own order whichever
    process scored them.  Nothing is passed back into the queue, so a
    child that dies holds nothing another process waits for: the others
    drain the queue without it.  The queue is written whole before any
    process reads it, so it must fit a pipe's buffer, or the write would
    wait forever: ``run`` is chosen so that it holds at most 4096 tickets
    (16 KiB, the smallest default pipe buffer among Linux's 64 KiB and
    macOS's 16 KiB).

    A child inherits this process's memory, so ``fn`` may be a closure
    over arrays and the items need not pickle; only each child's results,
    or its exception, come back, pickled over a pipe.  Forked, not
    spawned: a spawned child would import numpy again before its first
    item, and a forked one inherits the heap state its caller has set
    up (see ``stats``).  The children of both engines run pure Python
    and element-wise numpy, never a BLAS call, so none waits on a thread
    numpy's BLAS started before the fork.  A child freezes the objects
    it inherits out of its garbage collector, so its collections neither
    walk them nor copy their pages.

    Once the queue is empty and its own items scored, this process reads
    each child's pipe to its end, in order.  A child's exception is
    raised here with its type and message; a child whose pipe ends
    without its results raises RuntimeError naming its exit status.
    Where a fork, this process's own items, a read or a child raises,
    the children are killed; every child is reaped before the call
    returns or raises."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    width = min(cpus, len(items))
    if width < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    run = (len(items) - width) // 4096 + 1  # items per ticket: at most 4096 tickets
    claims, queue = os.pipe()
    with open(queue, "wb") as tickets:
        tickets.write(b"".join(k.to_bytes(4, "little") for k in range(width, len(items), run)))

    def score(k: int) -> dict:
        """fn of item k and of every item claimed after it, by index."""
        done = {k: fn(items[k])}
        while ticket := os.read(claims, 4):
            first = int.from_bytes(ticket, "little")
            for k in range(first, min(first + run, len(items))):
                done[k] = fn(items[k])
        return done

    pipes = {}  # pid -> the read end of its pipe
    try:
        for first in range(width - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send the results and leave
                status = 1
                try:
                    os.close(read)
                    gc.freeze()
                    try:
                        data = pickle.dumps((True, score(first)))
                    except BaseException as exc:
                        data = pickle.dumps((False, exc))
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)  # no atexit hooks, no flush of the caller's buffers
            os.close(write)
            pipes[pid] = open(read, "rb")
        done = score(width - 1)
        for pid in list(pipes):
            data = pipes[pid].read()
            if not data:  # reaped here, so neither killed nor reaped below
                pipes.pop(pid).close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"worker process {pid} ended without a result ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            done.update(value)
    except BaseException:
        import signal  # here only: its import costs every command ~0.7 ms

        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims)
        for pid, pipe in pipes.items():
            pipe.close()
            os.waitpid(pid, 0)
    return [done[k] for k in range(len(items))]


def split_for_method(
    method: str,
    model: Optional[EfopaModel],
    h1: FloatOrArray,
    r: FloatOrArray,
    p_max: float,
) -> FloatOrArray:
    """Strong-user power of one allocation method, on floats or over
    pair arrays; the scalar allocators below call it for one pair."""
    if method == "efopa":
        if model is None:
            raise ValueError("efopa requires a model")
        p1 = eval_two_term_exp(model.coefficients, r)
        if model.mu_mode is MuMode.EQ22:
            p1 = model.mu(h1, p_max) * p1
        if isinstance(p1, np.ndarray):
            return np.clip(p1, model.clamp_floor, p_max / 2.0)
        # on a float np.clip costs as much as the rest of the split
        return min(max(p1, model.clamp_floor), p_max / 2.0)
    if method == "grpa":
        return p_max * r * r / (1.0 + r * r)
    if method == "ngdpa":
        return p_max * (1.0 - r) / (2.0 - r)
    if method == "oma":
        raise ValueError("orthogonal access has no power split")
    raise ValueError(f"unknown method {method!r}")


def _check_budget(p_max: float):
    """The budget rule of every scalar allocator: finite and > 0."""
    if not (math.isfinite(p_max) and p_max > 0):
        raise ValueError(f"p_max must be finite and > 0, got {p_max}")


def _split_pair(method: str, model, h1: float, h2: float, p_max: float) -> AllocationVector:
    """split_for_method of one pair with 0 < h2 <= h1 and a budget that
    _check_budget accepts, as the two users' powers."""
    if not 0 < h2 <= h1:
        raise ValueError(f"need 0 < h2 <= h1, got h1={h1}, h2={h2}")
    _check_budget(p_max)
    p1 = split_for_method(method, model, h1, h2 / h1, p_max)
    return AllocationVector(powers=(p1, p_max - p1), total=p_max)


def efopa_allocate(
    model: EfopaModel, h1: float, h2: float, p_new: float
) -> AllocationVector:
    """Strong-user power from the fitted curve, rescaled and clamped.

    r = h2/h1 is evaluated through the curve; in EQ22 mode the value is
    multiplied by mu = (h_ref/h1) sqrt(p_new/p_ref), in paper-example
    mode it is used as-is.  The result is clamped to
    [clamp_floor, p_new/2] (the curve is negative for very small r).
    """
    return _split_pair("efopa", model, h1, h2, p_new)


def grpa_allocate(h1: float, h2: float, p_max: float) -> AllocationVector:
    """Gain-ratio split: consecutive powers scale with (h1/h_k)^k.

    For two users the weak user gets p_strong / r^2, normalized to the
    budget: p_strong = p_max r^2 / (1 + r^2).
    """
    return _split_pair("grpa", None, h1, h2, p_max)


def ngdpa_allocate(h1: float, h2: float, p_max: float) -> AllocationVector:
    """Normalized-gain-difference split: p_strong/p_weak = (h1 - h2)/h1.

    For two users p_strong = p_max (1 - r) / (2 - r).
    """
    return _split_pair("ngdpa", None, h1, h2, p_max)


def oma_allocate(p_max: float, user_count: int) -> tuple:
    """Orthogonal access: each user transmits at full power in its slot.

    Returns the per-slot transmit power of every user; the 1/K time
    share lives in the orthogonal rate expression, not here.
    """
    _check_budget(p_max)
    if user_count < 1:
        raise ValueError(f"user_count must be >= 1, got {user_count}")
    return (p_max,) * user_count
