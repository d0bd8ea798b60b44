"""Golden digests of the bee colony's output.

The colony is deterministic for a given seed; these digests pin its
results bit for bit, so any change to the draw order, the arithmetic of
a neighbourhood move or the objective's evaluation order shows up here.
Regenerate them only for a change that is meant to alter results.
"""

import hashlib
from pathlib import Path

from vlcfair.allocate import build_efopa_dataset
from vlcfair.channel import enumerate_channels
from vlcfair.cli import main
from vlcfair.config import load_config
from vlcfair.optimize import AbcConfig, SearchSpace, abc_maximize

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_derive_files(tmp_path):
    model, dataset = tmp_path / "model.txt", tmp_path / "dataset.csv"
    rc = main([
        "derive", "--config", CONFIG, "--h1", "2h0", "--seed", "7",
        "--subsample", "8", "--out-model", str(model), "--out-dataset", str(dataset),
    ])
    assert rc == 0
    assert sha256(model.read_bytes()) == (
        "2ac2bdbeb5663a922b7b7adf91460cb0eeeb695ce60ec082aa17d890a8799f9f"
    )
    assert sha256(dataset.read_bytes()) == (
        "fec512e404a7d2c17ec365f41e538c5acf0add8d7d59ef910dff1d3536c6f7d2"
    )


def test_dataset_full_precision():
    # the files round to 9 digits; the repr keeps every bit of each optimum
    cfg = load_config(CONFIG)
    channels = enumerate_channels(cfg.channel_grid(), cfg.params)
    points = build_efopa_dataset(
        h1=2.0 * channels.mean_gain,
        channels=channels,
        p_max=cfg.p_max,
        abc=AbcConfig(
            food_count=cfg.abc_food_count,
            max_evaluations=cfg.abc_max_evaluations,
            limit=cfg.abc_limit,
            seed=7,
        ),
        noise_variance=cfg.derive_noise_variance,
        bandwidth=cfg.bandwidth,
        subsample=64,
    )
    assert len(points) == 22
    assert sha256(repr(points).encode()) == (
        "e856ed390fda9b2bfb4f64a721c42560f5b91fbc0071fd858256d9902f09dd59"
    )


def test_quadratic_1d():
    result = abc_maximize(
        lambda pos: -((pos[0] - 0.3) ** 2),
        SearchSpace(lower=(0.0,), upper=(1.0,)),
        AbcConfig(seed=11, max_evaluations=2000),
    )
    assert sha256(repr(result).encode()) == (
        "9b322b888fd679de0989e96914e50090578d8b54fec50ac62a5c8f9efb28a385"
    )


def test_bowl_2d():
    # two dimensions: the coordinate draw is randrange(2), not randrange(1)
    result = abc_maximize(
        lambda pos: -((pos[0] - 0.4) ** 2) - (pos[1] - 0.2) ** 2,
        SearchSpace(lower=(0.0, -1.0), upper=(1.0, 1.0)),
        AbcConfig(seed=3, max_evaluations=3000),
    )
    assert sha256(repr(result).encode()) == (
        "8b3028cd76e0f9ace46fb6b9243dc733ce078940e0d54b2420b7bd5fc46b2823"
    )


def test_flat_objective():
    # zero total fitness takes the uniform onlooker draw, and every
    # source stalls, so the scout fires
    result = abc_maximize(
        lambda pos: 0.0,
        SearchSpace(lower=(0.0,), upper=(1.0,)),
        AbcConfig(seed=2, max_evaluations=500),
    )
    assert sha256(repr(result).encode()) == (
        "bfefe4874150627c4e3f01361a413db0e79183b7054c531d2d467b7689ff2951"
    )
