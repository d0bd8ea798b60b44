"""Golden digests of the bee colony's output and of every CLI command.

The colony is deterministic for a given seed; these digests pin its
results bit for bit, so any change to the draw order, the arithmetic of
a neighbourhood move or the objective's evaluation order shows up here.
Regenerate them only for a change that is meant to alter results.
"""

import hashlib
from pathlib import Path

import pytest

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


# ----------------------------------------------------------------- CLI outputs
#
# Every CLI command run with configs/paper.cfg and the published-constants
# model.  These pin each printed byte, so a refactor of the rate, fairness
# or split code that changes any output shows up here.

REF_PAIR = ("9.5493e-5", "9.1924e-6")  # waypoint a against the fixed strong user
CLAMPED_PAIR = ("1e-4", "1e-6")  # r = 0.01: the curve is negative, p1 clamps to 0
RATE_MODEL_NAMES = ("lower-bound", "shannon", "paper-repro")


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden_cli")
    assert main(["reference-model", "--out", str(work / "model.txt")]) == 0
    assert main(["channels", "--config", CONFIG, "--out", str(work / "channels.csv")]) == 0
    return work


def test_channels_and_reference_model(cli_dir):
    assert sha256((cli_dir / "channels.csv").read_bytes()) == (
        "bf96b568f4c0015109848dcf0e32a179161c9d2537330c171579ca2069530cb5"
    )
    assert sha256((cli_dir / "model.txt").read_bytes()) == (
        "896e080c4671027bad55b8d9d40d0652f249da51771f1963cdb58dc04391f510"
    )


ALLOCATE_DIGESTS = {
    ("efopa", "lower-bound", REF_PAIR): "630db44a24c1d62b476e71182f8cab67dc268913345b7c6f473741e03dd3f968",
    ("efopa", "shannon", REF_PAIR): "9423482183453589e41de9ede9a9ed74dcf8349718f3a91cd1aef3f09f7c3419",
    ("efopa", "paper-repro", REF_PAIR): "16f57c9177966e245cf0fd267deb25be20baa737f81ef7a33fffdbc256ad649a",
    ("grpa", "lower-bound", REF_PAIR): "553525bb6ba9f1f90673d927b7b6c068bf4a723dda952a6f29e59aeeb44fc5c4",
    ("grpa", "shannon", REF_PAIR): "b18a103401b66a899a5aae71d9576db4a6f23d3befe103ed29f3848e4c0a9fe1",
    ("grpa", "paper-repro", REF_PAIR): "414befed23effb0594918b3191a3dcaf5bed7ce94f5464510af7a80974513922",
    ("ngdpa", "lower-bound", REF_PAIR): "25ccb13b3426cacedd5ab72e3a88646d848c54ff51067f6e9b8ebff95f14b7a1",
    ("ngdpa", "shannon", REF_PAIR): "253f5f30dc4eb387459ec6d23d20c1703b9767376a6f36e8e6f5ae4026481c3f",
    ("ngdpa", "paper-repro", REF_PAIR): "10163a003ac0a40dd8c7224bb72297a890664bec3898dc92f2fb847e57172d0b",
    # orthogonal access has no rate-model choice
    ("oma", "lower-bound", REF_PAIR): "efca2e994f23a6000cb0ff84145c74208791bf13121410a88f9779ae5b114c8a",
    ("oma", "shannon", REF_PAIR): "efca2e994f23a6000cb0ff84145c74208791bf13121410a88f9779ae5b114c8a",
    ("oma", "paper-repro", REF_PAIR): "efca2e994f23a6000cb0ff84145c74208791bf13121410a88f9779ae5b114c8a",
    # paper-repro prints rate2_bps = inf and sum_rate_bps = inf here
    ("efopa", "lower-bound", CLAMPED_PAIR): "4cbc3c03a8b8f69e639b478afc0d99ab414b2b9489bf5ec9a958670dc32ed3f2",
    ("efopa", "shannon", CLAMPED_PAIR): "5e5f1b048b46cbf82fdb097aafb8fb974c59d0ec227089aa55aaac9276f4df20",
    ("efopa", "paper-repro", CLAMPED_PAIR): "8851ae4eeb5f7b0db5d2ad31a7f57bf87fb44c8d6ded89747f4d9598a9d199dd",
}


@pytest.mark.parametrize(
    "method, rate_model, pair",
    [(m, rm, REF_PAIR) for m in ("efopa", "grpa", "ngdpa", "oma") for rm in RATE_MODEL_NAMES]
    + [("efopa", rm, CLAMPED_PAIR) for rm in RATE_MODEL_NAMES],
)
def test_allocate_stdout(cli_dir, capsys, method, rate_model, pair):
    rc = main([
        "allocate", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--method", method, "--h1", pair[0], "--h2", pair[1], "--rate-model", rate_model,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == ALLOCATE_DIGESTS[(method, rate_model, pair)], out


SWEEP_DIGESTS = {
    "lower-bound": "4dd2eed02700723c08b09e61184b75bd4d39dcca94cc98cde0140b7a65f2f286",
    "shannon": "da4e8462467766e30b2b39b5b08e7a388e67eee868d5bb96fae0a5077f5c997c",
    "paper-repro": "bb64ff37e06642b3e6828c83d4ac8aee8a930e754312a19c109e64e1d45b3c66",
}


@pytest.mark.parametrize("rate_model", RATE_MODEL_NAMES)
def test_sweep_file(cli_dir, rate_model):
    out = cli_dir / f"sweep_{rate_model}.csv"
    rc = main([
        "sweep", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--rate-model", rate_model, "--out", str(out),
    ])
    assert rc == 0
    assert sha256(out.read_bytes()) == SWEEP_DIGESTS[rate_model]


# a pairs-stats report is pinned in two parts: the digest of its bytes up
# to the degenerate-case counts, and those counts, its last three lines
PAIRS_STATS_DIGESTS = {
    "lower-bound": "6ef210ff180e807b10f6ce64774111e8af54025c76c9bf65c950d4de8e5b448e",
    "shannon": "bee918a5e5842295263620834f4ac4680f7c948ae33a866a590190cf17d89832",
    "paper-repro": "d5ed58c7b269b6aa767be87134b7303c282bcad1c5bab6f111566f2ddbaeee17",
}
PAIRS_STATS_COUNTS = {  # clamped, infinite-rate and equal-gain pairs
    "lower-bound": (117193, 0, 1538),
    "shannon": (117193, 0, 1538),
    "paper-repro": (117193, 116952, 1538),
}


def check_pairs_report(data: bytes, digest: str, counts) -> None:
    keys = ("clamped_pairs", "infinite_rate_pairs", "equal_gain_pairs")
    tail = "".join(f"{k} = {v}\n" for k, v in zip(keys, counts)).encode()
    assert data.endswith(tail), data.decode()
    assert sha256(data[: -len(tail)]) == digest


@pytest.mark.parametrize("rate_model", RATE_MODEL_NAMES)
def test_pairs_stats_file(cli_dir, rate_model):
    out = cli_dir / f"pairs_{rate_model}.txt"
    rc = main([
        "pairs-stats", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--channels", str(cli_dir / "channels.csv"), "--rate-model", rate_model,
        "--out", str(out),
    ])
    assert rc == 0
    check_pairs_report(
        out.read_bytes(), PAIRS_STATS_DIGESTS[rate_model], PAIRS_STATS_COUNTS[rate_model]
    )


def test_walk_file(cli_dir):
    out = cli_dir / "walk.csv"
    rc = main([
        "walk", "--config", CONFIG, "--model", str(cli_dir / "model.txt"), "--out", str(out),
    ])
    assert rc == 0
    assert sha256(out.read_bytes()) == (
        "6313e17dd9229820341c056affdbaa9b29ca3fe4948410c6efbac86ec75b74d8"
    )


# ------------------------------------------------------------- flag outputs
#
# The flags the digests above leave at their defaults, and the commands
# run without --rate-model: allocate and walk then take the config's
# model, sweep and pairs-stats their own default.


def test_derive_flags(tmp_path):
    model, dataset = tmp_path / "model.txt", tmp_path / "dataset.csv"
    rc = main([
        "derive", "--config", CONFIG, "--above-ref", "swap", "--mu-mode", "paper-example",
        "--clamp-floor", "0.01", "--subsample", "64", "--seed", "7",
        "--out-model", str(model), "--out-dataset", str(dataset),
    ])
    assert rc == 0
    assert sha256(model.read_bytes()) == (
        "531e43a26c00a0ba8405776f0a2931398239ef0d82a472f9b94436ea4e16f16c"
    )
    assert sha256(dataset.read_bytes()) == (
        "7485b8ea60d1a1b66a291be6af0196d41bd200596a324ef8864c6f708f4e7169"
    )


def test_reference_model_flags(tmp_path):
    out = tmp_path / "model.txt"
    rc = main([
        "reference-model", "--mu-mode", "paper-example", "--clamp-floor", "0.01",
        "--out", str(out),
    ])
    assert rc == 0
    assert sha256(out.read_bytes()) == (
        "92d03ddefd062114d4dcecb2ccec36d8b755bc0a85614b9711209f25a6126f3e"
    )


def test_allocate_flags(cli_dir, capsys):
    rc = main([
        "allocate", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--method", "efopa", "--h1", REF_PAIR[0], "--h2", REF_PAIR[1],
        "--mu-mode", "paper-example", "--p-max", "8.1", "--rate-model", "shannon",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == (
        "2f3eb422cd54c0581bc919b2c833ae83e9dd359e555cfda448cec8e196bd7291"
    ), out


def test_allocate_takes_config_rate_model(tmp_path, capsys):
    cfg = tmp_path / "lower_bound.cfg"
    cfg.write_text(Path(CONFIG).read_text().replace(
        "noma.rate_model = paper-repro", "noma.rate_model = lower-bound"
    ))
    rc = main([
        "allocate", "--config", str(cfg), "--method", "grpa",
        "--h1", REF_PAIR[0], "--h2", REF_PAIR[1],
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == ALLOCATE_DIGESTS[("grpa", "lower-bound", REF_PAIR)], out


def test_walk_flags(cli_dir):
    out = cli_dir / "walk_flags.csv"
    rc = main([
        "walk", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--mu-mode", "paper-example", "--rate-model", "shannon", "--out", str(out),
    ])
    assert rc == 0
    assert sha256(out.read_bytes()) == (
        "4c158534b8886a533ecafa3e614101facd98c1cf9abd3302021f2fa579d19c47"
    )


def test_sweep_flags(cli_dir):
    out = cli_dir / "sweep_flags.csv"
    rc = main([
        "sweep", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--h1", "1.5e-4", "--methods", "grpa,oma", "--r-min", "0.05", "--r-max", "0.5",
        "--r-step", "0.05", "--rate-model", "lower-bound", "--out", str(out),
    ])
    assert rc == 0
    assert sha256(out.read_bytes()) == (
        "b92355dc107109f21e49bd8d4b2502d90b58be7b6e1951f45635f629e10c6eed"
    )


def test_sweep_default_rate_model(cli_dir):
    out = cli_dir / "sweep_default.csv"
    rc = main([
        "sweep", "--config", CONFIG, "--model", str(cli_dir / "model.txt"), "--out", str(out),
    ])
    assert rc == 0
    assert sha256(out.read_bytes()) == SWEEP_DIGESTS["shannon"]


def test_pairs_stats_stdout_flags(cli_dir, capsys):
    rc = main([
        "pairs-stats", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--channels", str(cli_dir / "channels.csv"), "--subsample", "200", "--seed", "3",
        "--rate-model", "shannon",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    check_pairs_report(
        out.encode(),
        "30747e0e2b3596f7397f0c4cb9aaa071e841069b16d5d4073f1c08eb98b9f1fa",
        (2222, 0, 200),
    )


def test_pairs_stats_default_rate_model(cli_dir):
    out = cli_dir / "pairs_default.txt"
    rc = main([
        "pairs-stats", "--config", CONFIG, "--model", str(cli_dir / "model.txt"),
        "--channels", str(cli_dir / "channels.csv"), "--out", str(out),
    ])
    assert rc == 0
    check_pairs_report(
        out.read_bytes(), PAIRS_STATS_DIGESTS["paper-repro"], PAIRS_STATS_COUNTS["paper-repro"]
    )
