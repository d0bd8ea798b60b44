"""The golden outputs: each case, the file that pins it, and its producer.

``CASES`` maps a case name to ``(file, producer)``.  The file lives under
``tests/golden/`` and holds the exact bytes the case must produce.  A
producer takes the work directory, in which ``prepare`` has written the
published-constants model (``model.txt``) and the channel set of
``configs/paper.cfg`` (``channels.csv``), and returns those bytes: a CLI
output file, what a CLI command printed, or the ``repr`` of a bee-colony
result.  Cases that pin the same bytes name one file.

``tests/test_golden.py`` compares every case with its file, and
``tests/regen_golden.py`` writes the files from these same producers.
"""

import functools
import io
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

from vlcfair.allocate import build_efopa_dataset, dataset_pairs
from vlcfair.channel import enumerate_channels
from vlcfair.cli import main
from vlcfair.config import load_config
from vlcfair.optimize import AbcConfig, SearchSpace, abc_maximize

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")
RATE_MODELS = ("lower-bound", "shannon", "paper-repro")


@functools.lru_cache(maxsize=None)
def _printed(argv: tuple) -> bytes:
    """Run ``vlcfair *argv`` once per argv and return what it printed.

    Every argv names its work directory, so runs in another directory
    never share an entry.
    """
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"vlcfair {' '.join(argv)} exited {status}")
    return out.getvalue().encode()


def cli(command: str, read=None):
    """Producer of ``vlcfair command``: the file given to flag ``read``, else stdout.

    ``{work}`` and ``{config}`` in ``command`` stand for the work
    directory and ``configs/paper.cfg``.  Cases that run one command
    share its run.
    """
    def produce(work):
        argv = tuple(arg.format(work=work, config=CONFIG) for arg in command.split())
        printed = _printed(argv)
        return Path(argv[argv.index(read) + 1]).read_bytes() if read else printed
    return produce


REFERENCE_MODEL = cli("reference-model --out {work}/model.txt", "--out")
CHANNELS = cli("channels --config {config} --out {work}/channels.csv", "--out")


def prepare(work) -> None:
    """Write the model and the channel set that the other producers read."""
    REFERENCE_MODEL(work)
    CHANNELS(work)


INPUTS = "--config {config} --model {work}/model.txt"  # config and reference model
# waypoint a against the fixed strong user, and r = 0.01, where the curve
# is negative and p1 clamps to 0
REF_PAIR, CLAMPED_PAIR = "--h1 9.5493e-5 --h2 9.1924e-6", "--h1 1e-4 --h2 1e-6"
PAIRS_STATS = f"pairs-stats {INPUTS} --channels {{work}}/channels.csv"
DERIVE = ("derive --config {config} --h1 2h0 --seed 7 --subsample 8"
          " --out-model {work}/derive_model.txt --out-dataset {work}/derive_dataset.csv")
DERIVE_FLAGS = (
    "derive --config {config} --above-ref swap --mu-mode paper-example --clamp-floor 0.01"
    " --subsample 64 --seed 7 --out-model {work}/derive_flags_model.txt"
    " --out-dataset {work}/derive_flags_dataset.csv"
)


def dataset_full_precision(work) -> bytes:
    # the files round to 9 digits; the repr keeps every bit of each optimum
    cfg = replace(load_config(CONFIG), seed=7)
    channels = enumerate_channels(cfg.channel_grid(), cfg.params)
    pairs = dataset_pairs(2.0 * channels.mean_gain, channels, "skip", subsample=64)
    return repr(build_efopa_dataset(pairs, cfg)).encode()


def colony(objective, seed: int, max_evaluations: int):
    """Producer of the repr of one seeded colony search over [0, 1]."""
    space = SearchSpace(lower=(0.0,), upper=(1.0,))
    config = AbcConfig(seed=seed, max_evaluations=max_evaluations)
    return lambda work: repr(abc_maximize(objective, space, config)).encode()


def allocate_config_rate_model(work) -> bytes:
    # allocate without --rate-model (or --model) takes the config's noma.rate_model
    Path(work, "lower_bound.cfg").write_text(Path(CONFIG).read_text().replace(
        "noma.rate_model = paper-repro", "noma.rate_model = lower-bound"
    ))
    return cli(f"allocate --config {{work}}/lower_bound.cfg --method grpa {REF_PAIR}")(work)


CASES = {
    "channels": ("channels.csv", CHANNELS),
    "reference-model": ("reference_model.txt", REFERENCE_MODEL),
    "derive-model": ("derive_model.txt", cli(DERIVE, "--out-model")),
    "derive-dataset": ("derive_dataset.csv", cli(DERIVE, "--out-dataset")),
    "dataset-full-precision": ("dataset_full_precision.txt", dataset_full_precision),
    "colony-quadratic-1d": (
        "colony_quadratic_1d.txt", colony(lambda pos: -((pos[0] - 0.3) ** 2), 11, 2000),
    ),
    # zero total fitness takes the uniform onlooker draw, and every source
    # stalls, so the scout fires
    "colony-flat-objective": ("colony_flat_objective.txt", colony(lambda pos: 0.0, 2, 500)),
    **{
        f"allocate-{m}-{rm}": (
            f"allocate_{m}_{rm}.txt",
            cli(f"allocate {INPUTS} --method {m} {REF_PAIR} --rate-model {rm}"),
        )
        for m in ("efopa", "grpa", "ngdpa") for rm in RATE_MODELS
    },
    # orthogonal access has no rate-model choice
    **{
        f"allocate-oma-{rm}": (
            "allocate_oma.txt",
            cli(f"allocate {INPUTS} --method oma {REF_PAIR} --rate-model {rm}"),
        )
        for rm in RATE_MODELS
    },
    # paper-repro prints rate2_bps = inf and sum_rate_bps = inf here
    **{
        f"allocate-efopa-{rm}-clamped": (
            f"allocate_efopa_{rm}_clamped.txt",
            cli(f"allocate {INPUTS} --method efopa {CLAMPED_PAIR} --rate-model {rm}"),
        )
        for rm in RATE_MODELS
    },
    **{
        f"sweep-{rm}": (
            f"sweep_{rm}.csv",
            cli(f"sweep {INPUTS} --rate-model {rm} --out {{work}}/sweep_{rm}.csv", "--out"),
        )
        for rm in RATE_MODELS
    },
    **{
        f"pairs-stats-{rm}": (
            f"pairs_stats_{rm}.txt",
            cli(f"{PAIRS_STATS} --rate-model {rm} --out {{work}}/pairs_{rm}.txt", "--out"),
        )
        for rm in RATE_MODELS
    },
    "walk": ("walk.csv", cli(f"walk {INPUTS} --out {{work}}/walk.csv", "--out")),
    # the flags the cases above leave at their defaults, and the commands
    # run without --rate-model: allocate, walk and pairs-stats then take
    # the config's noma.rate_model, sweep its own default, shannon
    "derive-flags-model": ("derive_flags_model.txt", cli(DERIVE_FLAGS, "--out-model")),
    "derive-flags-dataset": ("derive_flags_dataset.csv", cli(DERIVE_FLAGS, "--out-dataset")),
    "reference-model-flags": ("reference_model_flags.txt", cli(
        "reference-model --mu-mode paper-example --clamp-floor 0.01"
        " --out {work}/model_flags.txt", "--out",
    )),
    "allocate-flags": ("allocate_flags.txt", cli(
        f"allocate {INPUTS} --method efopa {REF_PAIR} --mu-mode paper-example --p-max 8.1"
        " --rate-model shannon"
    )),
    "allocate-config-rate-model": ("allocate_grpa_lower-bound.txt", allocate_config_rate_model),
    "walk-flags": ("walk_flags.csv", cli(
        f"walk {INPUTS} --mu-mode paper-example --rate-model shannon --out {{work}}/walk_flags.csv",
        "--out",
    )),
    "sweep-flags": ("sweep_flags.csv", cli(
        f"sweep {INPUTS} --h1 1.5e-4 --methods grpa,oma --r-min 0.05 --r-max 0.5 --r-step 0.05"
        " --rate-model lower-bound --out {work}/sweep_flags.csv", "--out",
    )),
    "sweep-default-rate-model": (
        "sweep_shannon.csv", cli(f"sweep {INPUTS} --out {{work}}/sweep_default.csv", "--out"),
    ),
    "pairs-stats-flags": (
        "pairs_stats_flags.txt",
        cli(f"{PAIRS_STATS} --subsample 200 --seed 3 --rate-model shannon"),
    ),
    "pairs-stats-default-rate-model": (
        "pairs_stats_paper-repro.txt",
        cli(f"{PAIRS_STATS} --out {{work}}/pairs_default.txt", "--out"),
    ),
}


def golden_files() -> set:
    """Every file under ``tests/golden/``, as a path relative to it."""
    return {p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file()}
