"""Configuration parsing and flat-text model persistence."""

import hashlib
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np
import pytest

from vlcfair import config, modelio
from vlcfair.allocate import EfopaModel, MuMode
from vlcfair.config import REQUIRED, ConfigError, axis, load_config, parse_config_text
from vlcfair.expfit import ExpFitCoefficients
from vlcfair.modelio import format_float, load_model, save_model
from vlcfair.reference import reference_model

PAPER_CFG = Path(__file__).resolve().parents[1] / "configs" / "paper.cfg"

GOOD = """\
room.width = 6.0
room.depth = 6.0
room.height = 3.0
room.tx_x = 3.0
room.tx_y = 3.0
room.tx_z = 3.0
optics.pd_area_m2 = 1e-4
optics.refractive_index = 1.5
optics.filter_gain = 1.0
optics.fov_deg = 60.0
optics.semi_angle_deg = 60.0
noma.p_max_w = 22.5
noma.bandwidth_hz = 3e7
noma.noise_variance_w = 3e-12
grid.d_start = 0.25
grid.d_stop = 5.0
grid.d_step = 0.25
grid.d_append = 5.196152422706632
grid.angle_start_deg = 5.0
grid.angle_stop_deg = 60.0
grid.angle_step_deg = 5.0
walk.h1 = 9.5493e-5
walk.point.a = 2.5, 1.5, 1.7
walk.point.b = 2.0, 2.5, 1.7
"""

# config files whose digest is pinned to hashlib's: the shipped one, and
# one whose comment is not ASCII
DIGESTED = {
    "paper": PAPER_CFG.read_bytes(),
    "non-ascii-comment": ("# Raumgr\u00f6\u00dfe 6 m \u00d7 6 m \u00d7 3 m\n" + GOOD).encode(),
}


class TestConfigParsing:
    def test_valid_document(self):
        cfg = parse_config_text(GOOD)
        assert cfg.p_max == 22.5
        assert len(cfg.distances) == 21
        assert cfg.distances[-1] == pytest.approx(3 * math.sqrt(3), rel=1e-12)
        assert len(cfg.angles_deg) == 12
        assert cfg.channel_grid().combo_count == 3024
        assert cfg.rate_model == "paper-repro"
        assert cfg.derive_noise_variance == cfg.noise_variance
        assert [label for label, _ in cfg.walk_points] == ["a", "b"]

    def test_unknown_key_names_line(self):
        bad = GOOD + "noma.bogus = 1\n"
        with pytest.raises(ConfigError, match=r"noma\.bogus"):
            parse_config_text(bad)

    def test_zero_fov_names_field(self):
        bad = GOOD.replace("optics.fov_deg = 60.0", "optics.fov_deg = 0.0")
        with pytest.raises(ConfigError, match="fov"):
            parse_config_text(bad)

    def test_missing_key_reported(self):
        bad = GOOD.replace("noma.p_max_w = 22.5\n", "")
        with pytest.raises(ConfigError, match=r"noma\.p_max_w"):
            parse_config_text(bad)

    def test_transmitter_outside_room(self):
        bad = GOOD.replace("room.tx_x = 3.0", "room.tx_x = 7.0")
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text(bad)

    def test_duplicate_key(self):
        bad = GOOD + "noma.p_max_w = 1.0\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(bad)

    def test_malformed_line_number(self):
        bad = "room.width\n"
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_text(bad)

    def test_bad_walk_point(self):
        bad = GOOD + "walk.point.q = 1.0, 2.0\n"
        with pytest.raises(ConfigError, match=r"walk\.point\.q"):
            parse_config_text(bad)

    def test_d_append_is_optional_but_positive_when_given(self):
        given = "grid.d_append = 5.196152422706632"
        without = parse_config_text(GOOD.replace(given + "\n", ""))
        assert without.distances == parse_config_text(GOOD).distances[:-1]
        bad = GOOD.replace(given, "grid.d_append = 0")
        with pytest.raises(ConfigError, match=r":18: grid\.d_append: must be > 0"):
            parse_config_text(bad)

    def test_angles_beyond_fov(self):
        bad = GOOD.replace("grid.angle_stop_deg = 60.0", "grid.angle_stop_deg = 70.0")
        with pytest.raises(ConfigError, match="fov"):
            parse_config_text(bad)

    def test_grid_combinations_bounded(self):
        bad = GOOD.replace("grid.angle_step_deg = 5.0", "grid.angle_step_deg = 0.5")
        message = r":21: grid\.angle_step_deg: 21 distances x 111\^2 angles = 258741 comb"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(bad)

    def test_budget_below_colony_size(self):
        bad = GOOD + "abc.food_count = 20\nabc.max_evaluations = 19\n"
        message = r":26: abc\.max_evaluations: must be >= abc\.food_count \(20\), got 19"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(bad)

    def test_digest_set_on_load(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(GOOD)
        cfg = load_config(p)
        assert len(cfg.digest) == 64

    @pytest.mark.parametrize("name", DIGESTED)
    def test_digest_is_hashlibs_sha256(self, tmp_path, name):
        p = tmp_path / "run.cfg"
        p.write_bytes(DIGESTED[name])
        assert load_config(p).digest == hashlib.sha256(DIGESTED[name]).hexdigest()

    @pytest.mark.parametrize("name", DIGESTED)
    def test_digest_without_builtin_sha256_from_hashlib(self, tmp_path, monkeypatch, name):
        # an interpreter built without _sha256 and _sha2 digests through hashlib
        data = DIGESTED[name]
        p = tmp_path / "run.cfg"
        p.write_bytes(data)
        expected = load_config(p).digest
        hashed = []
        real = hashlib.sha256

        def spy(chunk):
            hashed.append(chunk)
            return real(chunk)

        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setattr(hashlib, "sha256", spy)
        assert load_config(p).digest == expected
        assert hashed == [data]

    def test_shipped_config_loads(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")
        assert cfg.channel_grid().combo_count == 3024
        assert cfg.derive_noise_variance == pytest.approx(1.2e-11)
        assert len(cfg.walk_points) == 3


class TestAxis:
    """config.axis, the sampling rule of the grid's axes and the sweep's ratios."""

    def test_paper_axes_unchanged(self):
        # the paper grid's two axes and the sweep's default ratios, bit for bit
        assert axis(0.25, 5.0, 0.25) == [0.25 + k * 0.25 for k in range(20)]
        assert axis(5.0, 60.0, 5.0) == [5.0 + k * 5.0 for k in range(12)]
        assert axis(0.01, 1.0, 0.01) == list(0.01 + 0.01 * np.arange(100))

    @pytest.mark.parametrize(
        "start, stop, step, count, last",
        [
            # short of a step by at most 1e-9 of a step: the point is stop itself
            (0.3, 0.8999999999, 0.1, 7, 0.8999999999),
            (0.3, 0.89999999995, 0.1, 7, 0.89999999995),
            # short by more: the axis ends a step earlier
            (0.3, 0.8999999998, 0.1, 6, 0.3 + 5 * 0.1),
            (0.3, 0.89999999, 0.1, 6, 0.3 + 5 * 0.1),
            # 0.09 + 26 * 0.035 is 1.0000000000000002
            (0.09, 1.0, 0.035, 27, 1.0),
            (0.0, 1e5, 1.0, 100001, 1e5),
            (2.0, 2.0, 0.5, 1, 2.0),
        ],
    )
    def test_count_first_never_above_stop(self, start, stop, step, count, last):
        points = axis(start, stop, step)
        assert len(points) == count
        assert points[:-1] == [start + k * step for k in range(count - 1)]
        assert points[-1] == last
        assert max(points) <= stop

    @pytest.mark.parametrize(
        "start, stop, step, message",
        [
            (0.0, 1.0, 1e-300, "1e\\+300 steps from 0.0 to 1.0, more than 100000"),
            (0.0, 100001.0, 1.0, "100001 steps"),
            (-1e308, 1e308, 1.0, "inf steps"),
            (math.nan, 1.0, 0.1, "nan steps"),
            (0.0, 1.0, 0.0, "must be > 0, got 0.0"),
            (0.0, 1.0, -0.1, "must be > 0"),
            (0.0, 1.0, math.nan, "must be > 0"),
        ],
    )
    def test_refused_before_any_point(self, start, stop, step, message):
        with pytest.raises(ValueError, match=message):
            axis(start, stop, step)


class TestModelIo:
    def test_roundtrip(self, tmp_path):
        model = EfopaModel(
            coefficients=ExpFitCoefficients(0.1018, 0.01274, -0.1432, -19.04),
            h_ref=1.58288e-4,
            p_ref=22.5,
            h0=7.9144e-5,
            mu_mode=MuMode.PAPER_EXAMPLE,
            clamp_floor=0.01,
        )
        path = tmp_path / "model.txt"
        save_model(path, model, provenance={"seed": 1})
        loaded = load_model(path)
        assert loaded == model

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("a = 1.0\nb = 0.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_model(path)

    def test_unknown_mu_mode_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(
            path,
            EfopaModel(
                coefficients=ExpFitCoefficients(0.1, 0.0, -0.1, -20.0),
                h_ref=1e-4,
                p_ref=22.5,
                h0=8e-5,
            ),
        )
        text = path.read_text().replace("mu_mode = eq22", "mu_mode = nonsense")
        path.write_text(text)
        with pytest.raises(ValueError, match="mu_mode"):
            load_model(path)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_output_gets_the_mode_open_gives(self, tmp_path, umask, mode):
        # written through a temporary file, a new output and an overwritten
        # one both get 0666 less the umask, as open() gives a new file
        path = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            for text in ("first\n", "second\n"):
                modelio.atomic_write_text(path, text)
                assert stat.S_IMODE(path.stat().st_mode) == mode
        finally:
            os.umask(old)
        assert path.read_text() == "second\n"

    def test_format_float_stable(self):
        assert format_float(7.9144e-5) == "7.91440000e-05"
        assert format_float(float("inf")) == "inf"
        assert format_float(22.5) == "2.25000000e+01"


# each file format's key table, its loader and the word its errors use for a key
FORMATS = {
    "config": (config._KEYS, load_config, "key"),
    "model": (modelio._MODEL_KEYS, load_model, "model field"),
}
# one value outside each rule, by the rule's text
OUTSIDE = {"> 0": "0", ">= 0": "-1", ">= 1": "0", ">= 2": "1",
           "in (0, 90] degrees": "95", "in (0, 90) degrees": "90"}  # fmt: skip


def keys_where(test):
    """(format, key) of every key of every table whose (type, rule,
    default) passes test."""
    return [
        pytest.param(fmt, key, id=f"{fmt}-{key}")
        for fmt, (table, _, _) in FORMATS.items()
        for key, entry in table.items()
        if test(*entry)
    ]


@pytest.fixture
def good_file(tmp_path):
    """format -> the text of a file that loads: configs/paper.cfg, or the
    reference model as save_model writes it."""
    save_model(tmp_path / "ref.txt", reference_model())
    return {"config": PAPER_CFG.read_text(), "model": (tmp_path / "ref.txt").read_text()}


def load_variant(tmp_path, fmt, text):
    """Load text as a file of format fmt; returns the path it was written to
    and the error it raised."""
    path = tmp_path / f"variant.{fmt}"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        FORMATS[fmt][1](path)
    return path, str(exc.value)


def with_value(text, key, value):
    """text with key's line set to value (appended when text has none),
    and the number of that line."""
    lines = text.splitlines()
    n = next((i for i, s in enumerate(lines) if s.startswith(f"{key} = ")), len(lines))
    lines[n : n + 1] = [f"{key} = {value}"]
    return "\n".join(lines) + "\n", n + 1


class TestKeyTables:
    """Every key of the config and model tables, through the one value check."""

    @pytest.mark.parametrize("fmt, key", keys_where(lambda kind, rule, default: kind is not str))
    def test_not_a_number_named_at_its_line(self, tmp_path, good_file, fmt, key):
        text, line = with_value(good_file[fmt], key, "x")
        path, error = load_variant(tmp_path, fmt, text)
        noun = "an integer" if FORMATS[fmt][0][key][0] is int else "a number"
        assert error == f"{path}:{line}: {key}: not {noun}: 'x'"

    @pytest.mark.parametrize("fmt, key", keys_where(lambda kind, rule, default: rule))
    def test_value_outside_its_rule_refused(self, tmp_path, good_file, fmt, key):
        rule = FORMATS[fmt][0][key][1][1]
        value = "bogus" if rule.startswith("one of ") else OUTSIDE[rule]
        text, line = with_value(good_file[fmt], key, value)
        path, error = load_variant(tmp_path, fmt, text)
        assert error.startswith(f"{path}:{line}: {key}: must be {rule}, got ")

    @pytest.mark.parametrize(
        "fmt, key", keys_where(lambda kind, rule, default: default is REQUIRED)
    )
    def test_required_key_named_when_missing(self, tmp_path, good_file, fmt, key):
        lines = good_file[fmt].splitlines(keepends=True)
        text = "".join(s for s in lines if not s.startswith(f"{key} = "))
        path, error = load_variant(tmp_path, fmt, text)
        assert error == f"{path}: missing required {FORMATS[fmt][2]} {key!r}"

    def test_paper_config_matches_the_table(self):
        given = config.read_key_values(PAPER_CFG.read_text(), str(PAPER_CFG))
        assert {k for k in given if not k.startswith(config._WALK_POINT)} <= set(config._KEYS)
        required = {k for k, (_, _, default) in config._KEYS.items() if default is REQUIRED}
        assert required <= set(given)
