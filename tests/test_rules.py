"""Value rules: the wording of ``rules.check``, and every site that calls it."""

from pathlib import Path

import pytest

from vlcfair.allocate import (
    EfopaModel,
    TwoUserInstance,
    dataset_pairs,
    efopa_allocate,
    grpa_allocate,
    oma_allocate,
)
from vlcfair.channel import ChannelGrid, ChannelSet, VlcParams
from vlcfair.cli import main
from vlcfair.rates import NoiseModel, UserLink, rate_oma
from vlcfair.reference import REFERENCE_COEFFICIENTS, reference_model
from vlcfair.rules import POSITIVE, at_least, check

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")

# the text of a rule -> (the rule, a finite value it refuses)
RULES = {"> 0": (POSITIVE, 0.0), ">= 0": (at_least(0), -1.0), ">= 1": (at_least(1), 0.5)}
NOT_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("text", RULES)
def test_check_wording(text):
    rule, refused = RULES[text]
    for value in (*NOT_FINITE, refused):
        with pytest.raises(ValueError) as info:
            check("x", value, rule)
        assert str(info.value) == f"x must be finite and {text}, got {value}"
    assert check("x", 2.0, rule) == 2.0


def test_check_defaults_to_positive():
    assert check("x", 1e-300) == 1e-300
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got -0.0$"):
        check("x", -0.0)


def _model(**given):
    fields = dict(coefficients=REFERENCE_COEFFICIENTS, h_ref=1e-4, p_ref=22.5, h0=5e-5)
    return EfopaModel(**{**fields, **given})


def _params(**given):
    fields = dict(pd_area=1e-4, refractive_index=1.5, filter_gain=1.0, fov=1.0, semi_angle=1.0)
    return VlcParams(**{**fields, **given})


def _instance(**given):
    fields = dict(h_strong=1e-4, h_weak=1e-5, p_max=22.5, bandwidth=3e7, noise_variance=3e-12)
    return TwoUserInstance(**{**fields, **given})


ALLOCATE = ["allocate", "--config", CONFIG, "--method", "grpa"]
DERIVE = ["derive", "--config", CONFIG, "--out-model", "m.txt", "--out-dataset", "d.csv"]

# site -> (the call with the value, or the CLI's argv, the name its
# message gives, the rule's text)
SITES = {
    "EfopaModel.h_ref": (lambda v: _model(h_ref=v), "h_ref", "> 0"),
    "EfopaModel.p_ref": (lambda v: _model(p_ref=v), "p_ref", "> 0"),
    "EfopaModel.h0": (lambda v: _model(h0=v), "h0", "> 0"),
    "EfopaModel.clamp_floor": (lambda v: _model(clamp_floor=v), "clamp_floor", ">= 0"),
    "TwoUserInstance.p_max": (lambda v: _instance(p_max=v), "p_max", "> 0"),
    "TwoUserInstance.bandwidth": (lambda v: _instance(bandwidth=v), "bandwidth", "> 0"),
    "TwoUserInstance.noise_variance": (
        lambda v: _instance(noise_variance=v), "noise_variance", "> 0"),
    "dataset_pairs.h1": (
        lambda v: dataset_pairs(v, ChannelSet(gains=(1e-5,), combo_count=1, mean_gain=1e-5)),
        "h1", "> 0"),
    "efopa_allocate.p_new": (
        lambda v: efopa_allocate(reference_model(), 1e-4, 1e-5, v), "p_max", "> 0"),
    "grpa_allocate.p_max": (lambda v: grpa_allocate(1e-4, 1e-5, v), "p_max", "> 0"),
    "oma_allocate.p_max": (lambda v: oma_allocate(v, 2), "p_max", "> 0"),
    "UserLink.gain": (lambda v: UserLink(gain=v, bandwidth=3e7), "gain", "> 0"),
    "UserLink.bandwidth": (lambda v: UserLink(gain=1e-4, bandwidth=v), "bandwidth", "> 0"),
    "NoiseModel.variance": (lambda v: NoiseModel(v), "variance", "> 0"),
    "rate_oma.power": (
        lambda v: rate_oma(UserLink(1e-4, 3e7), v, 2, NoiseModel(3e-12)), "power", ">= 0"),
    "VlcParams.pd_area": (lambda v: _params(pd_area=v), "pd_area", "> 0"),
    "VlcParams.refractive_index": (
        lambda v: _params(refractive_index=v), "refractive_index", ">= 1"),
    "VlcParams.filter_gain": (lambda v: _params(filter_gain=v), "filter_gain", "> 0"),
    "ChannelGrid.dedup_resolution": (
        lambda v: ChannelGrid(distances=(1.0,), angles=(0.5,), dedup_resolution=v),
        "dedup_resolution", ">= 0"),
    "allocate --h1": (ALLOCATE + ["--h1={value}", "--h2", "1e-5"], "--h1", "> 0"),
    "allocate --h2": (ALLOCATE + ["--h1", "1e-4", "--h2={value}"], "--h2", "> 0"),
    "derive --clamp-floor": (DERIVE + ["--clamp-floor={value}"], "clamp_floor", ">= 0"),
}  # fmt: skip


def _refusal(call, value, capsys) -> str:
    """The message with which ``call`` refuses ``value``: its ValueError's,
    or for an argv the CLI's one ``error:`` line."""
    if isinstance(call, list):
        assert main([arg.format(value=value) for arg in call]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err[len("error: "):-1]
    with pytest.raises(ValueError) as info:
        call(value)
    return str(info.value)


@pytest.mark.parametrize("site", SITES)
def test_site_refuses_with_the_rule_of_its_value(site, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # derive would write here if it got past its flags
    call, name, text = SITES[site]
    for value in (*NOT_FINITE, RULES[text][1]):
        message = _refusal(call, value, capsys)
        assert message == f"{name} must be finite and {text}, got {value}"
    assert not list(tmp_path.iterdir())
