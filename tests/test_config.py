"""The config rule of ``edgrow._config`` knows the annotation of every
parameter it binds, in every block it binds."""

import inspect
import typing

import pytest

from edgrow import cli, diagnostics, dynamics, kernels
from edgrow._config import ConfigError, bind, judge

# Each target the rule binds, with the parameters the run supplies itself.
TARGETS = {
    **{f"kernel-{family}": (target, ()) for family, target in kernels._FAMILIES.items()},
    "integrator": (dynamics.IntegratorConfig, ()),
    "analysis": (diagnostics.AnalysisConfig, ()),
    **{f"state-{kind}": (target, cli._SUPPLIED) for kind, target in cli._STATES.items()},
    "weights-tails": (cli._tails, ()),
    "top-level": (cli._TopLevel, ()),
    "checkpoint": (dynamics._Checkpoint, ()),
    "controller": (dynamics._Controller, ()),
}


@pytest.mark.parametrize("target, supplied", TARGETS.values(), ids=TARGETS)
def test_every_bound_parameter_has_an_annotation_the_rule_knows(target, supplied):
    # A parameter without one would be a KeyError (exit 1), not exit 64.
    hints = typing.get_type_hints(target)
    for name in inspect.signature(target).parameters:
        if name not in supplied:
            assert name in hints, f"{target.__name__} parameter {name!r} has no annotation"
            judge(None, hints[name])  # an annotation without a rule is a TypeError


def test_an_annotation_without_a_rule_is_a_type_error():
    with pytest.raises(TypeError, match="no rule"):
        judge(1.0, complex)


@pytest.mark.parametrize(
    "hint, fits, misfits",
    [
        (float, [0, 0.5, 1e308], [True, "0.5", float("nan"), float("inf"), -1.0, 10**400, None]),
        (int, [0, 7], [True, 1.0, "1", None]),
        (bool, [True, False], [0, "false", None]),
        (typing.Optional[float], [None, 2.5], [True, "x"]),
        (typing.Union[str, float], ["k^2", 3, 0.5], [True, None, float("nan"), -2.0]),
        (list[float], [[], [0.5, 1]], [[True], ["0.5"], 0.5, (0.5,)]),
        (list[str], [["0.5"]], [[0.5], [None]]),
        (typing.Literal["rkf45", "rodas4"], ["rodas4"], ["rk4", 1, None]),
        (dict, [{}], [[], None]),
    ],
)
def test_rule_per_annotation(hint, fits, misfits):
    assert all(judge(value, hint)[0] for value in fits)
    assert not any(judge(value, hint)[0] for value in misfits)


def test_bind_names_the_block_and_key():
    with pytest.raises(ConfigError, match=r"analysis key 'low_band' is True; analysis\.low_band must be an integer >= 0"):
        bind("analysis", {"low_band": True}, diagnostics.AnalysisConfig)
    with pytest.raises(ConfigError, match=r"integrator needs key 't_end' for IntegratorConfig"):
        bind("integrator", {}, dynamics.IntegratorConfig)
    with pytest.raises(ConfigError, match=r"integrator must be a JSON object with keys from \[.*'t_end'\]"):
        bind("integrator", 5, dynamics.IntegratorConfig)
