"""The one rule for every value edgrow reads from a JSON document.

Each config block, the top-level values of a config, a checkpoint and its
controller block is bound to a target whose parameters are its keys
(:func:`bind`), and each value must fit its parameter's annotation
(:func:`judge`).  Constructors keep their own range checks (``rtol > 0``,
``phi < 1``) for direct callers.
"""

from __future__ import annotations

import collections.abc
import inspect
import sys
import typing
from typing import Any, Callable, Mapping, Sequence

__all__ = ["ConfigError", "bind", "bind_choice", "judge"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def judge(value: Any, hint: Any, least: int = 0) -> tuple:
    """Whether ``value`` fits the annotation ``hint``, and the rule in words;
    an annotation without a rule is a TypeError.  A ``float`` is a JSON
    number, not a bool or a string; an ``int`` is no less than ``least``, a
    dataclass field's metadata; a ``dict`` is bound by its reader in turn."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        verdicts = [judge(value, arg, least) for arg in args if arg is not type(None)]
        fits = any(fit for fit, _ in verdicts) or (value is None and type(None) in args)
        return fits, " or ".join(rule for _, rule in verdicts)
    if origin is typing.Literal:
        return value in args, f"one of {list(args)}"
    if origin in (list, collections.abc.Sequence):
        fits = isinstance(value, list) and all(judge(x, args[0])[0] for x in value)
        return fits, f"a list whose items are each {judge(None, args[0])[1]}"
    if hint is bool:
        return type(value) is bool, "true or false"
    if hint is int:
        return type(value) is int and value >= least, f"an integer >= {least}"
    if hint is float:
        fits = type(value) in (int, float) and 0 <= value <= sys.float_info.max
        return fits, "a finite number >= 0"
    if hint is str:
        return isinstance(value, str), "a string"
    if hint is dict:
        return isinstance(value, dict), "a JSON object"
    raise TypeError(f"no rule for the annotation {hint!r}")


def bind(block: str, spec: Any, target: Callable, supplied: Sequence[str] = ()) -> dict:
    """The document ``spec`` as keyword arguments of ``target``, whose
    parameters in ``supplied`` the run passes itself.  A document that is not
    a JSON object, an unknown or supplied key, a missing required one and a
    value that does not fit its parameter (:func:`judge`) are a ConfigError
    naming ``block`` and the key.  Values are returned as given."""
    params = inspect.signature(target).parameters
    keys = sorted(name for name in params if name not in supplied)
    if not isinstance(spec, Mapping):
        raise ConfigError(f"{block} must be a JSON object with keys from {keys}")
    for key in keys:
        if key not in spec and params[key].default is inspect.Parameter.empty:
            raise ConfigError(f"{block} needs key {key!r} for {target.__name__}")
    hints = typing.get_type_hints(target)
    least = {f.name: f.metadata.get("least", 0) for f in getattr(target, "__dataclass_fields__", {}).values()}
    for key, value in spec.items():
        if key not in keys:
            why = "is set by the run" if key in supplied else f"is not read by {target.__name__}"
            raise ConfigError(f"{block} key {key!r} {why}; choose from {keys}")
        fits, rule = judge(value, hints[key], least.get(key, 0))
        if not fits:
            raise ConfigError(f"{block} key {key!r} is {value!r}; {block}.{key} must be {rule}")
    return dict(spec)


def bind_choice(block: str, spec: Any, table: Mapping, supplied: Sequence = (), key: str = "type") -> tuple:
    """The target ``table`` holds for the block's ``key`` (a ``type`` or a
    kernel ``family``), and the block's other keys bound to it (:func:`bind`)."""
    choice = spec.get(key) if isinstance(spec, Mapping) else None
    if not isinstance(choice, str) or choice not in table:
        raise ConfigError(f"{block} needs a {key!r} from {sorted(table)}, got {spec!r}")
    target = table[choice]
    return target, bind(block, {k: v for k, v in spec.items() if k != key}, target, supplied)
