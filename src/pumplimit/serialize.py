"""JSON interchange for matrices, channels and source settings.

Matrix format, used everywhere a 2x2 or 4x4 complex matrix crosses a file
boundary::

    {"dim": 4, "re": [[...], ...], "im": [[...], ...]}

with row-major real and imaginary parts as decimal numbers.  Channels are
``{"operators": [<matrix>, ...], "labels": [...]}`` (labels optional) and
source settings use the flat key set of :data:`pumplimit.scheme.PARAM_FIELDS`.
Every value that stands for a number must be a JSON number, an int or a
float and not a bool; a string such as ``"0.5"`` is refused.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel
from .errors import BadConfigError, BadParameterError, _not_ascii
from .linalg import SUPPORTED_DIMS, _is_int, as_matrix
from .scheme import PARAM_FIELDS, SchemeParams


def _number(value, key: str):
    """``value`` if it is a JSON number (an int or a float, not a bool), else BadParameterError naming ``key``."""
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        raise BadParameterError(f"{key} must be a number, got {value!r}")
    return value


def matrix_to_json(m) -> dict:
    """Matrix as a JSON-ready dict."""
    a = as_matrix(m)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Matrix from its JSON dict; checks shape consistency and that every entry is a number."""
    if not isinstance(obj, dict):
        raise BadParameterError(f"expected a matrix object, got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameterError(f"malformed matrix object: {exc}") from exc
    if not _is_int(dim) or dim not in SUPPORTED_DIMS:
        raise BadParameterError(f"dim must be an integer in {SUPPORTED_DIMS}, got {dim!r}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise BadParameterError(
            f"matrix parts must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    for part in ("re", "im"):
        for entry in (x for row in obj[part] for x in row):
            _number(entry, f"{part!r} entry")
    return re + 1j * im


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def _read_json(path):
    """The JSON value in an ASCII text file; a bad byte or bad syntax raises BadConfigError naming the file."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise _not_ascii(path, exc) from None
    except json.JSONDecodeError as exc:
        raise BadConfigError(f"{path}: not valid JSON: {exc}") from None


def save_matrix(path, m) -> None:
    _write_json(path, matrix_to_json(m))


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(_read_json(path))


def channel_to_json(ch: KrausChannel) -> dict:
    obj = {"operators": [matrix_to_json(m) for m in ch.operators]}
    if ch.labels is not None:
        obj["labels"] = list(ch.labels)
    return obj


def channel_from_json(obj) -> KrausChannel:
    if not isinstance(obj, dict) or "operators" not in obj:
        raise BadParameterError("expected an object with an 'operators' array")
    ops = obj["operators"]
    if not isinstance(ops, list) or not ops:
        raise BadParameterError("'operators' must be a nonempty array")
    operators = tuple(matrix_from_json(o) for o in ops)
    return KrausChannel(operators=operators, labels=obj.get("labels"))


def save_channel(path, ch: KrausChannel) -> None:
    _write_json(path, channel_to_json(ch))


def load_channel(path) -> KrausChannel:
    return channel_from_json(_read_json(path))


def params_to_json(params: SchemeParams) -> dict:
    return {name: float(getattr(params, name)) for name in PARAM_FIELDS}


def params_from_json(obj) -> SchemeParams:
    if not isinstance(obj, dict):
        raise BadParameterError(f"expected a settings object, got {type(obj).__name__}")
    missing = [name for name in PARAM_FIELDS if name not in obj]
    if missing:
        raise BadParameterError(f"missing parameter keys: {', '.join(missing)}")
    unknown = [key for key in obj if key not in PARAM_FIELDS]
    if unknown:
        raise BadParameterError(f"unknown parameter keys: {', '.join(unknown)}")
    return SchemeParams(**{name: _number(value, name) for name, value in obj.items()})


def save_params(path, params: SchemeParams) -> None:
    _write_json(path, params_to_json(params))


def load_params(path) -> SchemeParams:
    return params_from_json(_read_json(path))
