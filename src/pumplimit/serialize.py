"""JSON interchange for matrices, channels and source settings.

Matrix format, used everywhere a 2x2 or 4x4 complex matrix crosses a file
boundary::

    {"dim": 4, "re": [[...], ...], "im": [[...], ...]}

with row-major real and imaginary parts as decimal numbers.  Channels are
``{"operators": [<matrix>, ...], "labels": [...]}`` (labels optional) and
source settings use the flat key set of :data:`pumplimit.scheme.PARAM_FIELDS`.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel
from .errors import BadParameterError
from .linalg import SUPPORTED_DIMS, as_matrix
from .scheme import PARAM_FIELDS, SchemeParams


def matrix_to_json(m) -> dict:
    """Matrix as a JSON-ready dict."""
    a = as_matrix(m)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Matrix from its JSON dict; checks shape consistency."""
    if not isinstance(obj, dict):
        raise BadParameterError(f"expected a matrix object, got {type(obj).__name__}")
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameterError(f"malformed matrix object: {exc}") from exc
    if dim not in SUPPORTED_DIMS:
        raise BadParameterError(f"unsupported dim {dim}, expected one of {SUPPORTED_DIMS}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise BadParameterError(
            f"matrix parts must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def _read_json(path):
    with open(path, "r", encoding="ascii") as handle:
        return json.load(handle)


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
    labels = obj.get("labels")
    return KrausChannel(operators=operators, labels=tuple(labels) if labels else None)


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
    try:
        values = {name: float(obj[name]) for name in PARAM_FIELDS}
    except (TypeError, ValueError) as exc:
        raise BadParameterError(f"non-numeric parameter value: {exc}") from exc
    return SchemeParams(**values)


def save_params(path, params: SchemeParams) -> None:
    _write_json(path, params_to_json(params))


def load_params(path) -> SchemeParams:
    return params_from_json(_read_json(path))
