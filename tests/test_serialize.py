import json

import numpy as np
import pytest

from pumplimit import (
    BadParameterError,
    KrausChannel,
    SchemeParams,
    channel_from_json,
    channel_to_json,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    save_matrix,
)
from oracles import random_density


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(61)
    for dim in (2, 4):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        obj = json.loads(json.dumps(matrix_to_json(m)))
        np.testing.assert_array_equal(matrix_from_json(obj), m)


def test_matrix_file_round_trip(tmp_path):
    m = random_density(np.random.default_rng(62), 4)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    np.testing.assert_array_equal(load_matrix(path), m)


@pytest.mark.parametrize(
    "obj",
    [
        {"re": [[1.0]], "im": [[0.0]]},                               # missing dim
        {"dim": 3, "re": [[0.0] * 3] * 3, "im": [[0.0] * 3] * 3},     # unsupported dim
        {"dim": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]},           # ragged shape
        {"dim": 4.7, "re": [[0.0] * 4] * 4, "im": [[0.0] * 4] * 4},   # non-integer dim
        {"dim": "4", "re": [[0.0] * 4] * 4, "im": [[0.0] * 4] * 4},   # dim as a string
        "not an object",
        {"dim": 2, "re": [["0.5", "0"], [True, "0.5"]], "im": [[0, 0], [0, 0]]},  # strings, bool
        {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, False], [0, 0]]},      # a bool
        {"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, None], [0, 0]]},       # null
    ],
)
def test_matrix_from_json_rejects(obj):
    with pytest.raises(BadParameterError):
        matrix_from_json(obj)


def test_channel_round_trip():
    ch = KrausChannel(
        operators=(np.sqrt(0.25) * np.eye(4), np.sqrt(0.75) * np.eye(4)),
        labels=("a", "b"),
    )
    obj = json.loads(json.dumps(channel_to_json(ch)))
    back = channel_from_json(obj)
    assert back.labels == ("a", "b")
    for x, y in zip(back.operators, ch.operators):
        np.testing.assert_array_equal(x, y)


def test_channel_from_json_rejects_empty():
    with pytest.raises(BadParameterError):
        channel_from_json({"operators": []})
    with pytest.raises(BadParameterError):
        channel_from_json({})


def test_params_round_trip():
    params = SchemeParams(t=0.5, theta1=-0.25, theta2=0.0, alpha1=1.0,
                          alpha2=2.0, mu=1.0, gamma0=0.125, pump_p=0.75)
    obj = json.loads(json.dumps(params_to_json(params)))
    assert params_from_json(obj) == params
    assert set(obj) == {"t", "theta1", "theta2", "alpha1", "alpha2", "mu", "gamma0", "pump_p"}


def test_params_from_json_rejects_bad_keys():
    good = params_to_json(SchemeParams(t=0.5, theta1=0.0, theta2=0.0, alpha1=0.0,
                                       alpha2=0.0, mu=1.0, gamma0=0.0, pump_p=0.5))
    missing = dict(good)
    del missing["mu"]
    with pytest.raises(BadParameterError):
        params_from_json(missing)
    extra = dict(good)
    extra["phi"] = 1.0
    with pytest.raises(BadParameterError):
        params_from_json(extra)
    with pytest.raises(BadParameterError):
        params_from_json([])


def test_params_from_json_refuses_bools_and_reads_numeric_strings():
    obj = params_to_json(SchemeParams(t=0.5, theta1=0.0, theta2=0.0, alpha1=0.0,
                                      alpha2=0.0, mu=1.0, gamma0=0.0, pump_p=0.5))
    with pytest.raises(BadParameterError, match="t must be a number, got True"):
        params_from_json(dict(obj, t=True))
    assert params_from_json(dict(obj, theta1="0.5", t=1)).theta1 == 0.5


def test_params_from_json_rejects_non_numeric_value():
    obj = params_to_json(SchemeParams(t=0.5, theta1=0.0, theta2=0.0, alpha1=0.0,
                                      alpha2=0.0, mu=1.0, gamma0=0.0, pump_p=0.5))
    obj["mu"] = "high"
    with pytest.raises(BadParameterError, match="mu must be a number, got 'high'"):
        params_from_json(obj)
