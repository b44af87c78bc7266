import math
from dataclasses import replace

import numpy as np
import pytest

import pumplimit.scheme
from pumplimit import (
    BadParameterError,
    SchemeParams,
    build_density_matrix,
    build_density_matrix_oracle,
    canonical_pump,
    concurrence,
    is_two_d,
    transform_fields,
)
from pumplimit.errors import InvalidDensityMatrixError, NotPSDError
from pumplimit.linalg import dagger
from pumplimit.scheme import _density_stack, _spectrum_stack, _validate_built
from pumplimit.sweep import COLUMNS, SweepConfig, _draw_columns, _evaluate, saturating_config
from pumplimit.twoqubit import _PPT_ABOVE, _concurrence_from_s, _ppt_det_stack, _wootters_stack
from oracles import (
    density_elements,
    partial_transpose_second,
    random_density,
    source_concurrence_mp,
    source_spectrum_mp,
)


def params_with(**overrides):
    base = dict(t=0.5, theta1=0.1, theta2=0.2, alpha1=0.3, alpha2=0.4,
                mu=0.5, gamma0=0.6, pump_p=0.7)
    base.update(overrides)
    return SchemeParams(**base)


def random_params(rng):
    return SchemeParams(
        t=float(rng.uniform()),
        theta1=float(rng.uniform(0.0, math.pi)),
        theta2=float(rng.uniform(0.0, math.pi)),
        alpha1=float(rng.uniform(0.0, 2.0 * math.pi)),
        alpha2=float(rng.uniform(0.0, 2.0 * math.pi)),
        mu=float(rng.uniform()),
        gamma0=float(rng.uniform(0.0, 2.0 * math.pi)),
        pump_p=float(rng.uniform()),
    )


@pytest.mark.parametrize("field,value", [("t", 1.5), ("t", -0.1), ("mu", 2.0),
                                         ("pump_p", -0.5), ("theta1", math.nan),
                                         ("t", None), ("theta1", "x"), ("t", True),
                                         ("mu", np.True_), ("theta2", False)])
def test_params_validation(field, value):
    with pytest.raises(BadParameterError):
        params_with(**{field: value})


def test_transform_identity_optics():
    p = params_with(t=1.0, theta1=0.0, alpha1=0.0)
    np.testing.assert_allclose(transform_fields(p, 1), np.eye(2), atol=1e-15)


def test_transform_dark_arm():
    p = params_with(t=1.0)
    np.testing.assert_allclose(transform_fields(p, 2), np.zeros((2, 2)), atol=0.0)


def test_transform_quarter_turn():
    p = params_with(t=0.5, theta1=math.pi / 2.0, alpha1=0.0)
    expected = np.sqrt(0.5) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(transform_fields(p, 1), expected, atol=1e-15)


def test_transform_rejects_bad_arm():
    # a bool, or a float equal to 1 or 2, is not an arm: the package reads no bool as a number
    for arm in (3, 0, True, np.bool_(True), 1.0, 2.0, "1"):
        with pytest.raises(BadParameterError, match="arm must be 1 or 2"):
            transform_fields(params_with(), arm)


def test_transform_takes_a_numpy_integer_arm():
    p = params_with(t=0.3)
    for arm in (1, 2):
        np.testing.assert_array_equal(transform_fields(p, np.int64(arm)), transform_fields(p, arm))


def test_transform_is_scaled_unitary():
    rng = np.random.default_rng(51)
    for _ in range(200):
        p = random_params(rng)
        for arm, weight in ((1, p.t), (2, 1.0 - p.t)):
            c = transform_fields(p, arm)
            assert np.max(np.abs(c.conj().T @ c - weight * np.eye(2))) <= 1e-12


def test_full_transmission_gives_two_level_state():
    rng = np.random.default_rng(52)
    for _ in range(100):
        p = random_params(rng)
        p = replace(p, t=1.0)
        rho = build_density_matrix(p)
        outside = rho.copy()
        outside[np.ix_((0, 3), (0, 3))] = 0.0
        assert np.max(np.abs(outside)) == 0.0
        assert is_two_d(rho)


def test_fully_incoherent_unpolarized_gives_maximally_mixed():
    p = params_with(t=0.5, mu=0.0, pump_p=0.0)
    rho = build_density_matrix(p)
    np.testing.assert_allclose(rho, np.eye(4) / 4.0, atol=1e-15)


def test_saturating_setting_reaches_general_bound():
    for pump_p in (0.0, 0.25, 0.5, 1.0):
        p = SchemeParams(t=0.5, theta1=-math.pi / 4.0, theta2=0.0,
                         alpha1=math.pi / 2.0, alpha2=math.pi,
                         mu=1.0, gamma0=0.0, pump_p=pump_p)
        rho = build_density_matrix(p)
        assert abs(concurrence(rho) - (1.0 + pump_p) / 2.0) <= 1e-9


def test_oracle_agrees_with_element_formulas():
    rng = np.random.default_rng(53)
    uniform = [random_params(rng) for _ in range(2000)]
    # near the bound: 1-P and 1-mu log-uniform in [1e-12, 1e-3]
    near = [
        replace(random_params(rng), pump_p=1.0 - 10.0 ** rng.uniform(-12.0, -3.0),
                mu=1.0 - 10.0 ** rng.uniform(-12.0, -3.0))
        for _ in range(500)
    ]
    worst = 0.0
    for p in uniform + near:
        factor = build_density_matrix(p)
        oracle = build_density_matrix_oracle(p)
        elements = density_elements(p)
        for a, b in ((factor, oracle), (factor, elements), (oracle, elements)):
            worst = max(worst, np.max(np.abs(a - b)))
    assert worst <= 1e-12


def test_scalar_factor_is_the_stack_kernel_row():
    columns = _draw_columns(SweepConfig(n_samples=2048, seed=11), 0, 2048)
    stack = _density_stack(*columns.T)
    for i, row in enumerate(columns):
        p = SchemeParams(**dict(zip(COLUMNS, row.tolist())))
        assert _density_stack(**vars(p)).tobytes() == stack[i].tobytes(), i


def test_built_states_are_physical():
    rng = np.random.default_rng(54)
    for _ in range(500):
        rho = build_density_matrix(random_params(rng))
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def _factors(seed, n):
    rng = np.random.default_rng(seed)
    return np.array([_density_stack(**vars(random_params(rng))) for _ in range(n)])


def test_built_state_gate_keeps_failing_position():
    stack = _factors(53, 5)
    _validate_built(stack)
    stack[3] *= 2.0
    with pytest.raises(InvalidDensityMatrixError, match="^trace 4 is not 1") as info:
        _validate_built(stack)
    assert info.value.index == 3
    stack = _factors(53, 5)
    stack[2, 1, 3] = complex(0.0, np.nan)
    with pytest.raises(InvalidDensityMatrixError, match="^trace nan is not 1") as info:
        _validate_built(stack)
    assert info.value.index == 2
    with pytest.raises(InvalidDensityMatrixError, match="^trace 4 is not 1") as info:
        _validate_built(np.eye(4, dtype=complex))
    assert info.value.index == 0


def test_factor_gate_takes_stacks_of_any_leading_shape():
    stack = _factors(57, 6).reshape(2, 3, 4, 4)
    _validate_built(stack)
    stack[1, 2, 0, 0] = np.inf
    with pytest.raises(InvalidDensityMatrixError, match="^trace inf is not 1") as info:
        _validate_built(stack)
    assert info.value.index == 5


def test_builder_gates_its_factor_once_and_runs_no_eigensolver(monkeypatch):
    seen = []
    gate = pumplimit.scheme._validate_built
    monkeypatch.setattr(pumplimit.scheme, "_validate_built", lambda g: seen.append(g.copy()) or gate(g))

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    p = params_with()
    rho = build_density_matrix(p)
    g = _density_stack(**vars(p))
    assert len(seen) == 1 and seen[0].tobytes() == g.tobytes()
    assert rho.tobytes() == (g @ dagger(g)).tobytes()


def test_oracle_refuses_a_planted_bad_state(monkeypatch):
    arms = pumplimit.scheme.transform_fields
    monkeypatch.setattr(pumplimit.scheme, "transform_fields", lambda params, arm: 2.0 * arms(params, arm))
    with pytest.raises(InvalidDensityMatrixError, match="^trace 4 is not 1"):
        build_density_matrix_oracle(params_with())
    monkeypatch.undo()
    monkeypatch.setattr(pumplimit.scheme, "canonical_pump", lambda p: np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(NotPSDError, match="^negative eigenvalue"):
        build_density_matrix_oracle(params_with())


def test_general_bound_over_random_settings():
    rng = np.random.default_rng(55)
    for _ in range(500):
        p = random_params(rng)
        assert concurrence(build_density_matrix(p)) <= (1.0 + p.pump_p) / 2.0 + 1e-9


def test_two_level_bound_at_full_transmission():
    rng = np.random.default_rng(56)
    for _ in range(500):
        p = random_params(rng)
        p = replace(p, t=1.0)
        rho = build_density_matrix(p)
        assert concurrence(rho) <= p.pump_p + 1e-9


def test_coherence_helps_at_the_saturating_setting():
    for pump_p in (0.0, 0.5, 1.0):
        base = dict(t=0.5, theta1=-math.pi / 4.0, theta2=0.0,
                    alpha1=math.pi / 2.0, alpha2=math.pi, gamma0=0.0, pump_p=pump_p)
        coherent = concurrence(build_density_matrix(SchemeParams(mu=1.0, **base)))
        incoherent = concurrence(build_density_matrix(SchemeParams(mu=0.0, **base)))
        assert coherent >= incoherent


def test_identical_coherent_arms_give_rank_two_state():
    rng = np.random.default_rng(57)
    for _ in range(100):
        theta = float(rng.uniform(0.0, math.pi))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        p = SchemeParams(t=0.5, theta1=theta, theta2=theta, alpha1=alpha, alpha2=alpha,
                         mu=1.0, gamma0=0.0, pump_p=float(rng.uniform()))
        spectrum = np.sort(np.linalg.eigvalsh(build_density_matrix_oracle(p)))[::-1]
        assert np.max(np.abs(spectrum[2:])) <= 1e-10


def test_oracle_accepts_general_pump():
    rng = np.random.default_rng(58)
    p = params_with()
    np.testing.assert_allclose(
        build_density_matrix_oracle(p),
        build_density_matrix_oracle(p, pump=canonical_pump(p.pump_p)),
        atol=0.0,
    )
    for _ in range(50):
        rho = build_density_matrix_oracle(params_with(), pump=random_density(rng, 2))
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def _near_rank_deficient_settings():
    """Settings with 1-P and 1-mu log-uniform in [1e-12, 1e-3], and the saturating ones."""
    rng = np.random.default_rng(59)
    settings = []
    for _ in range(57):
        near = 10.0 ** rng.uniform(-12.0, -3.0, size=2)
        settings.append(replace(random_params(rng), pump_p=1.0 - near[0], mu=1.0 - near[1]))
    return settings + [saturating_config(pump_p)[0] for pump_p in (0.0, 0.3, 1.0)]


def test_concurrence_of_near_rank_deficient_states_is_exact():
    settings = _near_rank_deficient_settings()
    reference = np.array([source_concurrence_mp(p) for p in settings])
    columns = [np.array([getattr(p, name) for p in settings]) for name in COLUMNS]
    s = _wootters_stack(_density_stack(*columns))
    sweep_error = np.abs(_concurrence_from_s(*s.T) - reference)
    scalar = np.array([concurrence(build_density_matrix(p)) for p in settings])
    scalar_error = np.abs(scalar - reference)
    assert sweep_error.max() <= 1e-14, settings[int(np.argmax(sweep_error))]
    assert scalar_error.max() <= 1e-14, settings[int(np.argmax(scalar_error))]


@pytest.mark.parametrize("mode", ["general", "two_d"])
def test_partial_transpose_determinant_matches_lu(mode):
    g = _density_stack(*_draw_columns(SweepConfig(n_samples=2048, seed=67, mode=mode), 0, 2048).T)
    solved = np.linalg.det(partial_transpose_second(g @ dagger(g)))
    assert np.abs(solved.imag).max() <= 1e-15
    assert np.abs(_ppt_det_stack(g) - solved.real).max() <= 1e-15


def test_two_level_partial_transpose_determinant_is_never_positive():
    # on span{HH, VV}: det rho^{T_B} = -rho_HH,HH rho_VV,VV |rho_HH,VV|^2
    g = _density_stack(*_draw_columns(SweepConfig(n_samples=2048, seed=68, mode="two_d"), 0, 2048).T)
    rho = g @ dagger(g)
    det = _ppt_det_stack(g)
    assert (det <= 0.0).all()
    exact = -rho[:, 0, 0].real * rho[:, 3, 3].real * np.abs(rho[:, 0, 3]) ** 2
    assert np.abs(det - exact).max() <= 1e-15


def _nearest_the_ppt_boundary(columns, count):
    """Settings of the ``count`` rows of smallest positive and of largest negative determinant, and the determinants."""
    det = _ppt_det_stack(_density_stack(*columns.T))
    positive = np.argsort(np.where(det > 0.0, det, np.inf))[:count]
    negative = np.argsort(np.where(det < 0.0, -det, np.inf))[:count]
    rows = [i for i in np.concatenate((positive, negative)) if np.isfinite(det[i])]
    return [SchemeParams(**dict(zip(COLUMNS, columns[i].tolist()))) for i in rows], det[rows]


def test_partial_transpose_determinant_sign_matches_fifty_digit_concurrence():
    uniform = _draw_columns(SweepConfig(n_samples=2048, seed=69), 0, 2048)
    # near the bound, 1-P and 1-mu log-uniform in [1e-12, 1e-3], every state is entangled
    near = _draw_columns(SweepConfig(n_samples=2048, seed=70), 0, 2048)
    edge = 1.0 - 10.0 ** np.random.default_rng(70).uniform(-12.0, -3.0, size=(2, 2048))
    near[:, COLUMNS.index("pump_p")], near[:, COLUMNS.index("mu")] = edge
    settings, det = _nearest_the_ppt_boundary(uniform, 4)
    more, more_det = _nearest_the_ppt_boundary(near, 4)
    settings, det = settings + more, np.concatenate((det, more_det))
    reference = np.array([source_concurrence_mp(p) for p in settings])
    assert np.count_nonzero(det > 0.0) == 4
    assert (np.abs(det) > _PPT_ABOVE).all()  # so the sweep's skip follows the sign
    assert ((reference > 0.0) == (det < 0.0)).all(), settings


def test_two_level_concurrence_closed_form():
    _, values = _evaluate(SweepConfig(n_samples=4096, seed=60, mode="two_d"), 0, 4096)
    pump_p, theta1, alpha1 = (
        values[:, COLUMNS.index(name)] for name in ("pump_p", "theta1", "alpha1")
    )
    exact = pump_p * np.sqrt(np.cos(alpha1) ** 2 * np.cos(2.0 * theta1) ** 2 + np.sin(alpha1) ** 2)
    conc = values[:, len(COLUMNS)]  # the column after the settings
    assert np.max(np.abs(conc - exact)) <= 1e-14
    # at alpha1 = pi/2 the two-level bound C <= P is reached for every theta1
    for theta1 in (0.0, 0.3, math.pi / 4.0, 1.0, 2.5):
        for pump_p in (0.0, 0.37, 0.8, 1.0):
            p = params_with(t=1.0, theta1=theta1, alpha1=math.pi / 2.0, pump_p=pump_p)
            assert concurrence(build_density_matrix(p)) == pytest.approx(pump_p, abs=1e-15)


def _spectrum_error(columns):
    """Largest distance of the closed-form spectra from ``eigvalsh`` of the built ``G G^dag``."""
    pump_p, t, mu = (columns[COLUMNS.index(name)] for name in ("pump_p", "t", "mu"))
    g = _density_stack(*columns)
    solved = np.linalg.eigvalsh(g @ dagger(g))[..., ::-1]
    return np.abs(_spectrum_stack(pump_p, t, mu) - solved).max()


@pytest.mark.parametrize("mode", ["general", "two_d"])
def test_closed_form_spectrum_matches_eigensolver(mode):
    columns = _draw_columns(SweepConfig(n_samples=2048, seed=61, mode=mode), 0, 2048)
    assert _spectrum_error(columns.T) <= 1e-14


def test_closed_form_spectrum_matches_eigensolver_at_the_edges():
    # 1 - P and 1 - mu log-uniform in [1e-12, 1e-3], on five beam-splitter ratios
    near = 1.0 - 10.0 ** np.random.default_rng(62).uniform(-12.0, -3.0, size=(2, 64))
    t = np.array([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0])[:, None]
    columns = [np.broadcast_to(c, (5, 64)) for c in _draw_columns(SweepConfig(64, seed=62), 0, 64).T]
    columns[COLUMNS.index("pump_p")], columns[COLUMNS.index("mu")] = near
    columns[COLUMNS.index("t")] = t
    assert _spectrum_error(columns) <= 1e-14


def test_closed_form_spectrum_matches_fifty_digit_reference():
    rng = np.random.default_rng(63)
    settings = [random_params(rng) for _ in range(20)]
    # t near 1/2 with mu near 0 is where a discriminant written 1 - 4 det cancels
    settings += [replace(p, t=0.5, mu=mu) for p, mu in zip(settings[:6], (0.0, 1e-12, 1e-9, 1e-5, 1e-3, 0.1))]
    settings += [replace(p, t=0.5 + d) for p, d in zip(settings[6:10], (1e-15, -1e-12, 1e-9, -1e-6))]
    settings += _near_rank_deficient_settings()[:7]
    settings += [replace(p, t=t) for p, t in zip(settings[10:13], (0.0, 1e-12, 1.0))]
    reference = np.array([source_spectrum_mp(p) for p in settings])
    columns = (np.array([getattr(p, name) for p in settings]) for name in ("pump_p", "t", "mu"))
    error = np.abs(_spectrum_stack(*columns) - reference).max(axis=-1)
    assert error.max() <= 1e-15, settings[int(np.argmax(error))]
