import math
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from pumplimit import (
    BadDimensionError,
    BadParameterError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    InvalidSpectrumError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    SchemeParams,
    apply_channel,
    build_density_matrix,
    canonical_pump,
    concurrence,
    embed_pump,
    generator_from_seed,
    is_majorized_by,
    random_haar_unitary,
    random_mixed_unitary_channel,
    validate_density_matrix,
    validate_spectrum,
)
import pumplimit.linalg as linalg
from pumplimit.linalg import as_matrix, check_states
from oracles import eig2_hermitian, random_density


def test_nan_breaks_the_hermiticity_rule():
    with pytest.raises(NotHermitianError):
        check_states(np.diag([np.nan, 1.0]), vectors=True)


def test_shape_checks_reject_mismatches():
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.eye(2) / 2.0, dims=(4,))


def _nan_eigh(h, signature):
    """What a failed ``eigh_lo`` returns: NaN eigenvalues and vectors."""
    return np.full(h.shape[:-1], np.nan), np.full(h.shape, np.nan + 0j)


def _nan_values(m, signature):
    """What a failed ``eigvalsh_lo`` or ``svd`` returns: NaN values."""
    return np.full(m.shape[:-1], np.nan)


def test_eigensolver_failure_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", _nan_values)
    monkeypatch.setattr(_umath_linalg, "eigh_lo", _nan_eigh)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        validate_density_matrix(np.eye(4) / 4.0)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        check_states(np.eye(4) / 4.0, vectors=True)


def test_svd_failure_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(_umath_linalg, "svd", _nan_values)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        linalg._svdvals(np.eye(4, dtype=complex))
    with pytest.raises(NoConvergenceError, match="did not converge"):
        concurrence(np.diag([0.5, 0.0, 0.0, 0.5]))


def test_a_failed_solve_in_a_stack_is_named(monkeypatch):
    solve = _umath_linalg.eigvalsh_lo

    def fail_third(h, signature):
        w = solve(h, signature=signature)
        w[2] = np.nan
        return w

    monkeypatch.setattr(_umath_linalg, "eigvalsh_lo", fail_third)
    with pytest.raises(NoConvergenceError, match="did not converge") as info:
        check_states(np.broadcast_to(np.eye(4) / 4.0, (5, 4, 4)))
    assert info.value.index == 2


@pytest.mark.parametrize("warn", ["error", "ignore"])
def test_a_real_solver_failure_raises_no_convergence(warn):
    """NaN input, past switched-off rules, makes LAPACK fail: the gufunc
    returns NaN and sets the invalid flag, which a RuntimeWarning reports."""
    nan = np.full((4, 4), np.nan + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        for vectors in (False, True):
            with pytest.raises(NoConvergenceError, match="did not converge"):
                check_states(nan, herm_tol=math.inf, trace_tol=math.inf, vectors=vectors)
        with pytest.raises(NoConvergenceError, match="did not converge"):
            linalg._svdvals(nan)


def test_solvers_match_numpy_linalg_bit_for_bit():
    """The gufuncs give what ``numpy.linalg`` gives: a numpy that renames or changes them fails here."""
    rng = np.random.default_rng(27)
    for dim in (2, 4):
        for shape in [(dim, dim), (3, dim, dim), (2, 3, dim, dim)]:
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            rho = g @ g.conj().swapaxes(-1, -2)
            rho /= np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
            rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
            assert check_states(rho).tobytes() == np.linalg.eigvalsh(rho).tobytes()
            w, v = check_states(rho, vectors=True)
            want = np.linalg.eigh(rho)
            assert w.tobytes() == want.eigenvalues.tobytes()
            assert v.tobytes() == want.eigenvectors.tobytes()
            assert linalg._svdvals(g).tobytes() == np.linalg.svd(g, compute_uv=False).tobytes()


def test_near_bound_chains_raise_no_floating_point_warning():
    """States with 1 - P and 1 - mu in [1e-12, 1e-3], nearly rank deficient, through the scalar API."""
    rng = np.random.default_rng(2015)
    channel = random_mixed_unitary_channel(3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for near_p, near_mu in 10.0 ** rng.uniform(-12.0, -3.0, size=(200, 2)):
            settings = dict(zip(("t", "theta1", "theta2", "alpha1", "alpha2", "gamma0"), rng.random(6)))
            pump_p = 1.0 - near_p
            rho = build_density_matrix(SchemeParams(pump_p=pump_p, mu=1.0 - near_mu, **settings))
            sigma = embed_pump(canonical_pump(pump_p)).sigma
            out = apply_channel(channel, sigma)
            assert concurrence(rho) <= (1.0 + pump_p) / 2.0 + 1e-9
            assert concurrence(out) <= (1.0 + pump_p) / 2.0 + 1e-9
            assert is_majorized_by(out, sigma).holds


def test_check_states_vectors_match_2x2_closed_form():
    m = np.array([[0.5, 0.5], [0.5, 0.5]])
    w, _ = check_states(m, vectors=True)
    np.testing.assert_allclose(w[::-1], eig2_hermitian(m), atol=1e-15)
    np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-15)


def test_check_states_vectors_reconstruct_the_state():
    rng = np.random.default_rng(11)
    for _ in range(500):
        for dim in (2, 4):
            m = random_density(rng, dim)
            w, v = check_states(m, vectors=True)
            assert np.all(np.diff(w) >= 0.0)
            recon = (v * w) @ v.conj().T
            assert np.max(np.abs(recon - m)) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12


def test_haar_deterministic_per_seed():
    np.testing.assert_array_equal(random_haar_unitary(4, 7), random_haar_unitary(4, 7))
    assert np.max(np.abs(random_haar_unitary(2, 0) - random_haar_unitary(2, 1))) > 1e-3


def test_haar_unitarity():
    for dim in (2, 4):
        for seed in (0, 1, 42):
            u = random_haar_unitary(dim, seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12


def test_haar_trace_second_moment():
    # Haar average of |tr U|^2 is exactly 1
    total = 0.0
    for seed in range(10_000):
        total += abs(np.trace(random_haar_unitary(2, seed))) ** 2
    assert abs(total / 10_000 - 1.0) <= 0.05


def test_haar_rejects_bad_dim():
    with pytest.raises(BadDimensionError):
        random_haar_unitary(3, 0)


def test_generator_rejects_bad_seeds():
    with pytest.raises(BadParameterError):
        generator_from_seed(-1)
    with pytest.raises(BadParameterError):
        generator_from_seed(1.5)
    for seed in (2**128, True):
        with pytest.raises(BadParameterError):
            generator_from_seed(seed)
    assert generator_from_seed(2**128 - 1).random() == generator_from_seed(2**128 - 1).random()


def test_validate_spectrum_accepts_and_cleans():
    w = validate_spectrum([0.6, 0.4, 0.0, -1e-12])
    assert w[-1] == 0.0


@pytest.mark.parametrize(
    "values",
    [
        [0.4, 0.6, 0.0, 0.0],      # unsorted
        [0.6, 0.4, 0.0, -1e-3],    # genuinely negative
        [0.6, 0.5, 0.0, 0.0],      # sum != 1
        [1.0, 0.0, 0.0],           # wrong length
    ],
)
def test_validate_spectrum_rejects(values):
    with pytest.raises(InvalidSpectrumError):
        validate_spectrum(values)


def test_validate_spectrum_names_first_failing_spectrum():
    rules = [
        # (bad spectrum, the rule's message)
        ([0.2, 0.5, 0.2, 0.1], "^values are not sorted non-ascending$"),
        ([0.6, 0.3, 0.1001, -1e-4], "^negative weight -1.000e-04$"),
        ([0.5, 0.3, 0.2, 0.1], "^sum 1.1 is not 1 within 1.0e-10$"),
        ([0.5, 0.3, 0.2, np.nan], "^spectrum contains non-finite values$"),
    ]
    for bad, match in rules:
        with pytest.raises(InvalidSpectrumError, match=match) as info:
            validate_spectrum(bad)
        assert info.value.index == 0
        stack = np.tile([0.7, 0.2, 0.1, 0.0], (6, 1))
        for k in (2, 4):
            stack[k] = bad
        with pytest.raises(InvalidSpectrumError, match=match) as info:
            validate_spectrum(stack)
        assert info.value.index == 2
        with pytest.raises(InvalidSpectrumError, match=match) as info:
            validate_spectrum(stack.reshape(2, 3, 4))
        assert info.value.index == 2
    clean = validate_spectrum(np.tile([0.6, 0.4, 0.0, -1e-12], (3, 1)))
    assert clean.shape == (3, 4) and np.all(clean[:, -1] == 0.0)
    with pytest.raises(InvalidSpectrumError, match="^expected 4 values, got 3$"):
        validate_spectrum(np.full((6, 3), 1.0 / 3.0))


def test_check_states_names_first_failing_state():
    off_diagonal = np.diag([0.25] * 4).astype(complex)
    off_diagonal[0, 1] = 0.1
    rules = [
        # (bad state, the rule's error class, message)
        (np.diag([1.5, -0.5, 0.0, 0.0]), NotPSDError, "negative eigenvalue"),
        (off_diagonal, NotHermitianError, "not Hermitian"),
        (np.diag([np.nan, 0.0, 0.0, 1.0]), NotHermitianError, "not Hermitian"),
        (np.eye(4) / 2.0, InvalidDensityMatrixError, "trace 2 is not 1"),
    ]
    for bad, error, match in rules:
        stack = np.tile(np.eye(4, dtype=complex) / 4.0, (6, 1, 1))
        for k in (2, 4):
            stack[k] = bad
        with pytest.raises(error, match=match) as info:
            check_states(stack)
        assert type(info.value) is error and isinstance(info.value, InvalidDensityMatrixError)
        assert info.value.index == 2
    w, v = check_states(stack[:2], vectors=True)
    np.testing.assert_allclose(w, np.full((2, 4), 0.25), atol=1e-15)
    assert v.shape == (2, 4, 4)


@pytest.mark.parametrize("n", [2, 4])
def test_check_states_on_a_lone_state_names_it_like_a_stack(n):
    eye = np.eye(n, dtype=complex)
    off_diagonal = eye / n
    off_diagonal[0, 1] = 0.1
    nan_off_diagonal = eye / n
    nan_off_diagonal[0, 1] = nan_off_diagonal[1, 0] = np.nan
    negative = np.diag([1.5, -0.5] + [0.0] * (n - 2))
    rules = [
        # (bad state, the rule's error class, message, the tolerance that switches it off)
        (negative, NotPSDError, "negative eigenvalue -5.000e-01", None),
        (off_diagonal, NotHermitianError, "not Hermitian: defect 1.000e-01 exceeds 1.0e-10", "herm_tol"),
        (np.diag([np.nan] + [1.0] * (n - 1)), NotHermitianError, "not Hermitian: defect nan exceeds 1.0e-10", None),
        (nan_off_diagonal, NotHermitianError, "not Hermitian: defect nan exceeds 1.0e-10", None),
        (eye, InvalidDensityMatrixError, f"trace {n} is not 1 within 1.0e-10", "trace_tol"),
    ]
    for bad, error, message, switch in rules:
        with pytest.raises(error) as lone:
            check_states(bad)
        with pytest.raises(error) as stacked:
            check_states(np.array([eye / n, bad]))
        assert type(lone.value) is type(stacked.value) is error
        assert str(lone.value) == str(stacked.value) == message
        assert lone.value.index == 0 and stacked.value.index == 1
        if switch is not None:
            w = check_states(bad, **{switch: math.inf})
            assert w.shape == (n,) and np.all(np.isfinite(w))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (2, 4, 4), (1024, 4, 4)])
def test_check_states_traces_match_ndarray_trace_bit_for_bit(monkeypatch, shape):
    rng = np.random.default_rng(sum(shape))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack = g @ g.conj().swapaxes(-1, -2)  # traces far from 1, kept by a wide trace budget
    seen = []
    rule = linalg._trace_rule
    monkeypatch.setattr(linalg, "_trace_rule", lambda tr, tol: seen.append(tr) or rule(tr, tol))
    check_states(stack, trace_tol=1e300)
    expected = np.asarray(stack.trace(axis1=-2, axis2=-1))
    assert np.asarray(seen[0]).tobytes() == expected.tobytes()


def test_check_states_decomposes_the_hermitian_part():
    rng = np.random.default_rng(77)
    exact = np.array([random_density(rng, 4) for _ in range(64)])
    exact = (exact + exact.conj().swapaxes(-1, -2)) / 2.0
    assert np.array_equal(exact, exact.conj().swapaxes(-1, -2))
    skewed = exact + 1e-12j * np.triu(np.ones((4, 4)), 1)
    for stack in (exact, skewed):
        h = (stack + stack.conj().swapaxes(-1, -2)) * 0.5
        assert check_states(stack).tobytes() == np.linalg.eigvalsh(h).tobytes()
        for got, want in zip(check_states(stack, vectors=True), np.linalg.eigh(h)):
            assert got.tobytes() == want.tobytes()


def test_check_states_rejects_bad_shape():
    with pytest.raises(DimensionMismatchError):
        check_states(np.eye(4)[None], dims=(2,))
    with pytest.raises(DimensionMismatchError):
        check_states(np.ones(4))
