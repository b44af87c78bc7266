import math

import numpy as np
import pytest

from pumplimit import (
    BadDimensionError,
    BadParameterError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    InvalidSpectrumError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    generator_from_seed,
    hermitian_eig,
    random_haar_unitary,
    sqrt_psd,
    tensor,
    validate_density_matrix,
    validate_spectrum,
)
from pumplimit.linalg import as_matrix, check_states
from oracles import SIGMA_Y, eig2_hermitian, kron_expand, random_hermitian


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_hermitian_eig_scaled_identity():
    w, v = hermitian_eig(np.eye(4) / 4.0)
    np.testing.assert_allclose(w, [0.25] * 4, atol=1e-15)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)


def test_hermitian_eig_2x2_against_closed_form():
    m = np.array([[0.5, 0.5], [0.5, 0.5]])
    w, _ = hermitian_eig(m)
    np.testing.assert_allclose(w, eig2_hermitian(m), atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-15)


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        hermitian_eig(m)


def test_nan_breaks_the_hermiticity_rule():
    m = np.diag([np.nan, 1.0])
    for decompose in (hermitian_eig, sqrt_psd):
        with pytest.raises(NotHermitianError):
            decompose(m)


def test_hermitian_eig_rejects_unsupported_dim():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.eye(3))


def test_shape_checks_reject_mismatches():
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        validate_density_matrix(np.eye(2) / 2.0, dim=4)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_eigensolver_failure_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        validate_density_matrix(np.eye(4) / 4.0)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        hermitian_eig(np.eye(4) / 4.0)


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(500):
        for dim in (2, 4):
            m = random_hermitian(rng, dim)
            w, v = hermitian_eig(m)
            assert np.all(np.diff(w) <= 0.0)
            recon = (v * w) @ v.conj().T
            assert np.max(np.abs(recon - m)) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-12


def test_sqrt_psd_identity_and_diagonal():
    np.testing.assert_allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14)


def test_sqrt_psd_projector_fixed_point():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    proj = np.outer(plus, plus)
    np.testing.assert_allclose(sqrt_psd(proj), proj, atol=1e-14)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(12)
    for _ in range(500):
        for dim in (2, 4):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            r = sqrt_psd(m)
            assert np.max(np.abs(r @ r - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))
            # PSD inputs never produce deep-negative spectra
            assert np.linalg.eigvalsh(m).min() >= -1e-10 * max(1.0, np.max(np.abs(m)))


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSDError):
        sqrt_psd(np.diag([1.0, -1.0]))


def test_tensor_identity():
    np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_sigma_y_pair():
    got = tensor(SIGMA_Y, SIGMA_Y)
    np.testing.assert_allclose(got, kron_expand(SIGMA_Y, SIGMA_Y), atol=0.0)
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = -1.0
    expected[1, 2] = expected[2, 1] = 1.0
    np.testing.assert_allclose(got, expected, atol=0.0)


def test_tensor_places_pump_block():
    j = np.array([[0.5, 0.25], [0.25, 0.5]])
    out = tensor(np.diag([1.0, 0.0]), j)
    np.testing.assert_array_equal(out[:2, :2], j)
    assert np.max(np.abs(out[2:, :])) == 0.0
    assert np.max(np.abs(out[:, 2:])) == 0.0


def test_tensor_is_bilinear():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        lhs = tensor(a + b, c)
        rhs = tensor(a, c) + tensor(b, c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_tensor_rejects_wrong_dims():
    with pytest.raises(DimensionMismatchError):
        tensor(np.eye(4), np.eye(2))


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
        (negative, NotPSDError, "negative eigenvalue -5.000e-01", "eig_floor"),
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


def test_check_states_rejects_bad_shape():
    with pytest.raises(DimensionMismatchError):
        check_states(np.eye(4)[None], dims=(2,))
    with pytest.raises(DimensionMismatchError):
        check_states(np.ones(4))
