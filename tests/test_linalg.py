import numpy as np
import pytest

from pumplimit import (
    BadDimensionError,
    BadParameterError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    InvalidSpectrumError,
    NotHermitianError,
    NotPSDError,
    generator_from_seed,
    hermitian_eig,
    random_haar_unitary,
    sqrt_psd,
    tensor,
    validate_spectrum,
)
from pumplimit.linalg import check_states
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


def test_check_states_names_first_failing_state():
    off_diagonal = np.diag([0.25] * 4).astype(complex)
    off_diagonal[0, 1] = 0.1
    rules = [
        # (bad state, the rule's error class, message)
        (np.diag([1.5, -0.5, 0.0, 0.0]), NotPSDError, "negative eigenvalue"),
        (off_diagonal, NotHermitianError, "not Hermitian"),
        (np.diag([np.nan, 0.0, 0.0, 1.0]), NotHermitianError, "not Hermitian"),
        (np.eye(4) / 2.0, InvalidDensityMatrixError, "trace .* is not 1"),
    ]
    for bad, error, match in rules:
        stack = np.tile(np.eye(4, dtype=complex) / 4.0, (6, 1, 1))
        for k in (2, 4):
            stack[k] = bad
        with pytest.raises(error, match=match) as info:
            check_states(stack)
        assert type(info.value) is error and isinstance(info.value, InvalidDensityMatrixError)
        assert info.value.index == 2
    h, (w, v) = check_states(stack[:2], vectors=True)
    np.testing.assert_array_equal(h, stack[:2])
    np.testing.assert_allclose(w, np.full((2, 4), 0.25), atol=1e-15)
    assert v.shape == (2, 4, 4)


def test_check_states_rejects_bad_shape():
    with pytest.raises(DimensionMismatchError):
        check_states(np.eye(4)[None], dims=(2,))
    with pytest.raises(DimensionMismatchError):
        check_states(np.ones(4))
