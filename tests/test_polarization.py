import numpy as np
import pytest

from pumplimit import (
    BadParameterError,
    InvalidDensityMatrixError,
    canonical_pump,
    degree_of_polarization,
    embed_pump,
    polar_decompose,
)
from oracles import eig2_hermitian, random_density, random_unitary


def test_unpolarized_pump():
    assert degree_of_polarization(np.eye(2) / 2.0) == 0.0


def test_pure_pump():
    assert degree_of_polarization(np.diag([1.0, 0.0])) == 1.0


def test_half_polarized_pump():
    j = np.array([[0.5, 0.25], [0.25, 0.5]])
    eps = eig2_hermitian(j)
    np.testing.assert_allclose(eps, [0.75, 0.25], atol=1e-15)
    assert abs(degree_of_polarization(j) - (eps[0] - eps[1])) <= 1e-15


def test_degree_is_basis_invariant():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        j = random_density(rng, 2)
        u = random_unitary(rng, 2)
        p = degree_of_polarization(j)
        assert 0.0 <= p <= 1.0
        assert abs(degree_of_polarization(u @ j @ u.conj().T) - p) <= 1e-10


def test_polar_decompose_pure():
    dec = polar_decompose(np.diag([1.0, 0.0]))
    assert dec.p == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(dec.pure_state, [1.0, 0.0], atol=1e-15)


def test_polar_decompose_degenerate_convention():
    dec = polar_decompose(np.eye(2) / 2.0)
    assert dec.p == 0.0
    assert dec.unpolarized_weight == 1.0
    np.testing.assert_array_equal(dec.pure_state, [1.0, 0.0])


def test_polar_decompose_half():
    dec = polar_decompose(np.array([[0.5, 0.25], [0.25, 0.5]]))
    assert dec.p == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(dec.pure_state, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)


def test_polar_decompose_reconstructs():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        j = random_density(rng, 2)
        dec = polar_decompose(j)
        assert np.max(np.abs(dec.reconstruct() - j)) <= 1e-10
        assert abs(np.linalg.norm(dec.pure_state) - 1.0) <= 1e-12


@pytest.mark.parametrize("p,expected", [(0.0, [0.5, 0.5, 0.0, 0.0]),
                                        (1.0, [1.0, 0.0, 0.0, 0.0]),
                                        (0.5, [0.75, 0.25, 0.0, 0.0])])
def test_embed_pump_spectrum(p, expected):
    emb = embed_pump(canonical_pump(p))
    np.testing.assert_allclose(emb.spectrum, expected, atol=1e-12)


def test_embed_pump_layout_and_property():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        j = random_density(rng, 2)
        emb = embed_pump(j)
        np.testing.assert_allclose(emb.sigma[:2, :2], j, atol=0.0)
        assert np.max(np.abs(emb.sigma[2:, :])) == 0.0
        assert np.max(np.abs(emb.sigma[:, 2:])) == 0.0
        p = degree_of_polarization(j)
        expected = np.array([(1.0 + p) / 2.0, (1.0 - p) / 2.0, 0.0, 0.0])
        assert np.max(np.abs(emb.spectrum - expected)) <= 1e-12


def test_canonical_pump_round_trip():
    for p in (0.0, 0.3, 1.0):
        assert degree_of_polarization(canonical_pump(p)) == pytest.approx(p, abs=1e-15)


def test_canonical_pump_rejects_out_of_range():
    with pytest.raises(BadParameterError):
        canonical_pump(1.2)
    with pytest.raises(BadParameterError):
        canonical_pump(-0.1)
    with pytest.raises(BadParameterError):
        canonical_pump(None)
    with pytest.raises(BadParameterError):
        canonical_pump("x")


@pytest.mark.parametrize(
    "j",
    [
        np.array([[0.5, 0.5], [0.0, 0.5]]),          # not Hermitian
        np.array([[0.7, 0.0], [0.0, 0.7]]),          # trace != 1
        np.array([[1.2, 0.0], [0.0, -0.2]]),         # negative eigenvalue
        np.array([[np.nan, 0.0], [0.0, 1.0]]),       # NaN entry
    ],
)
def test_invalid_pump_rejected(j):
    with pytest.raises(InvalidDensityMatrixError):
        degree_of_polarization(j)
