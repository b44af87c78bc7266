import numpy as np
import pytest

import pumplimit.twoqubit
from pumplimit import (
    InvalidSpectrumError,
    NotTwoDError,
    concurrence,
    concurrence_many,
    construct_max_entangled_state,
    is_two_d,
    spin_flip,
    two_d_decompose,
    unitary_max_concurrence,
    wootters_spectrum,
)
from pumplimit.twoqubit import (
    _PPT_ABOVE,
    _concurrence_from_s,
    _concurrence_stack,
    _factor,
    _ppt_det_stack,
    _wootters_stack,
)
from oracles import (
    basis_projector,
    bell_phi,
    bell_psi,
    concurrence_reference,
    random_density,
    random_spectrum,
    random_unitary,
    random_unitary_stack,
    spin_flip_reference,
    werner,
)


def test_spin_flip_fixes_maximally_mixed():
    np.testing.assert_allclose(spin_flip(np.eye(4) / 4.0), np.eye(4) / 4.0, atol=1e-15)


def test_spin_flip_swaps_hh_vv():
    got = spin_flip(basis_projector(0))
    np.testing.assert_allclose(got, basis_projector(3), atol=0.0)
    np.testing.assert_allclose(got, spin_flip_reference(basis_projector(0)), atol=0.0)
    # sigma_y (x) sigma_y written out: -1 at (HH, VV) and (VV, HH), +1 at (HV, VH) and (VH, HV)
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    rho = random_density(np.random.default_rng(30), 4)
    np.testing.assert_allclose(spin_flip(rho), yy @ rho.conj() @ yy, atol=1e-15)


def test_spin_flip_fixes_bell():
    np.testing.assert_allclose(spin_flip(bell_phi()), bell_phi(), atol=1e-15)


def test_spin_flip_matches_reference_and_involutes():
    rng = np.random.default_rng(31)
    for _ in range(200):
        rho = random_density(rng, 4)
        flipped = spin_flip(rho)
        np.testing.assert_allclose(flipped, spin_flip_reference(rho), atol=1e-14)
        assert abs(np.trace(flipped) - np.trace(rho)) <= 1e-14
        assert np.max(np.abs(spin_flip(flipped) - rho)) <= 1e-12


def test_concurrence_product_state():
    assert concurrence(basis_projector(0)) == 0.0


def test_concurrence_bell_states():
    for rho in (bell_phi(), bell_phi(-1.0), bell_psi(), bell_psi(-1.0)):
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_werner_closed_form():
    assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-10)
    for p in np.linspace(0.0, 1.0, 11):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(werner(p)) == pytest.approx(expected, abs=1e-10)


def test_concurrence_against_general_eigensolver_route():
    rng = np.random.default_rng(32)
    for _ in range(300):
        rho = random_density(rng, 4)
        assert abs(concurrence(rho) - concurrence_reference(rho)) <= 1e-9


def test_concurrence_range_and_local_invariance():
    rng = np.random.default_rng(33)
    for _ in range(300):
        rho = random_density(rng, 4)
        c = concurrence(rho)
        assert 0.0 <= c <= 1.0
        local = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        assert abs(concurrence(local @ rho @ local.conj().T) - c) <= 1e-9


def test_concurrence_many_matches_scalar():
    rng = np.random.default_rng(34)
    rhos = np.stack([random_density(rng, 4) for _ in range(64)])
    many = concurrence_many(rhos)
    singles = np.array([concurrence(r) for r in rhos])
    np.testing.assert_allclose(many, singles, atol=1e-14)


def _kernel_stack(kind):
    """Factors of a seeded stack of states: random, on unitary orbits (as in criterion 4) or I/4."""
    rng = np.random.default_rng(35)
    if kind == "random":
        rhos = np.stack([random_density(rng, 4) for _ in range(256)])
    elif kind == "orbits":
        us = random_unitary_stack(rng, 50, 4)
        rhos = np.stack([us @ np.diag(random_spectrum(rng)) @ us.conj().swapaxes(-1, -2) for _ in range(6)])
    else:
        rhos = np.tile(np.eye(4) / 4.0, (8, 1, 1))
    return _factor(rhos)


@pytest.mark.parametrize("kind", ["random", "orbits", "separable"])
def test_stack_kernel_runs_the_svd_on_exactly_the_rows_that_may_be_entangled(monkeypatch, kind):
    g = _kernel_stack(kind)
    every_row = _concurrence_from_s(*np.moveaxis(_wootters_stack(g), -1, 0))
    may_be_entangled = _ppt_det_stack(g.reshape(-1, 4, 4)) <= _PPT_ABOVE
    seen = []

    def counted(g):
        seen.append(g.shape)
        return _wootters_stack(g)

    monkeypatch.setattr(pumplimit.twoqubit, "_wootters_stack", counted)
    conc = _concurrence_stack(g)
    assert conc.shape == every_row.shape == g.shape[:-2]
    assert conc.tobytes() == every_row.tobytes()  # bit for bit, signs of zeros included
    assert seen == [(np.count_nonzero(may_be_entangled), 4, 4)]
    if kind == "random":
        assert 0 < np.count_nonzero(may_be_entangled) < len(g)
    elif kind == "separable":
        assert seen == [(0, 4, 4)]


@pytest.mark.parametrize("shape", [(2, 3), ()])
def test_stack_kernel_keeps_the_stack_shape(shape):
    g = np.broadcast_to(_factor(bell_phi()), shape + (4, 4))
    conc = _concurrence_stack(g)
    assert conc.shape == shape
    assert isinstance(conc, np.ndarray) == (shape != ())  # a lone state's is a numpy float
    np.testing.assert_allclose(conc, 1.0, atol=1e-12)


def test_wootters_spectrum_bell():
    s = wootters_spectrum(bell_phi())
    np.testing.assert_allclose(s, [1.0, 0.0, 0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize(
    "spectrum,expected",
    [
        ([1.0, 0.0, 0.0, 0.0], 1.0),
        ([0.75, 0.25, 0.0, 0.0], 0.75),
        ([0.25, 0.25, 0.25, 0.25], 0.0),
    ],
)
def test_unitary_max_concurrence_values(spectrum, expected):
    assert unitary_max_concurrence(spectrum) == pytest.approx(expected, abs=1e-15)


def test_unitary_max_concurrence_rejects():
    with pytest.raises(InvalidSpectrumError):
        unitary_max_concurrence([0.2, 0.3, 0.3, 0.2])


def test_construct_pure_spectrum_gives_bell():
    rho = construct_max_entangled_state([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(rho, bell_phi(), atol=1e-15)
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_construct_rank_two():
    rho = construct_max_entangled_state([0.75, 0.25, 0.0, 0.0])
    assert concurrence(rho) == pytest.approx(0.75, abs=1e-9)


def test_construct_clamped_case():
    spectrum = [0.4, 0.3, 0.2, 0.1]
    formula = 0.4 - 0.2 - 2.0 * np.sqrt(0.3 * 0.1)
    assert formula < 0.0
    rho = construct_max_entangled_state(spectrum)
    assert unitary_max_concurrence(spectrum) == 0.0
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_reference(rho) == pytest.approx(0.0, abs=1e-9)


def test_construct_preserves_spectrum_and_is_tight():
    rng = np.random.default_rng(35)
    for _ in range(200):
        spec = random_spectrum(rng)
        rho = construct_max_entangled_state(spec)
        got = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.max(np.abs(got - spec)) <= 1e-10
        assert abs(concurrence(rho) - unitary_max_concurrence(spec)) <= 1e-9


def test_orbit_never_beats_spectrum_formula():
    rng = np.random.default_rng(36)
    for _ in range(100):
        spec = random_spectrum(rng)
        bound = unitary_max_concurrence(spec)
        us = np.stack([random_unitary(rng, 4) for _ in range(20)])
        rhos = us @ np.diag(spec).astype(complex) @ np.conj(np.swapaxes(us, -1, -2))
        assert np.max(concurrence_many(rhos)) <= bound + 1e-9


def test_two_d_decompose_bell():
    dec = two_d_decompose(bell_phi())
    assert dec.support_indices == (0, 3)
    assert dec.p_tilde == pytest.approx(1.0, abs=1e-12)


def test_two_d_decompose_mixed_block():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    dec = two_d_decompose(rho)
    assert dec.p_tilde == pytest.approx(0.0, abs=1e-12)
    assert concurrence(rho) == 0.0


def test_two_d_decompose_saturates_bound():
    block_identity = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho = 0.75 * bell_phi() + 0.25 * block_identity
    dec = two_d_decompose(rho)
    assert dec.p_tilde == pytest.approx(0.75, abs=1e-12)
    # block [[1/2, p/2], [p/2, 1/2]]: concurrence is twice the off-diagonal
    assert concurrence(rho) == pytest.approx(0.75, abs=1e-9)
    assert concurrence_reference(rho) == pytest.approx(0.75, abs=1e-9)


def test_two_d_decompose_single_level():
    dec = two_d_decompose(basis_projector(0))
    assert dec.support_indices == (0, 1)
    assert dec.p_tilde == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(dec.pure_state, [1.0, 0.0], atol=1e-12)


def test_two_d_decompose_rejects_full_rank():
    with pytest.raises(NotTwoDError):
        two_d_decompose(werner(0.5))


def test_two_d_decompose_rejects_empty_support():
    with pytest.raises(NotTwoDError, match="all diagonal entries below tolerance"):
        two_d_decompose(np.eye(4) / 4.0, tol=0.5)


def test_two_d_decompose_rejects_off_support_mass():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5 - 9e-11
    rho[1, 1] = 9e-11
    rho[0, 1] = rho[1, 0] = 5e-6  # PSD: (5e-6)^2 < 0.5 * 9e-11
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    assert not is_two_d(rho)
    with pytest.raises(NotTwoDError):
        two_d_decompose(rho)


def test_two_d_block_reconstruction():
    rng = np.random.default_rng(37)
    supports = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for k in range(300):
        block = random_density(rng, 2)
        support = supports[k % len(supports)]
        rho = np.zeros((4, 4), dtype=complex)
        rho[np.ix_(support, support)] = block
        dec = two_d_decompose(rho)
        assert dec.support_indices == support
        psi = dec.pure_state
        recon = dec.p_tilde * np.outer(psi, psi.conj()) + (1 - dec.p_tilde) * np.eye(2) / 2.0
        assert np.max(np.abs(recon - block)) <= 1e-10
        # convexity of the concurrence caps it by the pure-part weight
        assert concurrence(rho) <= dec.p_tilde + 1e-9


def test_is_two_d_cases():
    assert is_two_d(bell_phi())
    assert is_two_d(basis_projector(0))
    assert not is_two_d(np.eye(4) / 4.0)
