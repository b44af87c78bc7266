import numpy as np
import pytest

from pumplimit import (
    BadParameterError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    KrausChannel,
    apply_channel,
    canonical_pump,
    channel_from_json,
    compose,
    concurrence,
    embed_pump,
    is_majorized_by,
    matrix_to_json,
    random_haar_unitary,
    random_mixed_unitary_channel,
    validate_doubly_stochastic,
)
from pumplimit.errors import NotHermitianError, NotPSDError
from oracles import SIGMA_X, kraus_apply, kron_expand, random_density


def sigma_x_pair_channel():
    swap = kron_expand(SIGMA_X, SIGMA_X)
    return KrausChannel(operators=(np.sqrt(0.5) * np.eye(4), np.sqrt(0.5) * swap))


def amplitude_damping_on_signal(g):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(operators=(np.kron(k0, np.eye(2)), np.kron(k1, np.eye(2))))


def test_identity_channel_is_doubly_stochastic():
    ch = KrausChannel(operators=(np.eye(4),))
    assert validate_doubly_stochastic(ch) == (True, True)


def test_mixed_unitary_pair_is_doubly_stochastic():
    assert validate_doubly_stochastic(sigma_x_pair_channel()) == (True, True)


def test_amplitude_damping_is_not_unital():
    ch = amplitude_damping_on_signal(0.5)
    # direct summation: sum K K^dag = diag(1+g, 1-g) on the signal qubit
    un = sum(m @ m.conj().T for m in ch.operators)
    assert np.max(np.abs(un - np.eye(4))) > 0.1
    assert validate_doubly_stochastic(ch) == (True, False)


def test_apply_identity_channel():
    rho = random_density(np.random.default_rng(41), 4)
    out = apply_channel(KrausChannel(operators=(np.eye(4),)), rho)
    np.testing.assert_allclose(out, rho, atol=1e-15)


def test_apply_mixed_channel_by_hand():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    out = apply_channel(sigma_x_pair_channel(), rho)
    # (sx x sx)|HH> = |VV>: equal mixture of the state and its flip
    np.testing.assert_allclose(out, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)


def test_unitary_channel_preserves_spectrum():
    rng = np.random.default_rng(42)
    for seed in range(50):
        u = random_haar_unitary(4, seed)
        rho = random_density(rng, 4)
        out = apply_channel(KrausChannel(operators=(u,)), rho)
        before = np.sort(np.linalg.eigvalsh(rho))
        after = np.sort(np.linalg.eigvalsh(out))
        assert np.max(np.abs(after - before)) <= 1e-10


def test_apply_channel_rejects_invalid_state():
    with pytest.raises(InvalidDensityMatrixError):
        apply_channel(sigma_x_pair_channel(), np.eye(4))


def test_majorization_reflexive():
    rho = random_density(np.random.default_rng(43), 4)
    assert is_majorized_by(rho, rho).holds


def test_maximally_mixed_is_majorized_by_everything():
    rng = np.random.default_rng(44)
    for _ in range(50):
        source = random_density(rng, 4)
        assert is_majorized_by(np.eye(4) / 4.0, source).holds


def test_majorization_names_the_state_that_breaks_the_rules():
    good = np.eye(4) / 4.0
    with pytest.raises(InvalidDensityMatrixError, match="^source: trace 2 is not 1"):
        is_majorized_by(good, 2.0 * good)
    with pytest.raises(NotHermitianError, match="^target: not Hermitian"):
        is_majorized_by(good + np.triu(np.ones((4, 4)), 1), good)
    with pytest.raises(NotPSDError, match="^source: negative eigenvalue"):
        is_majorized_by(good, np.diag([0.6, 0.6, 0.0, -0.2]))
    with pytest.raises(DimensionMismatchError):
        is_majorized_by(good, np.eye(2) / 2.0)


def test_majorization_detects_violation():
    source = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
    target = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
    report = is_majorized_by(target, source)
    assert not report.holds
    assert report.worst_slack == pytest.approx(-0.1, abs=1e-12)
    np.testing.assert_allclose(report.partial_sums_source, [0.6, 1.0, 1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(report.partial_sums_target, [0.7, 1.0, 1.0, 1.0], atol=1e-12)


def test_random_channel_single_unitary_preserves_spectrum():
    ch = random_mixed_unitary_channel(1, seed=5)
    assert len(ch) == 1
    rho = random_density(np.random.default_rng(45), 4)
    out = apply_channel(ch, rho)
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(out)) - np.sort(np.linalg.eigvalsh(rho)))) <= 1e-10


def test_random_channel_validates_and_is_deterministic():
    ch = random_mixed_unitary_channel(4, seed=3)
    assert validate_doubly_stochastic(ch) == (True, True)
    again = random_mixed_unitary_channel(4, seed=3)
    for a, b in zip(ch.operators, again.operators):
        np.testing.assert_array_equal(a, b)


def test_random_channel_rejects_bad_k():
    with pytest.raises(BadParameterError):
        random_mixed_unitary_channel(0, seed=1)


def test_channel_output_majorized_by_embedded_pump():
    sigma = embed_pump(canonical_pump(0.5)).sigma
    ch = random_mixed_unitary_channel(4, seed=7)
    out = apply_channel(ch, sigma)
    assert is_majorized_by(out, sigma).holds


def test_majorization_holds_end_to_end():
    rng = np.random.default_rng(46)
    for seed in range(100):
        ch = random_mixed_unitary_channel(int(rng.integers(1, 6)), seed=seed)
        for _ in range(5):
            sigma = embed_pump(random_density(rng, 2)).sigma
            out = apply_channel(ch, sigma)
            assert is_majorized_by(out, sigma, tol=1e-9).holds


def test_concurrence_bounded_by_pump_polarization():
    rng = np.random.default_rng(47)
    for seed in range(100):
        ch = random_mixed_unitary_channel(int(rng.integers(1, 6)), seed=1000 + seed)
        p = float(rng.uniform())
        sigma = embed_pump(canonical_pump(p)).sigma
        out = apply_channel(ch, sigma)
        assert concurrence(out) <= (1.0 + p) / 2.0 + 1e-9


def test_composition_stays_majorized():
    rng = np.random.default_rng(48)
    for seed in range(30):
        first = random_mixed_unitary_channel(3, seed=seed)
        second = random_mixed_unitary_channel(2, seed=seed + 500)
        chained = compose(second, first)
        assert validate_doubly_stochastic(chained) == (True, True)
        sigma = embed_pump(random_density(rng, 2)).sigma
        step = apply_channel(second, apply_channel(first, sigma))
        direct = apply_channel(chained, sigma)
        np.testing.assert_allclose(direct, step, atol=1e-12)
        assert is_majorized_by(direct, sigma, tol=1e-9).holds


def test_channel_construction_rejects_bad_input():
    with pytest.raises(BadParameterError):
        KrausChannel(operators=())
    with pytest.raises(DimensionMismatchError):
        KrausChannel(operators=(np.eye(2),))
    with pytest.raises(DimensionMismatchError):
        KrausChannel(operators=(np.eye(4),), labels=("a", "b"))
    with pytest.raises(BadParameterError):
        KrausChannel(operators=(np.eye(4),), labels="a")
    with pytest.raises(BadParameterError):
        KrausChannel(operators=(np.eye(4),), labels=b"a")
    with pytest.raises(BadParameterError):
        KrausChannel(operators=(np.eye(4),), labels=5)
    three = [matrix_to_json(np.eye(4) / np.sqrt(3.0))] * 3
    with pytest.raises(BadParameterError):
        channel_from_json({"operators": three, "labels": "abc"})


def test_channel_operators_are_read_only():
    op = np.arange(16.0).reshape(4, 4) * (1.0 + 1.0j)
    ch = KrausChannel(operators=(op,))
    with pytest.raises(ValueError):
        ch.operators[0][0, 0] = 2.0
    with pytest.raises(ValueError):
        ch.superoperator[0, 1] = 2.0
    np.testing.assert_array_equal(ch.superoperator, np.kron(op, op.conj()))


@pytest.mark.parametrize("k", [*range(1, 9), 64])
def test_apply_channel_matches_the_kraus_sum(k):
    if k == 64:
        ch = compose(random_mixed_unitary_channel(8, seed=700), random_mixed_unitary_channel(8, seed=701))
    else:
        ch = random_mixed_unitary_channel(k, seed=600 + k)
    assert len(ch) == k
    rng = np.random.default_rng(k)
    for rho in (random_density(rng, 4), embed_pump(random_density(rng, 2)).sigma):
        out = apply_channel(ch, rho)
        np.testing.assert_allclose(out, kraus_apply(ch.operators, rho), rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(out, out.conj().T)
