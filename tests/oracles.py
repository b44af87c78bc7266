"""Independent reference computations used as test oracles.

Everything here deliberately avoids the library's own code paths: closed
forms, direct index expansions, and the general (non-Hermitian) eigensolver
route for the concurrence.
"""

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def kron_expand(a, b):
    """Direct index expansion out[2i+k, 2j+l] = a[i,j] * b[k,l]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def eig2_hermitian(m):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, non-ascending."""
    a = float(np.real(m[0][0]))
    d = float(np.real(m[1][1]))
    b = complex(m[0][1])
    center = (a + d) / 2.0
    radius = np.hypot((a - d) / 2.0, abs(b))
    return np.array([center + radius, center - radius])


def spin_flip_reference(rho):
    """Spin flip via explicit multiplication with sigma_y x sigma_y."""
    yy = kron_expand(SIGMA_Y, SIGMA_Y)
    return yy @ np.conj(rho) @ yy


def concurrence_reference(rho):
    """Concurrence via the general eigensolver applied to rho @ rho~.

    This is a route the library never takes (it stays within Hermitian
    forms), which makes it a genuinely independent cross-check.
    """
    ev = np.linalg.eigvals(np.asarray(rho, dtype=complex) @ spin_flip_reference(rho))
    s = np.sqrt(np.abs(np.sort(np.real(ev))[::-1]))
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def partial_transpose_second(rho):
    """Partial transpose on the second qubit by direct index expansion, over a stack.

    out[..., 2a+b, 2c+d] = rho[..., 2a+d, 2c+b].
    """
    out = np.empty_like(rho)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out[..., 2 * a + b, 2 * c + d] = rho[..., 2 * a + d, 2 * c + b]
    return out


def density_elements(params):
    """Pair state from the paper's 16 closed-form matrix elements.

    Every entry is a second moment of the arm field coefficients, written
    out with the pump moments <E_H E_H*> = <E_V E_V*> = 1/2 and
    <E_H* E_V> = P/2; Hermiticity is exact by construction.  A third
    construction beside the library's factor and its moment-algebra oracle.
    """
    pp = np.asarray(params.pump_p, dtype=float)
    tt = np.asarray(params.t, dtype=float)
    th1 = np.asarray(params.theta1, dtype=float)
    th2 = np.asarray(params.theta2, dtype=float)
    a1 = np.asarray(params.alpha1, dtype=float)
    a2 = np.asarray(params.alpha2, dtype=float)
    m = np.asarray(params.mu, dtype=float)
    g0 = np.asarray(params.gamma0, dtype=float)

    n1 = tt  # |eta_1|^2
    n2 = 1.0 - tt  # |eta_2|^2
    n12 = np.sqrt(n1 * n2)  # |eta_1 eta_2|

    cos1, sin1 = np.cos(th1), np.sin(th1)
    cos2, sin2 = np.cos(th2), np.sin(th2)
    ea1 = np.exp(1j * a1)
    ea2 = np.exp(1j * a2)
    # first moment of the inter-arm phase and its conjugate
    coh = m * np.exp(1j * g0)

    # within-arm moments
    d_v1 = n1 * (1.0 - pp * np.cos(a1) * np.sin(2.0 * th1)) / 2.0
    d_h1 = n1 * (1.0 + pp * np.cos(a1) * np.sin(2.0 * th1)) / 2.0
    d_v2 = n2 * (1.0 - pp * np.cos(a2) * np.sin(2.0 * th2)) / 2.0
    d_h2 = n2 * (1.0 + pp * np.cos(a2) * np.sin(2.0 * th2)) / 2.0
    vh1 = n1 * pp * (np.cos(a1) * np.cos(2.0 * th1) + 1j * np.sin(a1)) / 2.0
    vh2 = n2 * pp * (np.cos(a2) * np.cos(2.0 * th2) + 1j * np.sin(a2)) / 2.0

    # cross-arm moments, each damped by the coherence moment
    v1v2 = (
        n12
        * (
            sin1 * sin2
            + cos1 * cos2 * ea1 * np.conj(ea2)
            - pp * cos1 * sin2 * ea1
            - pp * sin1 * cos2 * np.conj(ea2)
        )
        * np.conj(coh)
        / 2.0
    )
    v1h2 = (
        n12
        * (
            -sin1 * cos2
            + cos1 * sin2 * ea1 * np.conj(ea2)
            + pp * cos1 * cos2 * ea1
            - pp * sin1 * sin2 * np.conj(ea2)
        )
        * np.conj(coh)
        / 2.0
    )
    v2h1 = (
        n12
        * (
            -cos1 * sin2
            + sin1 * cos2 * np.conj(ea1) * ea2
            - pp * sin1 * sin2 * np.conj(ea1)
            + pp * cos1 * cos2 * ea2
        )
        * coh
        / 2.0
    )
    h2h1 = (
        n12
        * (
            cos1 * cos2
            + sin1 * sin2 * np.conj(ea1) * ea2
            + pp * sin1 * cos2 * np.conj(ea1)
            + pp * cos1 * sin2 * ea2
        )
        * coh
        / 2.0
    )

    shape = np.broadcast(pp, tt, th1, th2, a1, a2, m, g0).shape
    rho = np.zeros(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = d_v1
    rho[..., 1, 1] = d_v2
    rho[..., 2, 2] = d_h2
    rho[..., 3, 3] = d_h1
    rho[..., 0, 1] = v1v2
    rho[..., 0, 2] = v1h2
    rho[..., 0, 3] = vh1
    rho[..., 1, 2] = vh2
    rho[..., 1, 3] = v2h1
    rho[..., 2, 3] = h2h1
    rho[..., 1, 0] = np.conj(v1v2)
    rho[..., 2, 0] = np.conj(v1h2)
    rho[..., 3, 0] = np.conj(vh1)
    rho[..., 2, 1] = np.conj(vh2)
    rho[..., 3, 1] = np.conj(v2h1)
    rho[..., 3, 2] = np.conj(h2h1)
    return rho


def _source_state_mp(params):
    """The source state ``L (Gamma x J) L^dag`` as an mpmath matrix, at the working precision.

    ``L`` holds the arm maps on its rows; ``Gamma x J`` holds the inter-arm
    and pump second moments.
    """
    import mpmath

    mpf = mpmath.mpf
    pump_p, mu = mpf(params.pump_p), mpf(params.mu)

    def arm(eta, theta, alpha):
        c, s = mpmath.cos(mpf(theta)), mpmath.sin(mpf(theta))
        e = mpmath.expj(mpf(alpha))
        return [[eta * c, eta * s * e], [-eta * s, eta * c * e]]

    c1 = arm(mpmath.sqrt(mpf(params.t)), params.theta1, params.alpha1)
    c2 = arm(mpmath.sqrt(1 - mpf(params.t)), params.theta2, params.alpha2)
    lift = mpmath.zeros(4, 4)
    for col in range(2):
        lift[0, col], lift[3, col] = c1[1][col], c1[0][col]
        lift[1, col + 2], lift[2, col + 2] = c2[1][col], c2[0][col]
    coh = mu * mpmath.expj(mpf(params.gamma0))
    gamma = [[1, mpmath.conj(coh)], [coh, 1]]
    pump = [[mpf(1) / 2, pump_p / 2], [pump_p / 2, mpf(1) / 2]]
    moments = mpmath.matrix(
        [[gamma[r // 2][c // 2] * pump[r % 2][c % 2] for c in range(4)] for r in range(4)]
    )
    return lift * moments * lift.H


def source_concurrence_mp(params, dps=50):
    """Concurrence of the source state at ``dps`` digits, from its settings (mpmath).

    The s-values come from the Hermitian form sqrt(rho) rho~ sqrt(rho) with
    both eigenproblems solved at full precision, so the square roots of
    zero eigenvalues add only ~1e-25.
    """
    import mpmath

    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        rho = _source_state_mp(params)
        w, v = mpmath.eigh(rho)
        root = v * mpmath.diag([mpmath.sqrt(max(mpmath.re(x), 0)) for x in w]) * v.H
        flip = mpmath.matrix(np.real(kron_expand(SIGMA_Y, SIGMA_Y)).tolist())
        ev, _ = mpmath.eigh(root * (flip * rho.conjugate() * flip) * root)
        s = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in ev), reverse=True)
        return float(max(mpf(0), s[0] - s[1] - s[2] - s[3]))


def source_spectrum_mp(params, dps=50):
    """Eigenvalues of the source state at ``dps`` digits, non-ascending, as floats (mpmath)."""
    import mpmath

    with mpmath.workdps(dps):
        w = mpmath.eigh(_source_state_mp(params), eigvals_only=True)
        return np.array(sorted((float(mpmath.re(x)) for x in w), reverse=True))


def kraus_apply(ops, rho):
    """Channel output ``sum_k M_k rho M_k^dag`` by an explicit loop over the operators."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for m in ops:
        m = np.asarray(m, dtype=complex)
        out += m @ rho @ m.conj().T
    return out


def random_density(rng, dim):
    """Full-rank random density matrix from a Ginibre draw."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_unitary(rng, dim):
    """Haar unitary for test inputs (QR of a Ginibre matrix, phase-fixed)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary_stack(rng, n, dim):
    """Stack of n Haar unitaries, shape (n, dim, dim)."""
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_spectrum(rng, dim=4):
    """Random density spectrum, non-ascending (uniform on the simplex)."""
    return np.sort(rng.dirichlet(np.ones(dim)))[::-1]


def bell_phi(sign=1.0):
    """|HH> +- |VV> Bell density matrix."""
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[3] = sign / np.sqrt(2.0)
    return np.outer(v, v.conj())


def bell_psi(sign=1.0):
    """|HV> +- |VH> Bell density matrix."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = sign / np.sqrt(2.0)
    return np.outer(v, v.conj())


def werner(p):
    """p |Phi+><Phi+| + (1-p) I/4; concurrence max(0, (3p-1)/2)."""
    return p * bell_phi() + (1.0 - p) * np.eye(4) / 4.0


def basis_projector(index):
    rho = np.zeros((4, 4), dtype=complex)
    rho[index, index] = 1.0
    return rho
