"""The textbook pseudohyperbolic distance: the tests' independent oracle for rho,
in double precision and at 50 digits.

rho(a, b) = sqrt(1 - (1 - |a|^2)(1 - |b|^2) / |1 - <a, b>|^2), clipped to [0, 1].
The subtraction cancels for close pairs (relative error about eps / rho^2),
which the tolerances of the tests that use it allow for.  The library computes
rho by a cancellation-free difference form instead, so the two share no code.
"""

import mpmath
import numpy as np


def rho_rows(a, b):
    """rho between a[..., :] and b[..., :], broadcast over the leading axes."""
    ip = np.einsum("...i,...i->...", a, np.conj(b))
    na = 1.0 - np.einsum("...i,...i->...", a, np.conj(a)).real
    nb = 1.0 - np.einsum("...i,...i->...", b, np.conj(b)).real
    return np.sqrt(np.clip(1.0 - na * nb / np.abs(1.0 - ip) ** 2, 0.0, 1.0))


def rho_block(a, b):
    """rho between every row of a and every row of b, as an (len(a), len(b)) matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    ip = a @ np.conj(b).T
    na = 1.0 - np.einsum("ij,ij->i", a, np.conj(a)).real
    nb = 1.0 - np.einsum("ij,ij->i", b, np.conj(b)).real
    num = np.multiply.outer(na, nb)
    return np.sqrt(np.clip(1.0 - num / np.abs(1.0 - ip) ** 2, 0.0, 1.0))


def rho_mp(z, w, dps=50):
    """rho(z, w) at ``dps`` digits from the exact float inputs."""
    with mpmath.workdps(dps):
        zc = [mpmath.mpc(complex(x)) for x in z]
        wc = [mpmath.mpc(complex(x)) for x in w]
        ip = mpmath.fsum(a * mpmath.conj(b) for a, b in zip(zc, wc))
        nz = mpmath.fsum(abs(a) ** 2 for a in zc)
        nw = mpmath.fsum(abs(b) ** 2 for b in wc)
        return float(mpmath.sqrt(1 - (1 - nz) * (1 - nw) / abs(1 - ip) ** 2))
