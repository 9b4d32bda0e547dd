"""Dense oracles shared by the tests of the microscopic dilation."""

import numpy as np


def swap_unitary(tr):
    """Excitation-swap permutation on the truncated product space, in the
    basis ``|s, n>`` at ``s * n_levels + n``.

    An involution commuting with the free Hamiltonian: it permutes states
    within degenerate total-excitation sectors; the unpartnered boundary
    vector ``|e, n_max>`` is held fixed.
    """
    u = np.zeros((tr.dim, tr.dim))
    u[0, 0] = u[-1, -1] = 1.0  # |g, 0> and |e, n_max>
    for n in range(1, tr.n_levels):
        g, e = n, tr.n_levels + n - 1  # |g, n> and |e, n - 1>
        u[e, g] = u[g, e] = 1.0
    return u
