"""Dense oracles for the periodic grid operator and its spectrum.

These are the assembly and the eigensolve the library used before the
operator was stored sparse and diagonalized through its chiral blocks:
a Python double loop over block rows writing into a dense matrix, with
the symbol built site by site, the gauge conjugation as one dense einsum over all pairs of sites, and
``scipy.linalg.eigvals`` of the whole matrix.  The Fourier-mode oracle
is the mode loop the library used before it solved the mode symbols as
one stack, and the site sweep is the frame alignment it used before it
aligned the grid one column at a time.  The near-kernel re-solve is
the whole-matrix form the library used before it worked per mode
block: one sorted Schur form of the dense XY and of the dense YX.  The
multiset distance is found apart from the library's tolerance groups
and bounds: a bisection over the full cost matrix of the two
multisets, with a bipartite matching test at each step, and for a few
values every pairing tried.  The sublattice labelling is the split the library solved surfaces with no
invariant direction by before it reduced every surface by Fourier mode:
the connected components of the squared operator once the rounding
residues of its cancelling couplings are dropped.  The chiral halves
are sliced by chirality from a sparse copy of the matrix, as the library
did before it kept the operator as its stencil.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from dirac_surface.clifford import gauge_rotation
from dirac_surface.dirac import _aligned_grid_frames, _symbol
from dirac_surface.geometry import connection_from_frame, frames_at, gauge_angle, _nearest_normals


def aligned_grid_frames_by_site(spec, n1, n2):
    """The grid frames, each site aligned on its own in row order: to the
    site before it in its row, the first of a row to the first of the row
    before."""
    (lo1, hi1), (lo2, hi2) = spec.domain
    h1 = (hi1 - lo1) / n1
    h2 = (hi2 - lo2) / n2
    j, k = np.divmod(np.arange(n1 * n2), n2)
    frames = frames_at(spec, np.stack([lo1 + j * h1, lo2 + k * h2], axis=-1))
    n = frames.n.copy()
    for p in range(1, n1 * n2):
        ref = p - 1 if p % n2 else p - n2
        n[p] = _nearest_normals(n[p], n[ref])[0]
    return replace(frames, n=n), h1, h2


def dense_grid_matrix(spec, n1, n2, gauged=False):
    """The (4 n1 n2)-square central-difference operator, assembled densely."""
    frames, h1, h2 = _aligned_grid_frames(spec, n1, n2)
    nsites = n1 * n2
    dim = 4 * nsites

    A_site = np.zeros((nsites, 2, 4, 4), dtype=complex)
    B_site = np.zeros((nsites, 4, 4), dtype=complex)
    V_site = np.zeros((nsites, 4, 4), dtype=complex)

    def site(j, k):
        return j * n2 + k

    for p in range(nsites):
        fr = frames[p]
        sym = _symbol(connection_from_frame(fr))
        A_site[p] = sym.A
        B_site[p] = sym.B
        if gauged:
            half = gauge_angle(connection_from_frame(fr))[0] / 2.0
            # the lift's sign as spin_lift picks it: sin(half) > 0 where cos(half) < 1/4
            sign = -1.0 if math.cos(half) < 0.25 and math.sin(half) < 0.0 else 1.0
            V_site[p] = sign * gauge_rotation(half).matrix

    M = np.zeros((dim, dim), dtype=complex)
    for j in range(n1):
        for k in range(n2):
            p = site(j, k)
            r = 4 * p
            M[r : r + 4, r : r + 4] += B_site[p]
            for alpha, (dj, dk, hh) in enumerate(((1, 0, h1), (0, 1, h2))):
                cp = 4 * site((j + dj) % n1, (k + dk) % n2)
                cm = 4 * site((j - dj) % n1, (k - dk) % n2)
                M[r : r + 4, cp : cp + 4] += A_site[p, alpha] / (2.0 * hh)
                M[r : r + 4, cm : cm + 4] -= A_site[p, alpha] / (2.0 * hh)

    if gauged:
        blocks = M.reshape(nsites, 4, nsites, 4)
        M = np.einsum(
            "rba,rbsc,scd->rasd", V_site.conj(), blocks, V_site
        ).reshape(dim, dim)
    return M


def dense_eigenvalues(matrix):
    """Every eigenvalue of a dense matrix, sorted by real then imaginary part."""
    vals = scipy.linalg.eigvals(matrix)
    return vals[np.lexsort((vals.imag, vals.real))]


def fourier_eigenvalues_by_mode(op):
    """The Fourier-mode spectrum, one 4x4 ``eigvals`` call per mode (m, n)."""
    A = op.site_A[0]
    B = op.site_B[0]
    vals = []
    for m in range(op.n1):
        for n in range(op.n2):
            k1 = math.sin(2.0 * math.pi * m / op.n1) / op.h1
            k2 = math.sin(2.0 * math.pi * n / op.n2) / op.h2
            sym = 1j * (k1 * A[0] + k2 * A[1]) + B
            vals.extend(np.linalg.eigvals(sym))
    vals = np.asarray(vals)
    return vals[np.lexsort((vals.imag, vals.real))]


def chiral_halves(matrix):
    """X and Y of the operator [[0, X], [Y, 0]] in chiral order, as sparse
    arrays: the first two components of each site spinor are +1 under
    gamma^5, the last two -1."""
    matrix = scipy.sparse.csr_array(matrix)
    index = np.arange(matrix.shape[0])
    plus = index[index % 4 < 2]
    minus = index[index % 4 >= 2]
    return matrix[plus][:, minus], matrix[minus][:, plus]


def decoupled_blocks(XY, cut=1e-13):
    """Label each index of the sparse square XY with its sublattice.

    Entries at or below ``cut`` max|XY| are the rounding residues of
    couplings that cancel exactly in the square; they are dropped, and
    the sublattices are the connected components of what is left.
    """
    graph = abs(XY)
    graph.data[graph.data <= cut * graph.data.max(initial=0.0)] = 0.0
    graph.eliminate_zeros()
    return connected_components(graph, directed=False)[1]


def whole_near_kernel_eigenvalues(X, Y, cut, count):
    """Eigenvalues of [[0, X], [Y, 0]] whose squares have |mu| <= cut,
    from the invariant subspaces of the whole dense XY and YX."""
    select = lambda z: abs(z) <= cut  # noqa: E731
    _, V, kv = scipy.linalg.schur((X @ Y).toarray(), output="complex", sort=select)
    _, W, kw = scipy.linalg.schur((Y @ X).toarray(), output="complex", sort=select)
    assert kv == kw == count, (kv, kw, count)
    V = V[:, :count]
    W = W[:, :count]
    zero = np.zeros((count, count))
    return scipy.linalg.eigvals(
        np.block([[zero, V.conj().T @ (X @ W)], [W.conj().T @ (Y @ V), zero]])
    )


def dense_multiset_distance(a, b):
    """Bottleneck distance between the two whole multisets: the least
    pair distance at which the full cost matrix, cut there, holds a
    perfect matching, found by bisection over all its distinct values
    with ``maximum_bipartite_matching`` (Hopcroft and Karp)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    values = np.unique(cost)
    if values.size == 0:
        return 0.0
    lo, hi = 0, values.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        within = scipy.sparse.csr_array(cost <= values[mid])
        if (maximum_bipartite_matching(within, perm_type="column") >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def brute_force_multiset_distance(a, b):
    """Bottleneck distance by trying every pairing: a few values only."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.size <= 6
    cost = np.abs(a[:, None] - b[None, :])
    rows = np.arange(a.size)
    return min(
        float(cost[rows, list(perm)].max(initial=0.0))
        for perm in itertools.permutations(range(b.size))
    )
