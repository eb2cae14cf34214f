"""The order embeddings the lattice, pipeline and acceptance tests share.

`gaussian_unitary`: Z[i] in Q(i) (discriminant -4), n = 1, kind A.
`rational_siegel`: Z in Q, n = 1, kind C.
`matrix_basechange`: M_2(Z[i]), n = 2, kind A, spanned by the matrix
units and i times them.
"""

import numpy as np

from pelks.lattices import OrderEmbedding


def gaussian_unitary(r=2):
    return OrderEmbedding("A", 1, r, -4, ([[1.0]], [[1j]]))


def rational_siegel(r):
    return OrderEmbedding("C", 1, r, 1, ([[1.0]],))


def matrix_basechange(r=2):
    mats = []
    for scale in (1.0, 1j):
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[a, b] = scale
                mats.append(e)
    return OrderEmbedding("A", 2, r, -4, tuple(mats))
