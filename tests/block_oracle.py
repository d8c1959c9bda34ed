"""Test-side oracle of the block cuts: the two ways `PropagationOperator`
once cut a block of a graph's matrix A, written out as functions of the
operator. `cut_slice`, the one cut the program keeps, is held to them array
for array."""

import numpy as np
import scipy.sparse as sp

from fgsam.graphcore import PropagationOperator


def row_slice(a: sp.csr_matrix, rows: np.ndarray):
    """The CSR row pointers of A[rows] and the positions of its stored
    entries in A's `data` and `indices`, each row's in A's order."""
    starts = a.indptr[rows]
    counts = a.indptr[rows + 1] - starts
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    pos = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    return indptr, pos


def row_block(op: PropagationOperator, rows) -> PropagationOperator:
    """The operator of the CSR row slice A[rows], with all n columns, whose
    products count on `op`."""
    rows = np.asarray(rows, dtype=np.int64)
    indptr, pos = row_slice(op.matrix, rows)
    a = op.matrix
    block = sp.csr_matrix((a.data[pos], a.indices[pos], indptr),
                          shape=(rows.size, a.shape[1]))
    return PropagationOperator(op.scheme, block, _source=op)


def restrict(op: PropagationOperator, rows):
    """(block, cols): `cols` are the sorted columns that A[rows] reads, and
    `block` is the operator of the slice A[rows][:, cols], whose products
    count on `op`. The identity operator is its own block and reads
    `rows`."""
    rows = np.asarray(rows, dtype=np.int64)
    if op.is_identity:
        return op, rows
    indptr, pos = row_slice(op.matrix, rows)
    cols, local = np.unique(op.matrix.indices[pos], return_inverse=True)
    block = sp.csr_matrix((op.matrix.data[pos], local, indptr),
                          shape=(rows.size, cols.size))
    return PropagationOperator(op.scheme, block, _source=op), cols


def assert_block_of_slice(op: PropagationOperator):
    """A block's operator holds a read-only CSR matrix, the one matrix both
    its products read."""
    matrix = op.matrix
    assert matrix.format == "csr"
    for name in ("data", "indices", "indptr"):
        assert not getattr(matrix, name).flags.writeable, name
