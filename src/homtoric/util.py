"""Small shared helpers."""

from __future__ import annotations


def pivot_columns(matrix) -> tuple:
    """Pivot columns of an integer matrix by fraction-free (Bareiss)
    Gaussian elimination: the first column is a pivot when nonzero, each
    later one when it is independent of the columns before it.  Their
    number is the rank."""
    m = [list(map(int, row)) for row in matrix]
    if not m:
        return ()
    rows, cols = len(m), len(m[0])
    pivots = []
    prev_pivot = 1
    for c in range(cols):
        rank = len(pivots)
        pivot_row = None
        for r in range(rank, rows):
            if m[r][c] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        p = m[rank][c]
        for r in range(rank + 1, rows):
            factor = m[r][c]
            for cc in range(c, cols):
                m[r][cc] = (m[r][cc] * p - factor * m[rank][cc]) // prev_pivot
        prev_pivot = p
        pivots.append(c)
        if len(pivots) == rows:
            break
    return tuple(pivots)
