"""Small shared helpers."""

from __future__ import annotations


def exact_rank(matrix) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(map(int, row)) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev_pivot = 1
    for c in range(cols):
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
        rank += 1
        if rank == rows:
            break
    return rank
