"""Helpers shared by every layer: the resource-cap exception, the text
line reader and exact integer elimination.  ``polytope._hyperplanes`` runs
its own batched fraction-free elimination for the facet normals."""

from __future__ import annotations


class ResourceCapExceeded(RuntimeError):
    """A computation would exceed one of its resource caps."""


def content_lines(text: str):
    """Yield ``(raw, line)`` for every line of ``text`` that still has text
    once its ``#`` comment and surrounding spaces are stripped; ``line`` is
    that text, ``raw`` the whole line for error messages."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield raw, line


def echelon(matrix) -> tuple:
    """Fraction-free (Bareiss) Gaussian elimination of an integer matrix.

    Returns ``(pivots, rows)``: the pivot columns (the first column is a
    pivot when nonzero, each later one when it is independent of the
    columns before it; their number is the rank) and the eliminated rows,
    a row echelon form with the pivot rows first.  After k pivots every
    entry of a lower row is, up to sign, a (k + 1)-minor of the input.
    Elimination stops once every row holds a pivot."""
    m = [list(map(int, row)) for row in matrix]
    if not m:
        return (), m
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
    return tuple(pivots), m
