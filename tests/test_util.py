import random

from homtoric.util import echelon

from helpers import naive_pivot_columns


def _random_matrices(rng):
    yield []
    yield [[], []]
    yield [[0, 0, 0], [0, 0, 0]]
    yield [[1, 2, 3], [1, 2, 3], [2, 4, 6]]
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = rng.randrange(4)
        if kind == 0:               # sparse entries
            m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)]
                 for _ in range(rows)]
        elif kind == 1:             # a product through a narrow middle: low rank
            k = rng.randint(1, 3)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
            m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                 for row in left]
        else:                       # dense entries
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if kind == 3:               # duplicate a row and a column
            m.append(list(m[rng.randrange(rows)]))
            j = rng.randrange(cols)
            m = [row + [row[j]] for row in m]
        yield m


def test_pivot_columns_match_naive_elimination():
    rng = random.Random(7)
    ranks = set()
    for m in _random_matrices(rng):
        ours = echelon(m)[0]
        assert ours == naive_pivot_columns(m), m
        ranks.add(len(ours) < min(len(m), len(m[0]) if m else 0))
    assert ranks == {True, False}       # rank-deficient and full-rank cases occur
