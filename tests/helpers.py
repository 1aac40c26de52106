"""Conversions and oracles shared by the tests."""

import numpy as np


def to_int_array(mat):
    """Integer numpy copy of an ExactMatrix; raises on non-integer entries."""
    out = np.empty((mat.rows, mat.cols), dtype=object)
    for i, row in enumerate(mat.data):
        for j, v in enumerate(row):
            if not v.is_integer():
                raise ValueError(f"non-integer entry at ({i}, {j}): {v}")
            out[i, j] = v.triple()[0]
    return out.astype(np.int64)


def rank_mod_p_oracle(rows, p):
    """Rank mod p by pure-Python elimination on sparse dict rows.

    Each row is reduced by the pivot row of its smallest nonzero column
    until it vanishes or that column has no pivot row yet; then it becomes
    the pivot row of that column, scaled to a leading 1.
    """
    pivots = {}
    for row in rows:
        x = {j: v % p for j, v in enumerate(row) if v % p}
        while x:
            col = min(x)
            if col not in pivots:
                inv = pow(x[col], p - 2, p)
                pivots[col] = {j: v * inv % p for j, v in x.items()}
                break
            f = x[col]
            for j, v in pivots[col].items():
                w = (x.get(j, 0) - f * v) % p
                if w:
                    x[j] = w
                else:
                    x.pop(j, None)
    return len(pivots)
