"""Conversions shared by the tests."""

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
