"""Monomial basis rows and their derivatives.

state_rows builds every row the QP constrains and, at u = 1, the factors
a plan folds into its coefficients when it is made. basis_row is their
scalar reference. A plan keeps every joint's coefficients in one array and
evaluates them itself; plan.joints[j].segments[i].coeffs are views of it.

Each segment is parameterized over normalized local time u = (t - start) / D
in [0, 1]; evaluating the k-th derivative therefore multiplies by D**-k. The
reparameterization keeps the basis conditioned for arbitrarily long
trajectories and is invisible at the API boundary, since state_rows applies
the scaling to the constraint rows and the evaluation alike.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

MIN_DEGREE = 4
MAX_DERIVATIVE = 3


def basis_row(degree: int, u: float, k: int = 0) -> Array:
    """k-th derivative of the monomial row [1, u, u^2, ..., u^degree] w.r.t. u."""
    if degree < MIN_DEGREE:
        raise ValueError(f"polynomial degree must be >= {MIN_DEGREE}, got {degree}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"normalized time must lie in [0, 1], got {u}")
    if not 0 <= k <= MAX_DERIVATIVE:
        raise ValueError(f"derivative order must be in 0..{MAX_DERIVATIVE}, got {k}")
    row = np.zeros(degree + 1)
    for j in range(k, degree + 1):
        factor = 1.0
        for step in range(k):
            factor *= j - step
        row[j] = factor * u ** (j - k)
    return row


@functools.cache
def _state_table(degree: int, orders: tuple[int, ...]) -> tuple[Array, Array, Array]:
    """Derivative factors j! / (j - k)! and u exponents of the rows of the
    given orders k, each (len(orders), degree + 1), and the orders as a
    column."""
    k = np.array(orders)[:, None]
    factors = [[math.perm(j, order) for j in range(degree + 1)] for order in orders]
    return np.array(factors, dtype=float), np.maximum(np.arange(degree + 1) - k, 0), k


def state_rows(degree: int, u, duration, orders: tuple[int, ...] = (0, 1, 2)) -> Array:
    """Rows that map one segment's coefficients to its derivatives of the
    given orders in absolute time at normalized time u: basis_row for each
    order k scaled by duration**-k. u and duration broadcast; shape
    (..., len(orders), degree + 1)."""
    factors, exponents, k = _state_table(degree, orders)
    u = np.asarray(u, dtype=float)[..., None, None]
    duration = np.asarray(duration, dtype=float)[..., None, None]
    return factors * u**exponents / duration**k
