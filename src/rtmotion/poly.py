"""Monomial basis rows, their derivatives, and piecewise-polynomial joint
trajectories.

state_rows builds every row the QP constrains and, at u = 1, the factors
a plan folds into its coefficients when it is made. basis_row is their
scalar reference. A plan keeps every joint's coefficients in one array;
Segment and JointTrajectory are per-joint views of that array and the
reference evaluation the tests compare it against.

Each segment is parameterized over normalized local time u = (t - start) / D
in [0, 1]; evaluating the k-th derivative therefore multiplies by D**-k. The
reparameterization keeps the basis conditioned for arbitrarily long
trajectories and is invisible at the API boundary, since state_rows applies
the scaling to the constraint rows and the evaluation alike.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Segment:
    """One polynomial piece: coefficients over normalized local time."""

    coeffs: Array
    start_time: float
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.duration <= 0:
            raise ValueError("segment duration must be positive")
        if self.coeffs.shape[0] < MIN_DEGREE + 1:
            raise ValueError("segment needs at least degree-4 coefficients")

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def eval(self, t: float, k: int = 0) -> float:
        """Evaluate the k-th time derivative at absolute time t."""
        if not self.start_time <= t <= self.end_time:
            raise ValueError(
                f"t={t} outside segment [{self.start_time}, {self.end_time}]"
            )
        u = (t - self.start_time) / self.duration
        return float(basis_row(self.degree, min(u, 1.0), k) @ self.coeffs) * self.duration**-k


class JointTrajectory:
    """Contiguous piecewise polynomial for one joint, with hold past the end.

    Evaluation maps every t >= 0 to exactly one rule: boundary times belong to
    the later segment, and any t >= total_time returns the terminal position
    with zero velocity and acceleration.
    """

    def __init__(self, segments: list[Segment]):
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        for prev, nxt in zip(segments, segments[1:]):
            if abs(nxt.start_time - prev.end_time) > 1e-9:
                raise ValueError("segments are not contiguous")
        self.segments = list(segments)
        self.total_time = segments[-1].end_time
        self._starts = [seg.start_time for seg in segments]
        self._terminal_q = segments[-1].eval(segments[-1].end_time, 0)

    def segment_index(self, t: float) -> int:
        # boundary times map to the later segment
        return min(bisect.bisect_right(self._starts, t) - 1, len(self.segments) - 1)

    def eval(self, t: float) -> tuple[float, float, float]:
        """Position, velocity, acceleration at time t (t=0 is trajectory start)."""
        if t < self.segments[0].start_time:
            raise ValueError(f"t={t} precedes trajectory start")
        if t >= self.total_time:
            return self._terminal_q, 0.0, 0.0
        seg = self.segments[self.segment_index(t)]
        return seg.eval(t, 0), seg.eval(t, 1), seg.eval(t, 2)

    def junction_residuals(self) -> Array:
        """Max |left - right| mismatch in (q, qd, qdd) over interior junctions.

        Solved trajectories should make these vanish to solver tolerance; a
        large residual indicates a bad QP solution.
        """
        worst = np.zeros(3)
        for left, right in zip(self.segments, self.segments[1:]):
            t = right.start_time
            for k in range(3):
                gap = abs(left.eval(left.end_time, k) - right.eval(t, k))
                worst[k] = max(worst[k], gap)
        return worst
