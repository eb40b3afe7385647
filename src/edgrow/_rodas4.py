"""RODAS4 attempts, and solves with ``I - g J`` for the Jacobian ``J`` of
the truncated right-hand side.

:class:`Rodas4` takes one attempt of one state, ``(c, dt) -> (c_new,
err_vec)``, for ``dynamics._Stepper``, which judges and books it as it does a
Fehlberg attempt.  It is imported only by the steppers of stiff runs.

With the rates ``A_k``, ``B_k`` frozen at a state ``c``, the flux
``A_k c_k - B_{k+1} c_{k+1}`` is bidiagonal in ``c``, so ``I - g J`` is the
tridiagonal ``T`` (diagonal ``1 + g (A_k + B_k)``, sub-diagonal
``-g A_{k-1}``, super-diagonal ``-g B_{k+1}``, with ``B_0 = A_N = 0``) plus
rank ``2r``.  Each kernel term ``b_r(l) a_r(k)`` adds the rate sums'
dependence on ``c``: a column ``-g D(c a_r)`` times the donor row ``b_r``
and a column ``g D(c b_r)`` times the acceptor row ``a_r``, where ``D``
takes fluxes to ``dc/dt``.  :class:`ShiftedJacobian` factors ``T`` and
applies the ``2r`` columns by Sherman-Morrison-Woodbury, in O(N r^2).
It calls only the BLAS routines the right-hand side already pages in
(``ddot``, ``dgemv``), not ``dgemm`` or LAPACK, whose code would raise a
run's peak memory by about 0.6 MiB.

``T`` is a column-diagonally dominant M-matrix (every column sums to 1), so
Gaussian elimination needs no pivoting: every pivot is at least 1 and every
multiplier is nonnegative.  The pivots are a scalar recurrence, one Python
loop per factor.  Both triangular sweeps are first-order recurrences
``y_k = b_k + w_k y_{k-1}``, the backward one run on the reversed vector.
Each runs blockwise: every block of ``_BLOCK`` sizes is one batched
``np.matmul`` with the inverse of its bidiagonal factor, and the values the
blocks hand on are the same recurrence over the blocks' last values, one
Python loop of ``N / _BLOCK`` steps.
"""

from __future__ import annotations

import math

import numpy as np

# RODAS4 (Hairer & Wanner, Solving ODEs II, IV.7; rodas.f, METH = 1) for an
# autonomous system, with the exact Jacobian J at the step's start:
#   (I - gamma h J) k_i = gamma h f(c + sum_j a_ij k_j) + sum_j gamma c_ij k_j.
# Stage 6 starts from c + a_51 k_1 + .. + a_54 k_4 + k_5, the embedded
# third-order solution; the fourth-order one adds k_6, which is the error.
_ROS_GAMMA = 0.25
_ROS_A = (
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 1.0),
)
_ROS_C = (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
     -6.058818238834054),
)
# Per stage 2..6, its a_ij (row 0) and gamma c_ij (row 1) as columns that
# scale whole stages.
_ROS_COLUMNS = tuple(
    np.array([a_row, [_ROS_GAMMA * x for x in c_row]])[:, :, None]
    for a_row, c_row in zip(_ROS_A, _ROS_C)
)
# Sizes per block of the sweeps: the block inverses hold N * _BLOCK entries.
_BLOCK = 16


class Rodas4:
    """RODAS4 attempts of one state of truncation ``N``: the stepper's stage
    buffer (six state-length rows) and scratch row, the right-hand side and
    the rates at the step's start, the two products buffers of the stage
    sums and a :class:`ShiftedJacobian`.

    Entry 0 of the stage inputs' products buffer holds ``c``, and entry 0 of
    the solves' one the scaled stage right-hand side, so each stage's input
    ``c + sum_j a_ij k_j`` and right-hand side ``gamma dt f + sum_j gamma
    c_ij k_j`` come from one multiply and two reductions.
    """

    def __init__(self, kernel, work, stages: np.ndarray, scratch: np.ndarray):
        self.kernel, self.work, self.stages, self.scratch = kernel, work, stages, scratch
        n = stages.shape[-1]
        self.jacobian = ShiftedJacobian([(work.b_vals, work.a_vals), *work.rest], n - 1)
        self.rhs0, self.rates0 = np.empty(n), np.empty((2, n - 1))
        self.products = np.empty((2, 7, n))

    def attempt(self, rhs, c: np.ndarray, dt: float, c_new: np.ndarray, fresh: bool) -> np.ndarray:
        """One attempt from ``c`` over ``dt`` with the right-hand side
        ``rhs`` (``dynamics._rhs_from_c``): the fourth-order solution goes to
        ``c_new``, and ``k_6``, its difference from the embedded third-order
        one, is returned in the stage buffer.  ``fresh`` says ``c`` is new
        since the last attempt, so stage 0 and the rates are evaluated;
        ``I - gamma dt J`` is factored per attempt."""
        stages, products, work, jacobian = self.stages, self.products, self.work, self.jacobian
        if fresh:
            rhs(self.kernel, c, out=self.rhs0, work=work)
            np.copyto(self.rates0[0], work.a_rates)
            np.copyto(self.rates0[1], work.b_rates)
            products[0, 0] = c
        g = _ROS_GAMMA * dt
        jacobian.factor(g, self.rates0[0], self.rates0[1], c)
        jacobian.solve(np.multiply(self.rhs0, g, out=products[1, 0]), stages[0])
        for i, columns in enumerate(_ROS_COLUMNS, start=1):
            np.multiply(stages[:i], columns, out=products[:, 1 : i + 1])
            stage_input = np.add.reduce(products[0, : i + 1], axis=0, out=c_new)
            rhs(self.kernel, stage_input, out=products[1, 0], work=work)
            products[1, 0] *= g
            jacobian.solve(np.add.reduce(products[1, : i + 1], axis=0, out=self.scratch), stages[i])
        np.add(c_new, stages[5], out=c_new)
        return stages[5]


class ShiftedJacobian:
    """Factor of ``I - g J`` at one state of truncation ``N``, made by
    :meth:`factor`; :meth:`solve` applies its inverse.

    ``factors`` are the kernel's factor vectors as ``kernels._factor_vectors``
    lists them, pairs ``(b_r(1..N), a_r(0..N-1))``.  Every buffer, and every
    view of one that a factor or a solve uses, is made here, once.
    """

    def __init__(self, factors, n_trunc: int):
        self.factors = [(np.asarray(b), np.asarray(a)) for b, a in factors]
        n = n_trunc + 1
        blocks = -(-n // _BLOCK)
        rank = 2 * len(self.factors)
        padded = blocks * _BLOCK
        # Multipliers of the forward sweep (side 0) and of the reversed
        # backward sweep (side 1), zero where they link to a size past 0..N;
        # the reversed pivots' reciprocals, 1 past N.
        self.weights = np.zeros((2, blocks, _BLOCK))
        flat = self.weights.reshape(2, padded)
        self.forward, self.backward = flat[0, 1:n], flat[1, ::-1][: n - 1]
        self.inv_pivots = np.ones(padded)
        self.inv = self.inv_pivots[::-1][:n]  # sizes 0..N
        # The inverse of each block's unit lower-bidiagonal factor, entry
        # (i, i') the product of w_{i'+1} .. w_i, is built row by row (row i
        # is w_i times row i - 1, left of the unit diagonal) in a layout with
        # the block innermost, where a row is one contiguous multiply, and
        # copied to the layout the sweeps' matmul reads.
        self.weights_by_row = np.empty((_BLOCK, 2 * blocks))
        self.by_row = np.zeros((_BLOCK, _BLOCK, 2 * blocks))
        self.by_row[range(_BLOCK), range(_BLOCK)] = 1.0
        self.row_updates = [
            (self.by_row[i - 1, :i], self.weights_by_row[i], self.by_row[i, :i])
            for i in range(1, _BLOCK)
        ]
        self.inverses = np.empty((2, blocks, _BLOCK, _BLOCK))
        # The weight of the value carried into a block in each of its rows;
        # the last row's is the block's end weight, the product of its own.
        self.carry = np.empty((2, blocks, _BLOCK, 1))
        self.end_weights = [[], []]
        # Sweep buffers for one vector and for the Woodbury columns.
        self.sweeps = {(): _Sweep((), blocks, n), (rank,): _Sweep((rank,), blocks, n)}
        # Woodbury: rows V (2r x sizes), columns U and T^-1 U (as rows), and
        # C^-1 V for the capacitance C = I + V T^-1 U.
        self.rows = np.zeros((rank, n))
        for r, (b, a) in enumerate(self.factors):
            self.rows[2 * r, 1:] = b
            self.rows[2 * r + 1, :-1] = a
        self.flux = np.zeros((rank, n + 1))  # zero flux outside 0..N-1
        self.columns = np.empty((rank, n))
        self.solved = np.empty((rank, n))
        self.projector = np.empty((rank, n))

    def factor(self, g: float, a_rates: np.ndarray, b_rates: np.ndarray, c: np.ndarray) -> None:
        """Factor ``I - g J`` at state ``c`` with rates ``A_0..A_{N-1}``
        (``a_rates``) and ``B_1..B_N`` (``b_rates``)."""
        ga, gb = g * a_rates, g * b_rates
        # Pivot k is g A_k + e_k, with e_0 = 1 and
        # e_k = 1 + g B_k e_{k-1} / (g A_{k-1} + e_{k-1}).
        e = 1.0
        e_list = [e := 1.0 + b * e / (a + e) for a, b in zip(memoryview(ga), memoryview(gb))]
        inv = self.inv
        inv[1:] = e_list
        inv[1:-1] += ga[1:]
        inv[0] = ga[0] + 1.0
        np.divide(1.0, inv, out=inv)
        # Forward: y_k = b_k + w_k y_{k-1} with w_k = g A_{k-1} / p_{k-1}.
        # Backward: x_k = y_k / p_k + v_k x_{k+1} with v_k = g B_{k+1} / p_k,
        # which on the reversed vector is again a forward recurrence.
        np.multiply(ga, inv[:-1], out=self.forward)
        np.multiply(gb, inv[:-1], out=self.backward)

        np.copyto(self.weights_by_row, self.weights.reshape(-1, _BLOCK).T)
        for previous, weight, row in self.row_updates:
            np.multiply(previous, weight, out=row)
        np.copyto(self.inverses.reshape(-1, _BLOCK, _BLOCK), self.by_row.transpose(2, 0, 1))
        np.multiply(self.inverses[..., :1], self.weights[..., :1, None], out=self.carry)
        self.end_weights = self.carry[:, :, -1, 0].tolist()

        # Woodbury columns -g D(c a_r) and g D(c b_r); D J = J_{k-1} - J_k.
        flux = self.flux[:, 1:-1]
        for r, (b, a) in enumerate(self.factors):
            np.multiply(c[:-1], a, out=flux[2 * r])
            np.multiply(c[1:], b, out=flux[2 * r + 1])
        flux[0::2] *= -g
        flux[1::2] *= g
        np.subtract(self.flux[:, :-1], self.flux[:, 1:], out=self.columns)
        np.copyto(self.solved, self._solve_tridiagonal(self.columns))
        capacitance = np.vecdot(self.rows[:, None], self.solved[None])
        capacitance.flat[:: len(capacitance) + 1] += 1.0
        for inverse_row, projector_row in zip(_small_inverse(capacitance), self.projector):
            np.dot(inverse_row, self.rows, out=projector_row)

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = (I - g J)^-1 rhs`` for one vector of sizes ``0..N``."""
        x = self._solve_tridiagonal(rhs)
        return np.subtract(x, np.dot(self.projector, x) @ self.solved, out=out)

    def _solve_tridiagonal(self, rhs: np.ndarray) -> np.ndarray:
        """``T^-1`` applied to each vector of sizes ``0..N`` in ``rhs`` (one,
        or the Woodbury columns), as a view of a sweep buffer that the next
        solve of as many vectors overwrites.

        Each sweep is one batched matrix-vector product with the block
        inverses (BLAS ``dgemv``), then the carry: the value carried into
        block ``j`` is ``Y_{j-1}``, where ``Y_j = last_j + E_j Y_{j-1}`` for
        the block's last value ``last_j`` and end weight ``E_j``, and it
        weighs the block's carry column."""
        sweep = self.sweeps[rhs.shape[:-1]]
        sweep.input[...] = rhs
        for side, (source, target, last, carried, scaled) in enumerate(sweep.passes):
            np.matmul(self.inverses[side], source, out=target)
            ends = self.end_weights[side]
            for lasts, row in zip(last.reshape(-1, len(ends)).tolist(), carried.reshape(-1, len(ends))):
                y = 0.0
                row[1:] = [y := value + end * y for value, end in zip(lasts[:-1], ends)]
            np.multiply(self.carry[side], carried[..., None], out=scaled)
            target += scaled
            if side == 0:
                np.multiply(sweep.forward_reversed, self.inv_pivots, out=sweep.scaled_input)
        return sweep.result


class _Sweep:
    """Buffers of the two sweeps for vectors stacked as ``lead``: input (its
    padding stays zero), forward sweep, its reversed scaled copy and
    backward sweep, blocked and flat, with the views each pass reads and
    writes and the values carried into each block (zero into the first);
    the solution is a view of the last."""

    def __init__(self, lead: tuple, blocks: int, n: int):
        blocked = np.zeros((4, *lead, blocks, _BLOCK, 1))
        flat = blocked.reshape(4, *lead, blocks * _BLOCK)
        self.input = flat[0, ..., :n]
        self.forward_reversed, self.scaled_input = flat[1, ..., ::-1], flat[2]
        self.result = flat[3, ..., ::-1][..., :n]
        self.passes = [
            (blocked[i], blocked[i + 1], blocked[i + 1, ..., -1, :],
             np.zeros((*lead, blocks, 1)), np.empty((*lead, blocks, _BLOCK, 1)))
            for i in (0, 2)
        ]


def _small_inverse(matrix: np.ndarray) -> list:
    """Rows of the inverse of a small matrix, by Gauss-Jordan elimination
    with partial pivoting in Python floats.  A singular matrix gives
    non-finite rows, which the step then rejects."""
    k = len(matrix)
    rows = [row + [float(i == j) for j in range(k)] for i, row in enumerate(matrix.tolist())]
    for col in range(k):
        pivot = max(range(col, k), key=lambda i: abs(rows[i][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = 1.0 / rows[col][col] if rows[col][col] else math.inf
        head = rows[col] = [x * scale for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                factor = row[col]
                rows[i] = [x - factor * y for x, y in zip(row, head)]
    return [row[k:] for row in rows]
