"""ε-insensitive Support Vector Regression with an SMO solver.

The paper's third model: "the goal of the Support Vector Regression is to
find a function that deviates from the target value by a value not greater
than ε for each training point, and at the same time is as flat as
possible", with the RBF kernel and tuned hyperparameters C = 3.5,
γ = 0.055, ε = 0.025.

Formulation
-----------
We solve the standard dual in the combined coefficients β = α − α*::

    max_β  −½ βᵀKβ − ε Σ|βᵢ| + Σ yᵢ βᵢ
    s.t.   Σ βᵢ = 0,   −C ≤ βᵢ ≤ C

by Sequential Minimal Optimization with LIBSVM's working-set rule (Fan,
Chen & Lin, JMLR 2005): i maximizes the directional derivative along +e_i;
j, among partners whose pair (i, j) violates the KKT conditions, maximizes
the second-order gain violation² / (K_ii + K_jj − 2 K_ij).  The pair's
subproblem, piecewise quadratic in βᵢ under the equality constraint, is
solved *exactly* from each piece's vertex, the breakpoints (βᵢ or βⱼ = 0)
and the box corners.  The loop stops once no pair violates by ``tol``.

Only the pair's two coefficients change per step, so the pair selection
keeps its per-sample parts incrementally.  The directional derivatives are
``r + up_off`` and ``down_off − r`` with residual ``r = y − f``; the offsets
``up_off``/``down_off`` (−ε, +ε, or −∞ at the box bound) depend on the sign
and bound of βᵢ alone and are rewritten at i and j after each pair solve.
``f = Kβ`` is updated from two kernel columns, and the curvatures are
computed once per fit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .base import BaseEstimator, check_X, check_X_y
from .kernels import get_kernel

__all__ = ["SVR"]


class SVR(BaseEstimator):
    """ε-SVR with RBF/linear/polynomial kernels.

    Parameters
    ----------
    C:
        Penalty (box) parameter; larger C fits the data more tightly.
    epsilon:
        Half-width of the ε-insensitive tube.
    kernel / gamma / degree / coef0:
        Kernel family and its parameters.
    tol:
        KKT violation tolerance for convergence.
    max_iter:
        Cap on SMO pair updates.

    After ``fit``, ``n_iter_`` is the number of SMO iterations run and
    ``converged_`` tells whether the KKT violation fell below *tol*;
    ``False`` means the solver stopped at *max_iter*.
    """

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        kernel: str = "rbf",
        gamma: float = 0.1,
        degree: int = 3,
        coef0: float = 1.0,
        tol: float = 1e-4,
        max_iter: int = 20000,
    ) -> None:
        self.C = C
        self.epsilon = epsilon
        self.kernel = kernel
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.tol = tol
        self.max_iter = max_iter

    # ------------------------------------------------------------------ fit

    def _kernel_fn(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        return get_kernel(
            self.kernel, gamma=self.gamma, degree=self.degree, coef0=self.coef0
        )

    def fit(self, X, y) -> "SVR":
        X, y = check_X_y(X, y)
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        n = X.shape[0]
        K = self._kernel_fn()(X, X)
        # Columns of K as contiguous rows.  K comes from a BLAS product and
        # need not be bit-symmetric, so its rows are no substitute.
        columns = np.ascontiguousarray(K.T)
        diag = K.diagonal().copy()
        # Row i: curvature K_ii + K_jj - 2 K_ij of a step along e_i - e_j,
        # floored so that j = i stays finite.  It takes over K's buffer.
        curvature = np.multiply(columns, -2.0, out=K)
        curvature += diag
        curvature += diag[:, None]
        np.maximum(curvature, 1e-12, out=curvature)
        targets = y.tolist()
        C, eps = float(self.C), float(self.epsilon)
        beta = [0.0] * n
        # f = K @ beta, maintained incrementally.
        f = np.zeros(n)
        up0, down0 = self._offsets(0.0, C, eps)
        up_off, down_off = np.full(n, up0), np.full(n, down0)
        r, up, gain = np.empty(n), np.empty(n), np.empty(n)

        n_iter = 0
        converged = False
        for n_iter in range(1, self.max_iter + 1):
            # Directional derivatives of the dual along +e_i (r + up_off) and
            # -e_j (down_off - r); up_i + down_j is the pair's KKT violation.
            np.subtract(y, f, out=r)
            np.add(r, up_off, out=up)
            np.subtract(down_off, r, out=gain)
            i = int(up.argmax())
            gain += up[i]
            # Rounding is monotone, so the largest entry is up_i + max(down).
            if gain[gain.argmax()] < self.tol:
                converged = True
                break
            # Second-order partner: the unconstrained pair step's gain.
            np.maximum(gain, 0.0, out=gain)
            np.square(gain, out=gain)
            gain /= curvature[i]
            gain[i] = -np.inf
            j = int(gain.argmax())
            bi_old, bj_old = beta[i], beta[j]
            bi, bj = self._solve_pair(
                bi_old, bj_old, float(f[i]), float(f[j]),
                float(diag[i]), float(diag[j]), float(columns[j, i]),
                targets[i] - targets[j], C, eps,
            )
            di, dj = bi - bi_old, bj - bj_old
            if di == 0.0 and dj == 0.0:
                continue
            beta[i], beta[j] = bi, bj
            up_off[i], down_off[i] = self._offsets(bi, C, eps)
            up_off[j], down_off[j] = self._offsets(bj, C, eps)
            f += di * columns[i] + dj * columns[j]
        self.n_iter_ = n_iter
        self.converged_ = converged

        beta = np.array(beta)
        support = np.abs(beta) > 1e-10
        self.beta_ = beta
        self.support_ = np.flatnonzero(support)
        self.support_vectors_ = X[support]
        self.dual_coef_ = beta[support]
        self.intercept_ = self._compute_bias(beta, f, y, C, eps)
        return self

    @staticmethod
    def _offsets(b: float, C: float, eps: float) -> tuple:
        """Selection offsets ``(up, down)`` of one sample with coefficient *b*.

        The |beta| kink is one-sided at zero: moving away from zero always
        pays +eps.  A coefficient at its box bound cannot move further
        (offset -inf).
        """
        up = -np.inf if b >= C - 1e-12 else (-eps if b >= 0.0 else eps)
        down = -np.inf if b <= -C + 1e-12 else (eps if b > 0.0 else -eps)
        return up, down

    @staticmethod
    def _solve_pair(
        bi_old: float,
        bj_old: float,
        fi: float,
        fj: float,
        kii: float,
        kjj: float,
        kij: float,
        dy: float,
        C: float,
        eps: float,
    ) -> tuple:
        """Exact maximization over (beta_i, beta_j) with beta_i+beta_j fixed.

        Takes the pair's current coefficients and outputs, the kernel
        entries and ``dy = y_i - y_j``; returns the new ``(beta_i, beta_j)``.
        """
        s = bi_old + bj_old
        eta = kii + kjj - 2.0 * kij
        # Residuals of f without the (i, j) contributions.
        fi0 = fi - kii * bi_old - kij * bj_old
        fj0 = fj - kij * bi_old - kjj * bj_old

        # Objective restricted to t = beta_i (beta_j = s - t), dropping
        # terms independent of t:
        #   g(t) = -0.5*eta*t^2 + (y_i - y_j - fi0 + fj0 + eta_js)*t
        #          - eps*(|t| + |s - t|)   with eta_js = (kjj - kij)*s
        lin = dy - fi0 + fj0 + (kjj - kij) * s
        lo = max(-C, s - C)
        hi = min(C, s + C)

        def g(t: float) -> float:
            return -0.5 * eta * t * t + lin * t - eps * (abs(t) + abs(s - t))

        candidates = [lo, hi]
        for breakpoint in (0.0, s):
            if lo < breakpoint < hi:
                candidates.append(breakpoint)
        # Vertex of each smooth piece: g'(t) = -eta*t + lin - eps*(sgn_i - sgn_j)
        if eta > 1e-12:
            for sign_i in (-1.0, 1.0):
                for sign_j in (-1.0, 1.0):
                    t_star = (lin - eps * (sign_i - sign_j)) / eta
                    if lo <= t_star <= hi:
                        # Keep only if consistent with its sign region
                        # (tolerate boundaries).
                        if sign_i * t_star >= -1e-12 and sign_j * (s - t_star) >= -1e-12:
                            candidates.append(t_star)
        best_t = max(candidates, key=g)
        bi_new = min(max(best_t, lo), hi)
        return bi_new, s - bi_new

    @staticmethod
    def _compute_bias(beta, f, y, C, eps) -> float:
        """Bias from margin support vectors (0 < |beta| < C) or bound means."""
        margin = (np.abs(beta) > 1e-8) & (np.abs(beta) < C - 1e-8)
        if margin.any():
            b = y[margin] - f[margin] - eps * np.sign(beta[margin])
            return float(np.mean(b))
        # Fall back to the midpoint of the KKT-feasible interval of b: samples
        # that can still grow bound it from below, those that can shrink above.
        r = y - f
        lower = np.max(np.where(beta < 0, r + eps, r - eps)[beta < C - 1e-8], initial=-np.inf)
        upper = np.min(np.where(beta > 0, r - eps, r + eps)[beta > -C + 1e-8], initial=np.inf)
        if np.isfinite(lower) and np.isfinite(upper):
            return float((lower + upper) / 2.0)
        return float(np.mean(r))

    # -------------------------------------------------------------- predict

    def predict(self, X) -> np.ndarray:
        self._check_fitted("dual_coef_")
        X = check_X(X)
        if len(self.dual_coef_) == 0:
            return np.full(X.shape[0], self.intercept_)
        K = self._kernel_fn()(X, self.support_vectors_)
        return K @ self.dual_coef_ + self.intercept_
