"""Functional De-Rating estimation statistics.

The Functional De-Rating factor of a flip-flop is "the number of simulation
runs with a functional failure divided by the number of total simulation
runs" — a binomial proportion.  This module adds the supporting statistics a
campaign planner needs: confidence intervals on the estimate and the classic
statistical-fault-injection sample-size formula used to justify injection
counts like the paper's 170 per flip-flop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["FdrEstimate", "wilson_interval", "required_sample_size"]


@dataclass(frozen=True)
class FdrEstimate:
    """A per-flip-flop FDR estimate with its sampling uncertainty."""

    n_injections: int
    n_failures: int
    confidence: float = 0.95

    @property
    def fdr(self) -> float:
        """Point estimate: failures / injections.

        ``nan`` when no injections were run: "no evidence" must not be
        conflated with "never fails" (0.0 is a *strong* claim at the
        bottom of the FDR range).  Consumers that aggregate estimates
        filter non-finite values explicitly.
        """
        if self.n_injections == 0:
            return float("nan")
        return self.n_failures / self.n_injections

    @property
    def interval(self) -> Tuple[float, float]:
        """Wilson score confidence interval of the FDR."""
        return wilson_interval(self.n_failures, self.n_injections, self.confidence)

    @property
    def margin(self) -> float:
        """Half-width of the confidence interval."""
        low, high = self.interval
        return (high - low) / 2.0


# Cephes ``ndtri`` (Stephen L. Moshier): the inverse of the standard normal
# CDF, the routine behind ``scipy.special.ndtri`` and ``scipy.stats.norm.ppf``.
# Coefficients are highest degree first; ``_Q*`` omit their leading 1.0.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# Central region, |p - 0.5| <= 3/8.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# Tails with x = sqrt(-2 log p) in [2, 8): p down to exp(-32).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# Far tails, x in [8, 64).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: Tuple[float, ...]) -> float:
    """Horner evaluation of ``coef`` (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Tuple[float, ...]) -> float:
    """Horner evaluation with an implied leading 1.0 (Cephes ``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: float) -> float:
    """Standard normal quantile: the *x* with ``Phi(x) == p``.

    A line-for-line port of Cephes ``ndtri``, operation order included,
    so it returns ``scipy.special.ndtri``'s double to the last bit (the
    test suite compares the two on a dense grid over both tails).  Returns
    ``-inf``/``inf`` at 0/1 and ``nan`` outside ``[0, 1]``.
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p < 0.0 or p > 1.0 or p != p:
        return math.nan
    negate = True
    y = p
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@functools.lru_cache(maxsize=None)
def _z_score(confidence: float) -> float:
    """Two-sided normal quantile of a *confidence* level, computed once.

    The sequential policy evaluates Wilson intervals on every gated
    injection, always at the same few confidence levels.  The value must
    be scipy's to the last bit (:func:`_ndtri` is a port of the routine
    scipy evaluates): another implementation, ``statistics.NormalDist``
    included, may differ in the last ulp, and that can flip a retirement
    decision at the margin.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return _ndtri(0.5 + confidence / 2.0)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because FDR values cluster at 0
    and 1, where the Wald interval collapses.
    """
    if trials == 0:
        return (0.0, 1.0)
    z = _z_score(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    low = max(0.0, centre - half)
    high = min(1.0, centre + half)
    # At the boundaries the exact Wilson endpoints are 0/1; avoid returning
    # a bound that excludes the point estimate by a floating-point ulp.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


def required_sample_size(
    population: Optional[int],
    margin: float = 0.05,
    confidence: float = 0.95,
    p: float = 0.5,
) -> int:
    """Number of fault injections for a target error margin.

    Implements the statistical fault-injection sizing formula (Leveugle et
    al., DATE 2009)::

        n = N / (1 + e^2 * (N - 1) / (z^2 * p * (1 - p)))

    where *N* is the fault-universe size (``None`` for an effectively
    infinite universe), *e* the margin of error, *z* the normal quantile of
    the confidence level and *p* the a-priori failure probability (0.5 is
    the conservative worst case).

    With ``margin=0.075`` and 95 % confidence, the infinite-universe size is
    ≈171 — the paper's 170 injections per flip-flop.

    The result is always in ``[1, population]``: a one-element universe
    needs exactly its one sample regardless of margin, a sample can never
    exceed the universe it is drawn from (guards float roundoff in the
    finite-population correction), and *p* arbitrarily close to 0 or 1
    still requires at least one observation.  ``p`` itself must lie
    strictly inside ``(0, 1)`` — at the endpoints the prior asserts the
    outcome and the formula degenerates to a division by zero.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must be in (0, 1)")
    z = _z_score(confidence)
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    base = z * z * p * (1 - p) / (margin * margin)
    if population is None:
        return max(1, math.ceil(base))
    if population <= 0:
        raise ValueError("population must be positive")
    n = population / (1 + margin * margin * (population - 1) / (z * z * p * (1 - p)))
    return min(population, max(1, math.ceil(n)))
