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

from scipy import stats

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


@functools.lru_cache(maxsize=None)
def _z_score(confidence: float) -> float:
    """Two-sided normal quantile of a *confidence* level, computed once.

    The sequential policy evaluates Wilson intervals on every gated
    injection, always at the same few confidence levels.  The value is
    scipy's quantile on purpose: another implementation may differ in the
    last ulp, and that can flip a retirement decision at the margin.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return float(stats.norm.ppf(0.5 + confidence / 2.0))


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
