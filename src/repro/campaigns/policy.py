"""Sampling policies: how many injections each flip-flop actually gets.

The paper's flat protocol spends the same 170 draws on every flip-flop,
because the Leveugle sizing formula
(:func:`~repro.faultinjection.fdr.required_sample_size`) is a *worst-case*
bound at ``p = 0.5``.  Most flip-flops are nowhere near the worst case —
their FDR estimate is pinned close to 0 or 1 after a few dozen draws — so a
*sequential* protocol that checks the Wilson interval as results arrive can
retire them early and spend the freed budget on the genuinely uncertain
ones.

A :class:`SamplingPolicy` makes that decision at two points:

* **between rounds** (:meth:`SamplingPolicy.allocate`) — given the merged
  per-flip-flop tallies, decide which flip-flops get how many more draws.
  Draws are addressed by their *index in the flip-flop's prefix-stable
  stream* (:class:`~repro.campaigns.partition.DrawStream`), so an
  allocation is a ``{ff: (start, stop)}`` range map and repeated runs with
  the same seed replay the same injection cycles;
* **inside a shard** (:class:`ShardGate`) — the
  :class:`~repro.faultinjection.scheduler.AdaptiveScheduler` refill queue
  asks the gate before activating each pending injection, and reports every
  verdict back as lanes retire, so a flip-flop whose interval collapses
  mid-shard stops consuming lanes immediately instead of at the next round
  boundary.

Two policies ship:

``flat``
    The paper protocol: every flip-flop gets exactly the nominal budget in
    one round, nothing is retired early.  ``CampaignSpec(policy="flat")``
    runs the unchanged engine path and is bit-identical to the
    pre-policy pipeline under fixed seeds.

``sequential``
    Per-flip-flop Wilson early stopping: a flip-flop is retired once its
    interval half-width falls under ``target_margin`` (after
    :data:`MIN_INJECTIONS` draws), and budget freed by retirement is
    reallocated to the widest-interval flip-flops, up to
    :data:`MAX_BUDGET_FACTOR` times the nominal per-flip-flop budget.
    ``target_margin=0.0`` never retires anything — the *fixed-seed
    equivalence mode*: it must reproduce the flat counters draw-for-draw
    (regression-tested on every library circuit in
    ``tests/test_policy.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

from ..faultinjection.fdr import wilson_interval

__all__ = [
    "SAMPLING_POLICIES",
    "DEFAULT_TARGET_MARGIN",
    "SamplingPolicy",
    "FlatPolicy",
    "SequentialWilsonPolicy",
    "ShardGate",
    "make_policy",
    "policy_signature",
    "interval_margin",
    "realized_margins",
]

#: Valid ``CampaignSpec.policy`` values.  Single source of truth for spec
#: validation and the CLI ``--policy`` choices.
SAMPLING_POLICIES = ("flat", "sequential")

#: The paper's margin of error: ``required_sample_size(None, margin=0.075)``
#: is the 170-injections-per-flip-flop protocol.
DEFAULT_TARGET_MARGIN = 0.075

#: Confidence level of every per-flip-flop Wilson interval.
CONFIDENCE = 0.95

#: Minimum draws per flip-flop before any stopping decision.  Guards the
#: sequential policy against freak early streaks; clamped to the nominal
#: budget for tiny campaigns.
MIN_INJECTIONS = 24

#: Reallocation ceiling: a flip-flop may receive at most this multiple of
#: the nominal per-flip-flop budget (further capped by the active window,
#: since draws are sampled without replacement).
MAX_BUDGET_FACTOR = 4


def interval_margin(n: int, k: int) -> float:
    """Wilson interval half-width of *k* failures in *n* injections, at
    :data:`CONFIDENCE`."""
    low, high = wilson_interval(k, n, CONFIDENCE)
    return (high - low) / 2.0


def realized_margins(tallies: Mapping[str, Sequence[int]]) -> Dict[str, float]:
    """Per-flip-flop realized Wilson margins of a tally map."""
    return {name: interval_margin(rec[0], rec[1]) for name, rec in tallies.items()}


class SamplingPolicy:
    """Decides, online, how the injection budget is spent per flip-flop.

    Tallies are ``{ff_name: [n, k, consumed]}``:

    * ``n`` — draws actually *executed* (what the Wilson interval is built
      from, and what the budget accounting charges);
    * ``k`` — failures among them;
    * ``consumed`` — the flip-flop's position in its prefix-stable draw
      stream.  In-shard gating may *skip* scheduled draws (they cost
      nothing, but their stream indices are spent), so ``consumed >= n``;
      allocating from ``consumed`` rather than ``n`` guarantees a draw
      index is never scheduled twice.
    """

    name = "abstract"

    def retired(self, n: int, k: int) -> bool:
        """Whether a flip-flop with tally ``(n, k)`` needs no more draws."""
        raise NotImplementedError

    def allocate(
        self, tallies: Mapping[str, Sequence[int]], window_len: int
    ) -> Dict[str, Tuple[int, int]]:
        """Draw-stream ranges ``{ff: (start, stop)}`` for the next round.

        ``start``/``stop`` index the flip-flop's prefix-stable draw stream
        (``start`` is always the flip-flop's current ``consumed``); an
        empty map means the campaign is finished.  Must be a deterministic
        function of the tallies (the engine replays it on resume).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FlatPolicy(SamplingPolicy):
    """The paper protocol: one round, nominal draws for everyone."""

    nominal: int
    name = "flat"

    def retired(self, n: int, k: int) -> bool:
        return n >= self.nominal

    def allocate(
        self, tallies: Mapping[str, Sequence[int]], window_len: int
    ) -> Dict[str, Tuple[int, int]]:
        allocation: Dict[str, Tuple[int, int]] = {}
        for name, rec in tallies.items():
            missing = self.nominal - rec[0]
            if missing > 0:
                consumed = rec[2] if len(rec) > 2 else rec[0]
                allocation[name] = (consumed, consumed + missing)
        return allocation


@dataclass(frozen=True)
class SequentialWilsonPolicy(SamplingPolicy):
    """Sequential Wilson early stopping with budget reallocation.

    Parameters
    ----------
    nominal:
        The flat protocol's per-flip-flop budget (defines the total budget
        ``nominal × n_ffs`` the policy may not exceed).
    target_margin:
        Retire a flip-flop once its Wilson interval half-width is at or
        under this value.  ``0.0`` disables early stopping entirely (the
        fixed-seed equivalence mode).

    The rest are rules of the module: intervals at :data:`CONFIDENCE`; no
    stopping decision before :data:`MIN_INJECTIONS` draws (clamped to
    *nominal*); ``max(8, nominal // 4)`` draws per flip-flop per round —
    small enough that early stopping bites, large enough that scheduler
    passes stay saturated; and at most :data:`MAX_BUDGET_FACTOR` ×
    *nominal* draws per flip-flop, capped by the active-window length
    (draws are sampled without replacement).
    """

    nominal: int
    target_margin: float = DEFAULT_TARGET_MARGIN
    name = "sequential"

    def _min_injections(self) -> int:
        return max(1, min(MIN_INJECTIONS, self.nominal))

    def _round_size(self) -> int:
        return max(8, self.nominal // 4)

    def _cap(self, window_len: int) -> int:
        return max(1, min(MAX_BUDGET_FACTOR * self.nominal, window_len))

    @cached_property
    def _retired_memo(self) -> Dict[Tuple[int, int], bool]:
        return {}

    def retired(self, n: int, k: int) -> bool:
        """The stopping rule, memoized per ``(n, k)``: the shard gate
        asks before every activation, and a tally repeats across them."""
        memo = self._retired_memo
        verdict = memo.get((n, k))
        if verdict is None:
            verdict = memo[n, k] = self._stopping_rule(n, k)
        return verdict

    def _stopping_rule(self, n: int, k: int) -> bool:
        """Whether a flip-flop with tally ``(n, k)`` may stop: at least the
        minimum draws and a Wilson half-width at or under the target."""
        if n < self._min_injections():
            return False
        if self.target_margin <= 0.0:
            return False
        return interval_margin(n, k) <= self.target_margin

    def allocate(
        self, tallies: Mapping[str, Sequence[int]], window_len: int
    ) -> Dict[str, Tuple[int, int]]:
        round_size = self._round_size()
        cap = self._cap(window_len)
        budget = self.nominal * len(tallies)
        spent = sum(rec[0] for rec in tallies.values())
        pool = budget - spent

        allocation: Dict[str, Tuple[int, int]] = {}
        hungry: List[Tuple[float, str, int, int, int]] = []
        for name in sorted(tallies):
            rec = tallies[name]
            n, k = rec[0], rec[1]
            consumed = rec[2] if len(rec) > 2 else rec[0]
            stream_left = window_len - consumed
            if stream_left <= 0 or n >= cap or self.retired(n, k):
                continue
            if n < min(self.nominal, cap):
                grant = min(round_size, min(self.nominal, cap) - n, stream_left)
                allocation[name] = (consumed, consumed + grant)
                pool -= grant
            else:
                # Past the nominal budget: competes for the freed pool,
                # widest interval first (ties broken by name for
                # determinism).
                hungry.append(
                    (-interval_margin(n, k), name, n, consumed, stream_left)
                )
        for _neg_margin, name, n, consumed, stream_left in sorted(hungry):
            if pool <= 0:
                break
            grant = min(round_size, cap - n, stream_left, pool)
            if grant > 0:
                allocation[name] = (consumed, consumed + grant)
                pool -= grant
        return allocation


def make_policy(spec) -> SamplingPolicy:
    """The policy instance a :class:`~repro.campaigns.spec.CampaignSpec`
    describes (duck-typed: needs ``policy``, ``n_injections`` and
    ``target_margin``)."""
    if spec.policy == "sequential":
        return SequentialWilsonPolicy(
            nominal=spec.n_injections, target_margin=spec.target_margin
        )
    return FlatPolicy(nominal=spec.n_injections)


def policy_signature(spec) -> str:
    """Content address of everything that shapes a policy's decisions.

    Policies are excluded from the campaign's *cache identity* because
    per-draw verdicts are policy-invariant; the signature instead namespaces the store's
    *policy snapshots*, whose realized per-flip-flop counts do depend on
    the stopping rule and its constants.
    """
    policy = make_policy(spec)
    payload = {"policy": spec.policy, "nominal": spec.n_injections}
    if isinstance(policy, SequentialWilsonPolicy):
        payload.update(
            target_margin=policy.target_margin,
            confidence=CONFIDENCE,
            min_injections=policy._min_injections(),
            round_size=policy._round_size(),
            max_budget_factor=MAX_BUDGET_FACTOR,
        )
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


class ShardGate:
    """Shard-local online policy view for the scheduler's refill queue.

    Each shard starts from a snapshot of the campaign-wide tallies and
    updates it with its own verdicts as the
    :class:`~repro.faultinjection.scheduler.AdaptiveScheduler` retires
    lanes.  ``admit`` is consulted before a pending injection is loaded
    into a freed lane — the policy's *online decision point*: once a
    flip-flop's interval collapses under the target margin, its remaining
    draws in this shard are skipped (counted in ``skipped``) instead of
    simulated.

    Gating is intentionally shard-local: concurrent shards do not share
    tallies mid-round (the merged view drives the next round's
    allocation), so per-shard decisions stay deterministic for a fixed
    shard partition regardless of worker scheduling.
    """

    def __init__(
        self, policy: SamplingPolicy, tallies: Mapping[str, Sequence[int]]
    ) -> None:
        self.policy = policy
        self.tallies: Dict[str, List[int]] = {
            name: [int(rec[0]), int(rec[1])] for name, rec in tallies.items()
        }
        self.skipped: Dict[str, int] = {}

    def admit(self, name: str) -> bool:
        rec = self.tallies.get(name)
        if rec is not None and self.policy.retired(rec[0], rec[1]):
            self.skipped[name] = self.skipped.get(name, 0) + 1
            return False
        return True

    def record(self, name: str, failed: bool) -> None:
        rec = self.tallies.setdefault(name, [0, 0])
        rec[0] += 1
        if failed:
            rec[1] += 1

    def n_skipped(self) -> int:
        return sum(self.skipped.values())
