"""Supervised shard dispatch: deadlines, retries, quarantine, degradation.

The campaign engine's unit of distributable work is a task: one or more
shards of time-slot buckets (see :mod:`repro.campaigns.executor`).  Before this module, shards went through a bare
``Pool.imap_unordered``: one worker segfault, ``os._exit`` or hang killed
(or wedged) the whole campaign, and a worker returning garbage corrupted
the merged counters silently.  :class:`SupervisedPool` replaces that path
with an explicitly supervised dispatcher:

* **per-shard dispatch** — every shard is its own ``apply_async`` call, so
  failures are attributable to a single shard instead of an opaque stream;
* **deadline watchdogs** — a shard that exceeds
  :attr:`RetryPolicy.shard_timeout` is declared hung; the pool (whose
  worker is unrecoverably occupied) is torn down and rebuilt, and the
  shard is retried with backoff;
* **dead-worker detection** — worker processes that exit abnormally
  (non-zero exit code: crash, ``os._exit``, OOM kill) are detected by
  polling, the pool is rebuilt, and the shards that were in flight are
  re-dispatched *one at a time* ("careful mode") so the next failure is
  attributed to exactly one shard.  Clean exits (``maxtasksperchild``
  recycling) are recognized and ignored;
* **bounded retry with exponential backoff** — each attributed failure
  (timeout, worker exception, malformed payload, solo worker loss)
  increments the shard's attempt count and delays its resubmission;
* **poison-shard quarantine** — a shard that fails
  :attr:`RetryPolicy.max_attempts` times is quarantined: the supervisor
  reports it (:class:`QuarantinedShard`) and the campaign *completes*
  without it instead of raising;
* **graceful degradation** — when the pool itself keeps dying
  (:attr:`RetryPolicy.max_pool_rebuilds` exceeded), the supervisor falls
  back to executing the remaining shards serially in-process.

Every decision is surfaced through the current :class:`repro.obs`
registry as ``robustness.*`` counters (retries, timeouts, worker deaths,
pool rebuilds, quarantines, serial fallbacks) plus a
``robustness.backoff_seconds`` histogram, and rolled up into the engine's
:class:`~repro.campaigns.executor.EngineReport`.

Because the supervisor only sees opaque payloads and a worker function,
it is also the seam where the chaos harness plugs in — see
:mod:`repro.verify.chaos`, which injects worker kills, hangs, malformed
payloads and torn store writes *through* this machinery to prove the
recovered result is bit-identical to a fault-free run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import get_telemetry

__all__ = [
    "RetryPolicy",
    "QuarantinedShard",
    "ShardOutcome",
    "SupervisedPool",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the supervised dispatcher (see :mod:`docs/robustness.md`).

    Attributes
    ----------
    max_attempts:
        Executions granted to one shard before it is quarantined.
    shard_timeout:
        Deadline in seconds for a single shard execution; ``None`` (the
        default) disables the watchdog.  A timed-out shard costs a pool
        rebuild — the hung worker cannot be reclaimed any other way.
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff before retry *k* sleeps
        ``min(backoff_max, backoff_base * backoff_factor**(k-1))`` seconds.
    max_pool_rebuilds:
        Pool teardown/rebuild cycles tolerated before the supervisor
        degrades to in-process serial execution of the remaining shards.
    maxtasksperchild:
        Passed to :class:`multiprocessing.pool.Pool`; bounds per-worker
        lifetime so leaks cannot accumulate across a long campaign.
        Recycled workers exit cleanly and are *not* counted as deaths.
    poll_interval:
        Supervisor polling cadence in seconds.
    """

    max_attempts: int = 3
    shard_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    max_pool_rebuilds: int = 8
    maxtasksperchild: Optional[int] = None
    poll_interval: float = 0.02

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Delay before re-dispatching a shard that failed *attempt* times."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )


@dataclass
class QuarantinedShard:
    """One shard the campaign gave up on (reported, never raised)."""

    key: int
    reason: str
    attempts: int
    n_buckets: int = 0
    n_lanes: int = 0

    def to_dict(self) -> Dict:
        return {
            "shard": self.key,
            "reason": self.reason,
            "attempts": self.attempts,
            "n_buckets": self.n_buckets,
            "n_lanes": self.n_lanes,
        }


@dataclass
class ShardOutcome:
    """What the supervisor produced for one submitted shard: either a
    validated payload or a quarantine record (never both)."""

    key: int
    payload: Optional[Dict] = None
    quarantine: Optional[QuarantinedShard] = None
    attempts: int = 1


@dataclass
class _Task:
    key: int
    payload: object
    attempts: int = 0
    not_before: float = 0.0


def _task_size(payload: object) -> Tuple[int, int]:
    """(n_buckets, n_lanes) of an engine task ``(shards, tallies)``;
    ``(0, 0)`` for any other payload."""
    try:
        shards, _tallies = payload
        buckets = [bucket for shard in shards for bucket in shard]
        return len(buckets), sum(len(lanes) for _cycle, lanes in buckets)
    except (TypeError, ValueError):
        return 0, 0


class SupervisedPool:
    """Fault-tolerant replacement for ``Pool.imap_unordered`` over shards.

    Parameters
    ----------
    worker_fn:
        Module-level function executed in pool workers; receives one
        ``(attempt, payload)`` tuple (the attempt ordinal lets the chaos
        harness make deterministic per-attempt fault decisions).
    jobs:
        Worker processes.  ``jobs <= 1`` (or pool degradation) executes
        through *serial_fn* in-process instead.
    initializer / initargs / mp_context:
        Forwarded to :class:`multiprocessing.pool.Pool`.
    retry:
        The :class:`RetryPolicy`; defaults to ``RetryPolicy()``.
    serial_fn:
        ``serial_fn(payload, attempt)`` in-process fallback used when
        ``jobs <= 1`` and after pool degradation.  In-process execution
        enforces no deadlines (nothing can preempt it), but failures are
        still retried/quarantined — only ``Exception`` is caught;
        ``KeyboardInterrupt`` and friends propagate to the engine's
        checkpoint path.
    validate:
        ``validate(payload) -> Optional[str]`` shape check applied to
        every returned payload; a non-``None`` error string counts as a
        failed attempt (the torn-payload defense).

    ``run`` may be called repeatedly (the sequential policy driver reuses
    one supervisor — and its warm worker pool — across rounds); call
    ``shutdown(clean=...)`` exactly once when done: ``clean=True`` lets
    in-flight worker cleanup finish (``close``/``join``), ``clean=False``
    tears the pool down immediately (``terminate``).
    """

    def __init__(
        self,
        worker_fn: Callable,
        *,
        jobs: int,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        retry: Optional[RetryPolicy] = None,
        serial_fn: Optional[Callable[[object, int], Dict]] = None,
        validate: Optional[Callable[[object], Optional[str]]] = None,
        mp_context=None,
    ) -> None:
        self.worker_fn = worker_fn
        self.jobs = max(1, jobs)
        self.initializer = initializer
        self.initargs = initargs
        self.retry = retry if retry is not None else RetryPolicy()
        self.serial_fn = serial_fn
        self.validate = validate
        self.mp_context = mp_context
        self._pool = None
        self._procs: List = []
        #: Whether the supervisor has fallen back to in-process execution.
        self.degraded = False
        self.retries = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.rebuilds = 0
        self.quarantined: List[QuarantinedShard] = []
        if self.jobs <= 1 and serial_fn is None:
            raise ValueError("jobs <= 1 requires a serial_fn")

    # ------------------------------------------------------------ plumbing

    @property
    def _registry(self):
        return get_telemetry().registry

    def _fail(self, task: _Task, reason: str) -> Optional[ShardOutcome]:
        """Account one attributed failure; quarantine or schedule a retry.

        Returns the quarantine outcome when the shard's attempts are
        exhausted, ``None`` when a retry was scheduled (the caller
        re-queues the task).
        """
        task.attempts += 1
        if task.attempts >= self.retry.max_attempts:
            n_buckets, n_lanes = _task_size(task.payload)
            quarantine = QuarantinedShard(
                key=task.key,
                reason=reason,
                attempts=task.attempts,
                n_buckets=n_buckets,
                n_lanes=n_lanes,
            )
            self.quarantined.append(quarantine)
            self._registry.counter("robustness.quarantined_shards").inc()
            return ShardOutcome(
                key=task.key, quarantine=quarantine, attempts=task.attempts
            )
        delay = self.retry.backoff(task.attempts)
        task.not_before = time.monotonic() + delay
        self._registry.histogram("robustness.backoff_seconds").observe(delay)
        return None

    def _count_retry(self, n: int = 1) -> None:
        if n > 0:
            self.retries += n
            self._registry.counter("robustness.retries").inc(n)

    # --------------------------------------------------------- pool lifecycle

    def _build_pool(self):
        import multiprocessing

        ctx = self.mp_context if self.mp_context is not None else multiprocessing
        self._pool = ctx.Pool(
            processes=self.jobs,
            initializer=self.initializer,
            initargs=self.initargs,
            maxtasksperchild=self.retry.maxtasksperchild,
        )
        self._procs = list(getattr(self._pool, "_pool", []))
        return self._pool

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._procs = []

    def _abnormal_worker_death(self) -> bool:
        """Did any known worker exit with a non-zero status since last poll?

        Holds references to the worker :class:`Process` objects so a death
        is observed even after the pool's maintenance thread replaces the
        dead slot.  Clean exits (``maxtasksperchild`` recycling, exit code
        0) are expected and ignored.
        """
        if self._pool is None:
            return False
        died = any(
            proc.exitcode not in (None, 0) for proc in self._procs
        )
        # Refresh the watch list so respawned/recycled workers are tracked.
        self._procs = list(getattr(self._pool, "_pool", []))
        return died

    def shutdown(self, clean: bool) -> None:
        """Release the worker pool.

        ``clean=True`` uses ``close()``/``join()`` so workers finish their
        in-flight cleanup (exit handlers, profiling flushes); the
        exception path uses ``terminate()`` to stop wasting cycles on work
        whose results will be discarded.
        """
        if self._pool is None:
            return
        if clean:
            self._pool.close()
        else:
            self._pool.terminate()
        self._pool.join()
        self._pool = None
        self._procs = []

    # -------------------------------------------------------------- execution

    def run(self, payloads: Sequence[object]) -> Iterator[ShardOutcome]:
        """Execute *payloads*; yield one :class:`ShardOutcome` each, in
        completion order.  Quarantined shards are yielded (with
        ``quarantine`` set) rather than raised."""
        tasks = [_Task(key, payload) for key, payload in enumerate(payloads)]
        if self.jobs <= 1 or self.degraded:
            yield from self._run_serial(tasks)
            return
        yield from self._run_pool(tasks)

    def _run_serial(self, tasks: List[_Task]) -> Iterator[ShardOutcome]:
        assert self.serial_fn is not None
        queue = deque(tasks)
        while queue:
            task = queue.popleft()
            wait = task.not_before - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                payload = self.serial_fn(task.payload, task.attempts + 1)
            except Exception as exc:  # noqa: BLE001 - quarantine, don't die
                outcome = self._fail(task, f"shard raised: {exc!r}")
            else:
                error = self.validate(payload) if self.validate else None
                if error is None:
                    yield ShardOutcome(
                        key=task.key, payload=payload, attempts=task.attempts + 1
                    )
                    continue
                self._registry.counter("robustness.malformed_payloads").inc()
                outcome = self._fail(task, f"malformed payload: {error}")
            if outcome is not None:
                yield outcome
            else:
                self._count_retry()
                queue.append(task)

    def _run_pool(self, tasks: List[_Task]) -> Iterator[ShardOutcome]:
        retry = self.retry
        waiting: deque = deque(tasks)
        #: key -> (task, AsyncResult, deadline or None)
        inflight: Dict[int, Tuple[_Task, object, Optional[float]]] = {}
        #: Shards in flight during an unattributed pool breakage: retried
        #: one at a time so the next failure names a single culprit.
        suspects: Set[int] = set()

        def requeue_inflight(attributed: Optional[_Task], reason: str) -> List[ShardOutcome]:
            """Move in-flight work back to the queue after a breakage."""
            out: List[ShardOutcome] = []
            lost = [task for task, _r, _d in inflight.values()]
            inflight.clear()
            if attributed is None and len(lost) == 1:
                attributed = lost[0]
            for task in lost:
                if task is attributed:
                    continue
                suspects.add(task.key)
                self._count_retry()
                waiting.appendleft(task)
            if attributed is not None:
                outcome = self._fail(attributed, reason)
                if outcome is not None:
                    out.append(outcome)
                else:
                    self._count_retry()
                    suspects.add(attributed.key)
                    waiting.append(attributed)
            return out

        def breakage(attributed: Optional[_Task], reason: str) -> List[ShardOutcome]:
            self.rebuilds += 1
            self._registry.counter("robustness.pool_rebuilds").inc()
            self._teardown_pool()
            out = requeue_inflight(attributed, reason)
            if self.rebuilds > retry.max_pool_rebuilds:
                self.degraded = True
                self._registry.counter("robustness.serial_fallbacks").inc()
            return out

        while waiting or inflight:
            if self.degraded:
                break
            progressed = False

            # ----------------------------------------------------- submit
            capacity = 1 if suspects else self.jobs
            now = time.monotonic()
            if len(inflight) < capacity and waiting:
                # In careful mode only suspects run (solo) until cleared.
                submittable = [
                    t
                    for t in waiting
                    if t.not_before <= now and (not suspects or t.key in suspects)
                ]
                for task in submittable[: capacity - len(inflight)]:
                    waiting.remove(task)
                    if self._pool is None:
                        self._build_pool()
                    try:
                        handle = self._pool.apply_async(
                            self.worker_fn, ((task.attempts + 1, task.payload),)
                        )
                    except Exception as exc:  # pool pipe broken mid-submit
                        inflight[task.key] = (task, None, None)
                        for outcome in breakage(task, f"submit failed: {exc!r}"):
                            yield outcome
                        progressed = True
                        break
                    deadline = (
                        now + retry.shard_timeout
                        if retry.shard_timeout is not None
                        else None
                    )
                    inflight[task.key] = (task, handle, deadline)
                    progressed = True

            # ---------------------------------------------------- collect
            for key in list(inflight):
                task, handle, deadline = inflight[key]
                if handle is None or not handle.ready():
                    continue
                del inflight[key]
                progressed = True
                try:
                    payload = handle.get(0)
                except Exception as exc:  # noqa: BLE001 - worker raised
                    outcome = self._fail(task, f"worker raised: {exc!r}")
                else:
                    error = self.validate(payload) if self.validate else None
                    if error is None:
                        suspects.discard(key)
                        yield ShardOutcome(
                            key=key, payload=payload, attempts=task.attempts + 1
                        )
                        continue
                    self._registry.counter("robustness.malformed_payloads").inc()
                    outcome = self._fail(task, f"malformed payload: {error}")
                if outcome is not None:
                    suspects.discard(key)
                    yield outcome
                else:
                    self._count_retry()
                    waiting.append(task)

            # -------------------------------------------------- watchdogs
            now = time.monotonic()
            timed_out = next(
                (
                    task
                    for task, handle, deadline in inflight.values()
                    if deadline is not None and now > deadline and handle is not None
                ),
                None,
            )
            if timed_out is not None:
                self.timeouts += 1
                self._registry.counter("robustness.shard_timeouts").inc()
                for outcome in breakage(
                    timed_out,
                    f"deadline exceeded ({retry.shard_timeout:.1f}s)",
                ):
                    yield outcome
                progressed = True
            elif inflight and self._abnormal_worker_death():
                self.worker_deaths += 1
                self._registry.counter("robustness.worker_deaths").inc()
                for outcome in breakage(None, "worker died"):
                    yield outcome
                progressed = True

            if not progressed:
                time.sleep(retry.poll_interval)

        if self.degraded and (waiting or inflight):
            # The pool kept dying: finish what's left in-process.
            leftovers = sorted(
                list(waiting) + [task for task, _r, _d in inflight.values()],
                key=lambda t: t.key,
            )
            inflight.clear()
            if self.serial_fn is None:
                for task in leftovers:
                    outcome = self._fail(task, "pool degraded, no serial fallback")
                    if outcome is not None:
                        yield outcome
            else:
                yield from self._run_serial(leftovers)
