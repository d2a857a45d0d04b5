"""Content-addressed, resumable campaign result store.

One JSON document per campaign *family* (see
:meth:`~repro.campaigns.spec.CampaignSpec.family_key`), holding

* ``snapshots`` — finished :class:`CampaignResult` payloads keyed by their
  injection budget.  A re-run of a stored budget costs zero forward
  simulations; with the ``stream`` schedule a smaller stored budget seeds an
  incremental top-up (only the delta draws are simulated);
* ``partial`` — a mid-run checkpoint (completed time-slot buckets plus the
  accumulated per-flip-flop counts) written on a throttled interval, so an
  interrupted campaign resumes where it stopped.

Writes are atomic and durable (temp file + ``fsync`` + ``os.replace``), so
a crash — even a power loss — mid-write never corrupts previously stored
results.  A shard file that is nonetheless unreadable (torn by an external
writer, hand-edited, bit-rotted) is *quarantined*: renamed to
``<name>.corrupt`` and counted in the ``store.corrupt_files`` telemetry
counter, so operators see the data loss instead of a silent cache miss —
and the damaged bytes stay on disk for postmortem inspection.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..faultinjection.campaign import CampaignResult
from ..obs import get_telemetry
from .spec import CampaignSpec

__all__ = ["CampaignStore"]

STORE_VERSION = 1


def _record_lookup(kind: str, hit: bool) -> None:
    """Count one store consultation and refresh the aggregate hit rate.

    Counters: ``store.<kind>_hit`` / ``store.<kind>_miss`` per lookup kind
    (``exact`` snapshot, ``snapshot`` seed, ``partial`` checkpoint) plus the
    rollups ``store.hits`` / ``store.lookups``; gauge ``store.hit_rate`` is
    the process-lifetime ratio of the two.
    """
    registry = get_telemetry().registry
    registry.counter(f"store.{kind}_{'hit' if hit else 'miss'}").inc()
    hits = registry.counter("store.hits")
    lookups = registry.counter("store.lookups")
    lookups.inc()
    if hit:
        hits.inc()
    registry.gauge("store.hit_rate").set(hits.value / lookups.value)


def _same_layout(record: Dict, gate_shards: int) -> bool:
    """Whether a policy record was computed under the *gate_shards* layout."""
    return record.get("gate_shards") == gate_shards


class CampaignStore:
    """JSON-on-disk store keyed by campaign-spec hash."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, spec: CampaignSpec) -> Path:
        return self.root / f"campaign_{spec.circuit}_{spec.family_key()}.json"

    # ----------------------------------------------------------------- io

    def _read(self, spec: CampaignSpec) -> Optional[Dict]:
        """Parse the shard for *spec*; ``None`` for any unusable document.

        A truncated or hand-edited shard must never crash a campaign — the
        engine treats ``None`` as "nothing cached" and recomputes — so shape
        is validated here along with JSON well-formedness.  Unusable files
        are quarantined (renamed to ``*.corrupt`` + ``store.corrupt_files``
        counter) rather than silently shadowing every future lookup; only a
        *newer* ``store_version`` is left in place untouched, since the file
        is presumably healthy for the newer code that wrote it.
        """
        path = self.path_for(spec)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            # Unreadable but present (permissions, I/O error): renaming
            # would likely fail too — count it, leave it.
            self._count_corrupt(path, f"unreadable: {exc}", rename=False)
            return None
        except json.JSONDecodeError as exc:
            self._quarantine(path, f"invalid JSON: {exc}")
            return None
        if not isinstance(doc, dict):
            self._quarantine(path, "top-level document is not an object")
            return None
        if doc.get("store_version", 0) > STORE_VERSION:
            return None
        if doc.get("family") != spec.family_key():
            self._quarantine(path, "family key mismatch")
            return None
        if not isinstance(doc.get("snapshots"), dict):
            self._quarantine(path, "missing snapshots map")
            return None
        partial = doc.get("partial")
        if partial is not None and not isinstance(partial, dict):
            self._quarantine(path, "malformed partial checkpoint")
            return None
        return doc

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged shard aside as ``<name>.corrupt`` for postmortem."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            self._count_corrupt(path, reason, rename=False)
            return
        self._count_corrupt(path, reason, rename=True)

    @staticmethod
    def _count_corrupt(path: Path, reason: str, rename: bool) -> None:
        telemetry = get_telemetry()
        telemetry.registry.counter("store.corrupt_files").inc()
        if telemetry.active:
            telemetry.emit(
                {
                    "event": "store_corrupt",
                    "path": str(path),
                    "reason": reason,
                    "quarantined": rename,
                }
            )

    def _write(self, spec: CampaignSpec, doc: Dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        tmp = path.with_suffix(".tmp")
        # fsync before the rename: os.replace alone is atomic against
        # concurrent readers but not against power loss — the metadata can
        # land before the data blocks, leaving a truncated "committed" file.
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_dir(path.parent)

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Best-effort directory fsync so the rename itself is durable."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync unsupported on dirs
            pass
        finally:
            os.close(fd)

    def _doc(self, spec: CampaignSpec) -> Dict:
        doc = self._read(spec)
        if doc is None:
            doc = {
                "store_version": STORE_VERSION,
                "family": spec.family_key(),
                "schedule": spec.schedule,
                "spec": spec.to_dict(),
                "snapshots": {},
                "partial": None,
            }
        return doc

    # ----------------------------------------------------------- snapshots

    def load_exact(self, spec: CampaignSpec) -> Optional[CampaignResult]:
        """The stored result for exactly ``spec.n_injections``, if any."""
        result = self._load_exact(spec)
        _record_lookup("exact", result is not None)
        return result

    def _load_exact(self, spec: CampaignSpec) -> Optional[CampaignResult]:
        doc = self._read(spec)
        if doc is None:
            return None
        payload = doc["snapshots"].get(str(spec.n_injections))
        if not isinstance(payload, dict):
            return None
        try:
            return CampaignResult.from_payload(payload)
        except (KeyError, ValueError, TypeError, AttributeError, IndexError):
            return None

    def best_snapshot(
        self, spec: CampaignSpec
    ) -> Optional[Tuple[int, CampaignResult]]:
        """Largest stored snapshot with a budget ``<= spec.n_injections``.

        Only meaningful for the ``stream`` schedule, whose draws are
        prefix-stable across budgets.
        """
        found = self._best_snapshot(spec)
        _record_lookup("snapshot", found is not None)
        return found

    def _best_snapshot(
        self, spec: CampaignSpec
    ) -> Optional[Tuple[int, CampaignResult]]:
        doc = self._read(spec)
        if doc is None:
            return None
        candidates = sorted(
            (
                int(n)
                for n in doc["snapshots"]
                if str(n).isdigit() and int(n) <= spec.n_injections
            ),
            reverse=True,
        )
        for n in candidates:
            payload = doc["snapshots"][str(n)]
            if not isinstance(payload, dict):
                continue
            try:
                return n, CampaignResult.from_payload(payload)
            except (KeyError, ValueError, TypeError, AttributeError, IndexError):
                continue
        return None

    def save_snapshot(self, spec: CampaignSpec, result: CampaignResult) -> None:
        get_telemetry().registry.counter("store.snapshot_writes").inc()
        doc = self._doc(spec)
        doc["spec"] = spec.to_dict()
        doc["snapshots"][str(result.n_injections)] = result.to_payload()
        # A partial checkpoint whose target is *at or below* the snapshot
        # just written is superseded: the snapshot already contains every
        # draw the checkpointed run was working toward, and `load_partial`
        # would otherwise re-serve the stale counters to a later run with
        # that smaller budget (double-counting its resumed buckets).
        partial = doc.get("partial")
        if (
            partial is not None
            and isinstance(partial.get("target"), int)
            and partial["target"] <= result.n_injections
        ):
            doc["partial"] = None
        self._write(spec, doc)

    # ------------------------------------------------------------ partials

    def load_partial(
        self, spec: CampaignSpec, base: int, target: int
    ) -> Optional[Tuple[Set[int], Dict]]:
        """Checkpoint of an interrupted ``base -> target`` run, if one matches.

        Returns the set of completed bucket cycles and the accumulated
        counters (``{"ff": {name: [inj, fail, lat]}, "n_forward_runs": ...,
        "total_lane_cycles": ..., "wall_seconds": ...}``).
        """
        checkpoint = self._load_partial(spec, base, target)
        _record_lookup("partial", checkpoint is not None)
        return checkpoint

    def _load_partial(
        self, spec: CampaignSpec, base: int, target: int
    ) -> Optional[Tuple[Set[int], Dict]]:
        doc = self._read(spec)
        if doc is None:
            return None
        partial = doc.get("partial")
        if not partial:
            return None
        if partial.get("base") != base or partial.get("target") != target:
            return None
        done_cycles = partial.get("done_cycles")
        accum = partial.get("accum")
        if not isinstance(done_cycles, list) or not isinstance(accum, dict):
            return None
        # Bucket cycles must be plain ints: non-hashable elements would crash
        # set(), and mistyped ones (e.g. "3") would silently miss the engine's
        # done-bucket filter and double-count resumed work.
        if not all(type(c) is int for c in done_cycles):
            return None
        if not self._valid_accum(accum):
            return None
        return set(done_cycles), accum

    @staticmethod
    def _valid_accum(accum: object) -> bool:
        """Shape-check an accumulator payload (shared by both checkpoint
        kinds).  The ff records must be [inj, fail, latency] triples of
        numbers and the engine-level metrics numeric; anything else means a
        damaged checkpoint — drop it and let the engine recompute rather
        than resume into a crash."""
        if not isinstance(accum, dict):
            return False
        ff = accum.get("ff")
        if not isinstance(ff, dict):
            return False
        for record in ff.values():
            if (
                not isinstance(record, list)
                or len(record) != 3
                or not all(isinstance(v, (int, float)) for v in record)
            ):
                return False
        for key in ("n_forward_runs", "total_lane_cycles", "wall_seconds"):
            if key in accum and not isinstance(accum[key], (int, float)):
                return False
        return True

    def save_partial(
        self,
        spec: CampaignSpec,
        base: int,
        target: int,
        done_cycles: Set[int],
        accum: Dict,
    ) -> None:
        get_telemetry().registry.counter("store.checkpoint_writes").inc()
        doc = self._doc(spec)
        doc["partial"] = {
            "base": base,
            "target": target,
            "done_cycles": sorted(done_cycles),
            "accum": accum,
        }
        self._write(spec, doc)

    def clear_partial(self, spec: CampaignSpec) -> None:
        doc = self._read(spec)
        if doc is not None and doc.get("partial") is not None:
            doc["partial"] = None
            self._write(spec, doc)

    # ---------------------------------------------------- policy snapshots

    def load_policy_snapshot(
        self, spec: CampaignSpec, signature: str, gate_shards: int
    ) -> Optional[Tuple[CampaignResult, Dict]]:
        """The stored result of an adaptive-policy run, if any.

        Policy runs realize *different* per-flip-flop injection counts than
        the flat protocol at the same nominal budget, so their snapshots are
        namespaced by :func:`repro.campaigns.policy.policy_signature` instead
        of the budget key — the family's numeric snapshots stay exactly what
        a flat run would produce.  Returns ``(result, meta)`` where *meta* is
        the policy bookkeeping stored alongside the payload (realized
        margins, injections saved, rounds).

        *gate_shards* is the gate layout the caller would run (``jobs ×
        shards_per_job``): sequential counters depend on it, so a snapshot
        saved under another layout — or under none, by an older version —
        is a miss.
        """
        found = self._load_policy_snapshot(spec, signature, gate_shards)
        _record_lookup("policy", found is not None)
        return found

    def _load_policy_snapshot(
        self, spec: CampaignSpec, signature: str, gate_shards: int
    ) -> Optional[Tuple[CampaignResult, Dict]]:
        doc = self._read(spec)
        if doc is None:
            return None
        payload = doc["snapshots"].get(f"policy:{signature}")
        if not isinstance(payload, dict) or not _same_layout(payload, gate_shards):
            return None
        try:
            result = CampaignResult.from_payload(payload)
        except (KeyError, ValueError, TypeError, AttributeError, IndexError):
            return None
        meta = payload.get("policy")
        return result, dict(meta) if isinstance(meta, dict) else {}

    def save_policy_snapshot(
        self,
        spec: CampaignSpec,
        signature: str,
        result: CampaignResult,
        meta: Dict,
        gate_shards: int,
    ) -> None:
        get_telemetry().registry.counter("store.snapshot_writes").inc()
        doc = self._doc(spec)
        doc["spec"] = spec.to_dict()
        payload = result.to_payload()
        payload["policy"] = dict(meta)
        payload["gate_shards"] = gate_shards
        doc["snapshots"][f"policy:{signature}"] = payload
        # The finished snapshot supersedes any round checkpoint of the same
        # policy configuration and gate layout.
        partial = doc.get("policy_partial")
        if (
            isinstance(partial, dict)
            and partial.get("signature") == signature
            and _same_layout(partial, gate_shards)
        ):
            doc["policy_partial"] = None
        self._write(spec, doc)

    def load_policy_partial(
        self, spec: CampaignSpec, signature: str, gate_shards: int
    ) -> Optional[Tuple[Dict[str, List[int]], Dict]]:
        """Round checkpoint of an interrupted adaptive run, if one matches.

        Returns ``(tallies, accum)``: the per-flip-flop ``[n, k, consumed]``
        draw-stream tallies (executed draws, failures, stream position) and
        the accumulated engine counters, both in the same shape the
        sequential driver checkpoints after every round.  A checkpoint
        saved under another gate layout (*gate_shards*, see
        :meth:`load_policy_snapshot`) does not match.
        """
        checkpoint = self._load_policy_partial(spec, signature, gate_shards)
        _record_lookup("policy_partial", checkpoint is not None)
        return checkpoint

    def _load_policy_partial(
        self, spec: CampaignSpec, signature: str, gate_shards: int
    ) -> Optional[Tuple[Dict[str, List[int]], Dict]]:
        doc = self._read(spec)
        if doc is None:
            return None
        partial = doc.get("policy_partial")
        if (
            not isinstance(partial, dict)
            or partial.get("signature") != signature
            or not _same_layout(partial, gate_shards)
        ):
            return None
        tallies = partial.get("tallies")
        accum = partial.get("accum")
        if not isinstance(tallies, dict) or not self._valid_accum(accum):
            return None
        # Tallies must be [n, k, consumed] int triples with k <= n <= consumed
        # — anything else is a damaged checkpoint that would corrupt the
        # policy's allocation arithmetic.
        for record in tallies.values():
            if (
                not isinstance(record, list)
                or len(record) != 3
                or not all(type(v) is int for v in record)
                or not 0 <= record[1] <= record[0] <= record[2]
            ):
                return None
        # The driver counts every draw in both: a tally's [n, k] that
        # disagrees with the accumulator's would make the resumed policy
        # allocate from one count while the result sums the other.
        ff = accum["ff"]
        if not set(ff) <= set(tallies) or any(
            record[:2] != ff.get(name, [0, 0, 0])[:2]
            for name, record in tallies.items()
        ):
            return None
        return (
            {name: list(record) for name, record in tallies.items()},
            accum,
        )

    def save_policy_partial(
        self,
        spec: CampaignSpec,
        signature: str,
        tallies: Dict[str, List[int]],
        accum: Dict,
        gate_shards: int,
    ) -> None:
        get_telemetry().registry.counter("store.checkpoint_writes").inc()
        doc = self._doc(spec)
        doc["policy_partial"] = {
            "signature": signature,
            "gate_shards": gate_shards,
            "tallies": {name: list(record) for name, record in tallies.items()},
            "accum": accum,
        }
        self._write(spec, doc)

    # ----------------------------------------------------------- inventory

    def stored_budgets(self, spec: CampaignSpec) -> List[int]:
        doc = self._read(spec)
        if doc is None:
            return []
        return sorted(int(n) for n in doc["snapshots"] if str(n).isdigit())
