"""Supervision layer for sharded campaign execution.

A bare ``Pool.map`` makes the whole campaign exactly as reliable as its
least reliable shard: one OOM-killed worker, one hung reader, or one
shard that deterministically crashes its process aborts a multi-week
analysis and discards every completed month. This module replaces the
map with a task-tracking dispatcher that treats worker failure as a
routine event:

- **timeouts** — every shard attempt gets a wall-clock budget; a worker
  that blows it is killed and the shard is retried (a hang is
  indistinguishable from slow progress *except* by the clock);
- **retries with backoff** — failed/timed-out shards are re-dispatched
  with exponential backoff up to :class:`RetryPolicy.max_attempts`. The
  worker that failed is always recycled (terminated and respawned), so
  a corrupted worker-global cache cannot poison the retry;
- **quarantine** — a shard that exhausts its budget is a *poison
  shard*. Under :attr:`DegradePolicy.STRICT` it aborts the campaign
  (:class:`CampaignDegradedError`); under :attr:`DegradePolicy.PARTIAL`
  it is quarantined and the campaign completes from the surviving
  months, with the loss recorded in :class:`RunHealth`;
- **health accounting** — :class:`RunHealth` names every quarantined
  month, counts every retry, and reports the coverage fraction, so a
  degraded run can never masquerade as a complete one.

The supervisor runs the exact same shard functions inline when
``jobs <= 1`` — same retry/quarantine/health accounting, same fault
injection hooks — which is what keeps the 0/1/N-worker byte-identical
equivalence properties testable. Inline, a timeout cannot preempt the
shard; it is enforced post-hoc from the same wall clock.

The module is deliberately generic: it knows nothing about Zeek logs or
analyses. :mod:`repro.core.parallel` supplies the worker entry point,
the inline handlers, and the spill callback for crash-safe resume.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core import metrics as _metrics


class DegradePolicy(str, enum.Enum):
    """What the campaign does when a shard exhausts its retry budget."""

    STRICT = "strict"
    PARTIAL = "partial"

    @classmethod
    def coerce(cls, value: "DegradePolicy | str") -> "DegradePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown degrade policy {value!r} (choices: {choices})"
            ) from None


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry budget, timeout, and backoff schedule."""

    #: Total attempts per shard per phase (1 = no retries).
    max_attempts: int = 3
    #: Wall-clock seconds one attempt may take (None = unlimited).
    timeout: float | None = None
    #: Backoff before the first retry; doubles (``backoff_factor``)
    #: per further retry, capped at ``backoff_max``.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def delay(self, attempt: int) -> float:
        """Backoff before dispatching ``attempt`` (2 = first retry)."""
        if attempt <= 1 or self.backoff_base <= 0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 2)
        return min(raw, self.backoff_max)


class ShardState(str, enum.Enum):
    PENDING = "pending"
    OK = "ok"
    RESUMED = "resumed"
    QUARANTINED = "quarantined"


@dataclass
class ShardHealth:
    """Supervision history of one shard, accumulated across phases."""

    key: str
    state: ShardState = ShardState.PENDING
    #: Attempts dispatched this run, across phases (a clean shard runs
    #: once per phase; fully resumed shards run zero times).
    attempts: int = 0
    #: One entry per failed attempt: ``"<phase>: <reason>"``.
    failures: list[str] = field(default_factory=list)
    #: Phases skipped because a campaign manifest already held their
    #: result (``"scan"``/``"analyze"``).
    resumed_phases: list[str] = field(default_factory=list)

    @property
    def retries(self) -> int:
        """Failed attempts that were re-dispatched (a quarantined
        shard's final failure was not)."""
        spent = len(self.failures)
        if self.state is ShardState.QUARANTINED:
            spent -= 1
        return max(0, spent)

    @property
    def completed(self) -> bool:
        return self.state in (ShardState.OK, ShardState.RESUMED)


@dataclass
class RunHealth:
    """The campaign-level supervision report.

    ``shards`` is keyed by shard month and covers *every* shard of the
    campaign, including ones resumed from a manifest without running.
    """

    shards: dict[str, ShardHealth] = field(default_factory=dict)
    degrade: DegradePolicy = DegradePolicy.STRICT
    jobs: int = 1

    def shard(self, key: str) -> ShardHealth:
        entry = self.shards.get(key)
        if entry is None:
            entry = self.shards[key] = ShardHealth(key=key)
        return entry

    @property
    def total_shards(self) -> int:
        return len(self.shards)

    @property
    def completed_months(self) -> tuple[str, ...]:
        return tuple(sorted(k for k, s in self.shards.items() if s.completed))

    @property
    def resumed_months(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                k for k, s in self.shards.items()
                if s.state is ShardState.RESUMED
            )
        )

    @property
    def quarantined_months(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                k for k, s in self.shards.items()
                if s.state is ShardState.QUARANTINED
            )
        )

    @property
    def total_retries(self) -> int:
        return sum(s.retries for s in self.shards.values())

    @property
    def coverage(self) -> float:
        """Fraction of the campaign's months that made it into the
        merged tables (1.0 = nothing lost)."""
        if not self.shards:
            return 1.0
        return len(self.completed_months) / self.total_shards

    @property
    def degraded(self) -> bool:
        return self.coverage < 1.0

    @property
    def clean(self) -> bool:
        """No shard was quarantined *and* no attempt failed."""
        return not self.degraded and not any(
            s.failures for s in self.shards.values()
        )

    def summary(self) -> str:
        """One-line operator summary (the CLI's stderr line)."""
        done = len(self.completed_months)
        parts = [
            f"{done}/{self.total_shards} months completed "
            f"({100.0 * self.coverage:.1f}% coverage)"
        ]
        if self.quarantined_months:
            parts.append(f"quarantined: {', '.join(self.quarantined_months)}")
        if self.total_retries:
            parts.append(f"{self.total_retries} retried attempts")
        reused = sum(1 for s in self.shards.values() if s.resumed_phases)
        if reused:
            parts.append(f"{reused} months reused from manifest")
        return "; ".join(parts)


class CampaignDegradedError(RuntimeError):
    """A shard exhausted its retry budget under ``DegradePolicy.STRICT``."""

    def __init__(self, key: str, phase: str, reason: str, health: RunHealth):
        self.key = key
        self.phase = phase
        self.reason = reason
        self.health = health
        super().__init__(
            f"shard {key} exhausted its retry budget during {phase}: "
            f"{reason} (re-run with degrade='partial' to complete from the "
            f"surviving months, or --resume to keep finished shards)"
        )


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


@dataclass
class _PendingTask:
    key: str
    payload: Any
    attempt: int
    eligible_at: float


@dataclass
class _Slot:
    """One worker process with its private duplex pipe.

    A private pipe per worker means killing a hung worker can only ever
    corrupt its own channel — which is discarded with the corpse — never
    a shared results queue.
    """

    process: Any
    conn: Any
    task: _PendingTask | None = None
    deadline: float | None = None


class ShardSupervisor:
    """Task-tracking dispatcher with retries, timeouts, and quarantine.

    ``worker_factory(conn)`` must return an *unstarted*
    ``multiprocessing.Process`` whose target serves ``(kind, key,
    attempt, payload)`` requests from ``conn`` and answers ``(key,
    "ok", result)`` or ``(key, "error", reason)``. ``inline_handlers``
    maps a phase kind to ``handler(payload, attempt) -> result`` for the
    ``jobs <= 1`` path; a handler raises to signal failure.

    ``on_result(kind, key, result)`` fires in the parent on every
    completed shard — the hook crash-safe resume spills through.
    """

    def __init__(
        self,
        *,
        jobs: int,
        retry: RetryPolicy | None = None,
        degrade: DegradePolicy | str = DegradePolicy.STRICT,
        worker_factory: Callable[[Any], Any] | None = None,
        inline_handlers: Mapping[str, Callable[[Any, int], Any]] | None = None,
        on_result: Callable[[str, str, Any], None] | None = None,
        health: RunHealth | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.retry = retry or RetryPolicy()
        self.degrade = DegradePolicy.coerce(degrade)
        self._worker_factory = worker_factory
        self._inline_handlers = dict(inline_handlers or {})
        self._on_result = on_result
        self.health = health if health is not None else RunHealth(
            degrade=self.degrade, jobs=self.jobs
        )
        self._slots: list[_Slot] = []
        self._workers_spawned = 0

    # Public API ----------------------------------------------------------------

    def run_phase(
        self, kind: str, tasks: list[tuple[str, Any]]
    ) -> dict[str, Any]:
        """Run one phase to completion; returns results keyed by shard.

        Quarantined shards are absent from the result dict (PARTIAL) or
        abort the phase (STRICT). Shards already quarantined by an
        earlier phase must not be passed in again.
        """
        for key, _ in tasks:
            self.health.shard(key)
        if not tasks:
            return {}
        if self.jobs == 1:
            return self._run_inline(kind, tasks)
        return self._run_processes(kind, tasks)

    def note_resumed(self, key: str, phase: str) -> None:
        """Record one phase of a shard restored from a manifest.

        A shard whose every phase came from the manifest (and that was
        never dispatched) counts as :attr:`ShardState.RESUMED`.
        """
        shard = self.health.shard(key)
        if phase not in shard.resumed_phases:
            shard.resumed_phases.append(phase)
        if (
            shard.attempts == 0
            and {"scan", "analyze"} <= set(shard.resumed_phases)
        ):
            shard.state = ShardState.RESUMED

    def close(self) -> None:
        """Kill every worker. Idempotent; safe after an abort."""
        for slot in self._slots:
            self._destroy_slot(slot)
        self._slots = []

    # Shared failure bookkeeping ------------------------------------------------

    def _record_failure(
        self,
        kind: str,
        task: _PendingTask,
        reason: str,
        pending: deque,
        now: float,
        category: str = "task-error",
    ) -> None:
        _metrics.get_registry().inc(f"supervisor.failures.{category}")
        shard = self.health.shard(task.key)
        shard.failures.append(f"{kind}: {reason}")
        if task.attempt >= self.retry.max_attempts:
            shard.state = ShardState.QUARANTINED
            if self.degrade is DegradePolicy.STRICT:
                raise CampaignDegradedError(task.key, kind, reason, self.health)
            return
        retry_attempt = task.attempt + 1
        pending.append(
            _PendingTask(
                key=task.key,
                payload=task.payload,
                attempt=retry_attempt,
                eligible_at=now + self.retry.delay(retry_attempt),
            )
        )

    def _record_success(self, kind: str, key: str, result: Any, results: dict):
        results[key] = result
        self.health.shard(key).state = ShardState.OK
        if self._on_result is not None:
            self._on_result(kind, key, result)

    # Inline (jobs == 1) --------------------------------------------------------

    def _run_inline(self, kind: str, tasks: list[tuple[str, Any]]) -> dict:
        handler = self._inline_handlers[kind]
        results: dict[str, Any] = {}
        pending = deque(
            _PendingTask(key, payload, attempt=1, eligible_at=0.0)
            for key, payload in tasks
        )
        while pending:
            task = pending.popleft()
            wait = task.eligible_at - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self.health.shard(task.key).attempts += 1
            started = time.monotonic()
            try:
                result = handler(task.payload, task.attempt)
            except Exception as exc:  # supervision point: any failure retries
                self._record_failure(
                    kind, task,
                    f"{type(exc).__name__}: {exc}",
                    pending, time.monotonic(),
                )
                continue
            elapsed = time.monotonic() - started
            if self.retry.timeout is not None and elapsed > self.retry.timeout:
                # Inline there is no process to kill; the budget is
                # enforced post-hoc so 0/1/N accounting stays identical.
                self._record_failure(
                    kind, task,
                    f"timeout: attempt took {elapsed:.3f}s "
                    f"(budget {self.retry.timeout:.3f}s)",
                    pending, time.monotonic(), category="timeout",
                )
                continue
            self._record_success(kind, task.key, result, results)
        return results

    # Process pool --------------------------------------------------------------

    def _spawn_slot(self) -> _Slot:
        import multiprocessing

        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = self._worker_factory(child_conn)
        process.start()
        child_conn.close()
        # A gauge, not a counter: worker spawns depend on the schedule
        # (jobs=N spawns N) and must stay outside the jobs-equivalence
        # contract on counters.
        self._workers_spawned += 1
        _metrics.get_registry().set_gauge(
            "supervisor.workers_spawned", float(self._workers_spawned)
        )
        return _Slot(process=process, conn=parent_conn)

    def _destroy_slot(self, slot: _Slot) -> None:
        try:
            slot.conn.close()
        except OSError:
            pass
        process = slot.process
        if process.is_alive():
            process.terminate()
            process.join(2.0)
            if process.is_alive():  # pragma: no cover - terminate sufficed so far
                process.kill()
                process.join(2.0)
        else:
            process.join(0.1)

    def _recycle_slot(self, slot: _Slot) -> None:
        """Replace a failed worker with a fresh process.

        Recycling on *every* failure (not just crashes) is deliberate:
        the worker caches parsed shards between phases, and a failure
        may have left that cache — or any module global — corrupted.
        A retry must start from a process with no history.
        """
        self._destroy_slot(slot)
        fresh = self._spawn_slot()
        slot.process = fresh.process
        slot.conn = fresh.conn
        slot.task = None
        slot.deadline = None

    def _run_processes(self, kind: str, tasks: list[tuple[str, Any]]) -> dict:
        from multiprocessing.connection import wait as connection_wait

        results: dict[str, Any] = {}
        pending = deque(
            _PendingTask(key, payload, attempt=1, eligible_at=0.0)
            for key, payload in tasks
        )
        while len(self._slots) < min(self.jobs, len(tasks)):
            self._slots.append(self._spawn_slot())

        def busy() -> list[_Slot]:
            return [s for s in self._slots if s.task is not None]

        while pending or busy():
            now = time.monotonic()
            # Dispatch eligible work onto idle workers.
            for slot in self._slots:
                if slot.task is not None or not pending:
                    continue
                index = next(
                    (
                        i for i, t in enumerate(pending)
                        if t.eligible_at <= now
                    ),
                    None,
                )
                if index is None:
                    break
                task = pending[index]
                del pending[index]
                slot.task = task
                slot.deadline = (
                    now + self.retry.timeout
                    if self.retry.timeout is not None else None
                )
                self.health.shard(task.key).attempts += 1
                slot.conn.send((kind, task.key, task.attempt, task.payload))

            # Wait for a result, a death, a timeout, or backoff expiry.
            # A backoff expiry matters only to an idle slot: while every
            # slot is busy, the next result frees one, and a queued task
            # that is already eligible must not turn the wait into a poll.
            running = busy()
            wakeups = [s.deadline for s in running if s.deadline is not None]
            if len(running) < len(self._slots):
                wakeups += [t.eligible_at for t in pending if t.eligible_at > now]
            timeout = 0.25
            if wakeups:
                timeout = max(0.0, min(min(wakeups) - time.monotonic(), 0.25))
            waitables = {}
            for slot in running:
                waitables[slot.conn] = slot
                waitables[slot.process.sentinel] = slot
            if waitables:
                ready = connection_wait(list(waitables), timeout=timeout)
            else:
                # Nothing running: we are only waiting out a backoff.
                time.sleep(timeout)
                ready = []

            handled: set[int] = set()
            for obj in ready:
                slot = waitables[obj]
                if id(slot) in handled or slot.task is None:
                    continue
                handled.add(id(slot))
                task = slot.task
                message = None
                if obj is slot.conn or slot.conn.poll(0):
                    try:
                        message = slot.conn.recv()
                    except (EOFError, OSError):
                        message = None
                if message is None:
                    # Died without answering: hard crash (OOM-kill shape).
                    corpse = slot.process
                    self._recycle_slot(slot)  # joins the corpse
                    code = corpse.exitcode
                    self._record_failure(
                        kind, task,
                        f"worker crashed (exit code {code})",
                        pending, time.monotonic(), category="worker-crash",
                    )
                    continue
                _key, status, body = message
                slot.task = None
                slot.deadline = None
                if status == "ok":
                    self._record_success(kind, task.key, body, results)
                else:
                    self._recycle_slot(slot)
                    self._record_failure(
                        kind, task, str(body), pending, time.monotonic()
                    )

            # Enforce wall-clock budgets on whoever is still running.
            now = time.monotonic()
            for slot in self._slots:
                if (
                    slot.task is None
                    or slot.deadline is None
                    or now < slot.deadline
                ):
                    continue
                task = slot.task
                self._recycle_slot(slot)
                self._record_failure(
                    kind, task,
                    f"timeout: no result within {self.retry.timeout:.3f}s",
                    pending, time.monotonic(), category="timeout",
                )
        return results
