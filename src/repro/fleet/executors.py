"""Executor backends: the seam between ``run_fleet`` and its workers.

The runner needs only ``submit`` / ``as_completed`` / ``shutdown``,
shaped after :mod:`concurrent.futures`, so the serial path is the same
code as the parallel one.  ``run_fleet(backend=...)`` picks one of the
two classes here:

- :class:`SerialExecutor` queues tasks at ``submit`` time and runs them
  one at a time, lazily, as :meth:`~SerialExecutor.as_completed` is
  consumed — so progress callbacks and ledger writes still stream
  shard-by-shard, and ``shutdown(cancel_futures=True)`` really does
  abandon the queued remainder.
- :class:`ProcessExecutor` wraps :class:`concurrent.futures.\
ProcessPoolExecutor`; completed futures are yielded in *submission*
  order within each completion batch, so no unordered-set iteration
  (the PFM004 shape) leaks out of the seam.

Both yield plain :class:`concurrent.futures.Future` objects (or the
process pool's), so the runner handles results, exceptions and
cancellation uniformly.

The supervisor contract: executors are *disposable*.  When a failure is
pool-fatal (``BrokenExecutor`` — see :mod:`repro.fleet.failures`), the
runner's supervisor loop discards the instance and builds a fresh one.
After a pool breaks, every outstanding future still completes (with the
broken-pool exception) so ``as_completed`` terminates, and ``submit``
raises rather than hangs — exactly the ``ProcessPoolExecutor``
semantics.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable


class SerialExecutor:
    """Run submitted tasks in this process, in submission order, lazily."""

    def __init__(
        self, workers: int = 1, initializer: Callable | None = None, initargs=()
    ) -> None:
        # One process, one worker: the initializer runs right here, so
        # serial shards see exactly the environment pool workers would.
        if initializer is not None:
            initializer(*initargs)
        self._queue: list[tuple[Future, Callable, tuple]] = []

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        self._queue.append((future, fn, args))
        return future

    def as_completed(self):
        """Execute-and-yield one task at a time (streaming, cancellable)."""
        while self._queue:
            future, fn, args = self._queue.pop(0)
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            try:
                future.set_result(fn(*args))
            except Exception as exc:  # propagate via Future, like a pool
                future.set_exception(exc)
            yield future

    def shutdown(self, cancel_futures: bool = False) -> None:
        if cancel_futures:
            for future, _fn, _args in self._queue:
                future.cancel()
            self._queue.clear()

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ProcessExecutor:
    """A ``ProcessPoolExecutor`` behind the fleet executor protocol."""

    def __init__(
        self, workers: int, initializer: Callable | None = None, initargs=()
    ) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )
        self._outstanding: set[Future] = set()
        self._submit_order: dict[Future, int] = {}

    def submit(self, fn: Callable, *args) -> Future:
        future = self._pool.submit(fn, *args)
        self._submit_order[future] = len(self._submit_order)
        self._outstanding.add(future)
        return future

    def as_completed(self):
        """Yield futures as they finish, submission-ordered per batch.

        ``wait`` returns an unordered *set*; sorting each batch by
        submission index keeps everything downstream of this seam
        deterministic given the same completion timing.
        """
        while self._outstanding:
            finished, self._outstanding = wait(
                self._outstanding, return_when=FIRST_COMPLETED
            )
            for future in sorted(finished, key=self._submit_order.__getitem__):
                yield future

    def shutdown(self, cancel_futures: bool = False) -> None:
        # cancel_futures drops everything still queued inside the pool;
        # wait=True lets already-running tasks finish so their results
        # can still be checkpointed by the caller.
        self._pool.shutdown(wait=True, cancel_futures=cancel_futures)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
