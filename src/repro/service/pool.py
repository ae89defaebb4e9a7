"""The session pool: many clients, one set of warm caches.

The entire point of running a daemon instead of a
process-per-query CLI is cache reuse: every structural cache the
:class:`~repro.engine.QueryEngine` keeps — compiled Theorem 3.1
machines, Lemma 3.1 specializations, acceptance kernels, normalized
IR plans, the shared ``Σ^{≤l}`` domain pool — is keyed by immutable
values, so concurrent clients asking overlapping questions should hit
*one* cache, not N private ones.

A :class:`SessionPool` therefore multiplexes every connection onto a
**single shared session** (cache keys are exactly the ones the
library uses today; sharing a session across threads is explicitly
supported — cached derivations are pure, and redundant recomputation
under a rare race is harmless) and bounds *concurrency* instead: a
slot semaphore caps how many evaluations run at once, and a matching
thread executor runs the blocking evaluation off the event loop.
Queries that want intra-query parallelism still get it — the
``auto`` engine shards big plans across the :mod:`repro.parallel`
process pool from inside their slot.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.engine import QueryEngine

#: Default number of concurrently evaluating requests.
DEFAULT_POOL_SIZE = 4


class SessionPool:
    """A bounded evaluation pool over one shared warm session.

    Args:
        size: Maximum concurrently evaluating requests (slot count and
            executor thread count).
        session: The shared :class:`~repro.engine.QueryEngine`; built
            fresh when omitted.

    The pool tracks queue depth and slot occupancy so the admission
    controller can bound waiting and the ``stats`` op can report
    utilization.
    """

    def __init__(
        self,
        *,
        size: int = DEFAULT_POOL_SIZE,
        session: QueryEngine | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.session = session if session is not None else QueryEngine()
        self._slots = asyncio.Semaphore(size)
        self._executor = ThreadPoolExecutor(
            max_workers=size, thread_name_prefix="repro-service"
        )
        #: Requests currently waiting for a slot.
        self.waiting = 0
        #: Requests currently holding a slot (evaluating).
        self.active = 0
        #: Requests that finished (successfully or not) in a slot.
        self.served = 0
        #: High-water marks for tuning pool size.
        self.peak_active = 0
        self.peak_waiting = 0

    # -- slot lifecycle -------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether every slot is occupied (a new request would wait)."""
        return self._slots.locked()

    async def acquire(self) -> None:
        """Wait for a free slot (counted in :attr:`waiting` meanwhile)."""
        if self._slots.locked():
            self.waiting += 1
            self.peak_waiting = max(self.peak_waiting, self.waiting)
            try:
                await self._slots.acquire()
            finally:
                self.waiting -= 1
        else:
            await self._slots.acquire()
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)

    def release(self) -> None:
        """Return a slot; called exactly once per successful acquire."""
        self.active -= 1
        self.served += 1
        self._slots.release()

    async def acquire_all(self) -> None:
        """Hold *every* slot — the exclusive lease for database updates.

        With all slots held no evaluation can be running, so the
        caller may swap the served database without any query
        observing a half-applied state.  Slots are taken one by one;
        a cancellation (e.g. an expired deadline while waiting)
        releases the partial hold, so an abandoned update can never
        wedge the pool.
        """
        acquired = 0
        self.waiting += 1
        self.peak_waiting = max(self.peak_waiting, self.waiting)
        try:
            for _ in range(self.size):
                await self._slots.acquire()
                acquired += 1
        except BaseException:
            for _ in range(acquired):
                self._slots.release()
            raise
        finally:
            self.waiting -= 1
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)

    def run(self, fn: Callable[[], Any]) -> "asyncio.Future[Any]":
        """Run ``fn`` in the executor, releasing the held slot after it.

        Must be called with a slot held (:meth:`acquire`).  The slot
        is released when the *thread* finishes — not when the awaiting
        coroutine resumes — so a request whose deadline fires while
        its evaluation is still running keeps its slot occupied until
        the work actually completes.  That keeps the concurrency bound
        honest: an abandoned evaluation cannot be stacked under a new
        one.

        Args:
            fn: The blocking zero-argument evaluation closure.

        Returns:
            An awaitable future for ``fn``'s result.
        """
        loop = asyncio.get_running_loop()
        future = self._executor.submit(fn)

        def _done(completed) -> None:
            if not completed.cancelled():
                # Retrieve (and discard) the exception so abandoned
                # requests never warn "exception was never retrieved".
                completed.exception()
            try:
                loop.call_soon_threadsafe(self.release)
            except RuntimeError:  # pragma: no cover - loop already closed
                self.release()

        future.add_done_callback(_done)
        return asyncio.wrap_future(future)

    def run_exclusive(self, fn: Callable[[], Any]) -> "asyncio.Future[Any]":
        """Run ``fn`` under an exclusive hold (:meth:`acquire_all`).

        Like :meth:`run`, the whole lease is returned when the
        *thread* finishes — a deadline that abandons the awaiting
        coroutine leaves every slot held until the update actually
        completes, so a query admitted afterwards always sees the
        finished swap.

        Args:
            fn: The blocking zero-argument update closure.

        Returns:
            An awaitable future for ``fn``'s result.
        """
        loop = asyncio.get_running_loop()
        future = self._executor.submit(fn)

        def _release_all() -> None:
            self.active -= 1
            self.served += 1
            for _ in range(self.size):
                self._slots.release()

        def _done(completed) -> None:
            if not completed.cancelled():
                completed.exception()
            try:
                loop.call_soon_threadsafe(_release_all)
            except RuntimeError:  # pragma: no cover - loop already closed
                _release_all()

        future.add_done_callback(_done)
        return asyncio.wrap_future(future)

    # -- lifecycle ------------------------------------------------------

    async def drain(self, poll: float = 0.01) -> None:
        """Wait until no request holds a slot."""
        while self.active > 0:
            await asyncio.sleep(poll)

    def shutdown(self) -> None:
        """Shut the executor down, waiting for in-flight threads."""
        self._executor.shutdown(wait=True)

    def stats(self) -> dict[str, int]:
        """Queue-depth and occupancy numbers for the ``stats`` op."""
        return {
            "size": self.size,
            "active": self.active,
            "waiting": self.waiting,
            "served": self.served,
            "peak_active": self.peak_active,
            "peak_waiting": self.peak_waiting,
        }
