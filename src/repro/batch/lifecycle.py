"""Worker-process lifecycle primitives of the batch driver
(:mod:`repro.batch.driver`), in three building blocks:

* a **claimed worker**: a child process paired with a shared-memory
  claim slot it stores the identifier of its in-flight work item in.
  Queue messages travel through a feeder thread a dying process may
  never flush; shared-memory stores are visible immediately, so the
  parent can always attribute a hard death (segfault, ``os._exit``)
  to the right task and respawn capacity without losing the rest of
  the workload;
* a **heartbeat thread**: a daemon thread in the worker that reports
  the claimed identifier every few hundred milliseconds -- the
  parent's liveness signal, so slow-but-alive work never trips a
  stall backstop;
* **late-result draining**: before charging a dead worker's claimed
  task, drain whatever it managed to put on the result queue -- the
  task may in fact have completed.

:class:`ClaimedWorker` packages the first; :func:`start_heartbeat_thread`
the second; :func:`drain_queue` the third.  The driver's merge policy
(task-order manifests) sits *above* this module.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Optional

__all__ = ["ClaimedWorker", "drain_queue", "start_heartbeat_thread"]

#: The claim-slot value meaning "no work item in flight".
NO_CLAIM = -1


class ClaimedWorker:
    """One live worker process plus its shared-memory claim slot.

    ``target`` is the worker's main function; it receives
    ``(task_queue, result_queue, worker_id, cache_dir, claim,
    *extra_args)`` -- the signature of :func:`repro.batch.worker.
    worker_main`.
    The claim slot is a lock-free ``ctx.Value`` (a single aligned store
    per transition, no reader/writer coordination needed).
    """

    def __init__(
        self,
        ctx,
        worker_id: int,
        target: Callable,
        task_queue,
        result_queue,
        cache_dir: Optional[str],
        extra_args: tuple = (),
    ):
        self.worker_id = worker_id
        self.claim = ctx.Value("i", NO_CLAIM, lock=False)
        self.process = ctx.Process(
            target=target,
            args=(task_queue, result_queue, worker_id, cache_dir, self.claim)
            + tuple(extra_args),
            daemon=True,
            name=f"repro-batch-worker-{worker_id}",
        )
        self.process.start()

    @property
    def claimed(self) -> int:
        """The identifier of the in-flight work item, or ``NO_CLAIM``."""
        return self.claim.value

    def is_alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout=timeout)

    def stop(self, grace_s: float = 2.0) -> None:
        """Join with a grace period, then terminate a straggler."""
        self.process.join(timeout=grace_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace_s)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive() else f"exit={self.exitcode}"
        return (
            f"ClaimedWorker(id={self.worker_id}, {state}, "
            f"claimed={self.claimed})"
        )


def drain_queue(result_queue) -> Iterator[dict]:
    """Yield every message currently sitting on ``result_queue``.

    Used when a worker dies: anything it flushed before the death must
    be absorbed *before* its claimed task is charged as crashed."""
    while not result_queue.empty():
        yield result_queue.get()


def start_heartbeat_thread(
    result_queue, worker_id: int, claim, heartbeat_s: float
) -> threading.Event:
    """Start the worker-side liveness thread; returns its stop event.

    The thread reports the claimed identifier every ``heartbeat_s``
    seconds while one is in flight.  SimpleQueue.put writes the pipe
    synchronously under a lock, so the heartbeat thread and the worker
    main loop can share the result queue.  The thread reads the shared
    claim slot rather than any in-process state, so a main thread
    wedged inside a compilation still heartbeats -- that is the point:
    heartbeats mean "process alive"; hung *programs* remain the
    per-program timeout's job."""
    stop = threading.Event()

    def beat():
        while not stop.wait(heartbeat_s):
            index = claim.value
            if index == NO_CLAIM:
                continue
            try:
                result_queue.put(
                    {"kind": "heartbeat", "worker": worker_id, "index": index}
                )
            except Exception:  # noqa: BLE001 - queue torn down at exit
                return

    thread = threading.Thread(
        target=beat, daemon=True, name=f"repro-heartbeat-{worker_id}"
    )
    thread.start()
    return stop
