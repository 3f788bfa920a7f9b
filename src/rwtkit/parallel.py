"""Independent tasks on every usable CPU, with the results of an inline loop.

One worker process runs per usable CPU, capped at the task count; with one
worker the tasks run inline.  Results come back in task order, and the
first error in task order is raised as the inline loop would raise it.
Arguments every task shares reach each worker once, through the pool's
initializer, not with each task.  ``multiprocessing`` is imported only
when a pool starts, so importing the command line does not pay for it.
"""

from __future__ import annotations

import os
import sys

#: Forked workers need no ``if __name__ == "__main__"`` guard in the
#: caller's script, which spawned ones do: without it every worker re-runs
#: the script and the pool breaks.  Elsewhere fork is unsafe with the
#: system libraries numpy may link, so workers are spawned.
START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"

#: The shared arguments, in a worker process; set by :func:`_receive`.
_shared: tuple = ()


def worker_count(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` tasks: one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def _receive(shared: tuple) -> None:
    global _shared
    _shared = shared


def _call(fn, task: tuple):
    return fn(*_shared, *task)


def run_tasks(fn, tasks: list, shared: tuple = (), key=None) -> tuple:
    """``fn(*shared, *task)`` for each task, in :func:`worker_count` processes.

    Forked workers inherit ``shared``; spawned ones unpickle it once each.
    Tasks are dispatched in ``sorted(tasks, key=key)`` order, so the
    longest can start first, and the results are returned in task order.
    The first error in task order cancels the tasks not yet started, waits
    for every worker to exit and is raised.
    """
    workers = worker_count(len(tasks))
    if workers == 1:
        return tuple(fn(*shared, *task) for task in tasks)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(START_METHOD),
                               initializer=_receive, initargs=(shared,))
    try:
        order = range(len(tasks))
        if key is not None:
            order = sorted(order, key=lambda i: key(tasks[i]))
        futures = [None] * len(tasks)
        for i in order:
            futures[i] = pool.submit(_call, fn, tasks[i])
        return tuple(f.result() for f in futures)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
