"""One runner for work that forked worker processes may share: `map`.

`map(fn, tasks)` returns [fn(task) for task in tasks], in task order.  When
at least two CPUs are usable, `os.fork` exists and this process runs no
other thread (a lock held there would stay held in a child), it forks
min(usable CPUs, len(tasks)) workers and the tasks run there; otherwise
they run one after another in this process.  Only the results cross
between processes, pickled, so fn may be any callable, a closure included,
but a result or exception that does not pickle ends its worker without
results.

Before it forks, the parent writes every task index, at a fixed width,
into one pipe, in one write of at most PIPE_BUF bytes, which a pipe holds
whole, and closes its end.  Each worker reads one index at a time, so each
task reaches exactly one worker, the next one free (as an executor's
chunksize=1 would), until the pipe is empty.  A worker writes its results,
or its first exception, to a pipe of its own after its last task, and
leaves by `os._exit`.  The parent reads each worker's pipe to EOF in turn,
which cannot deadlock, as no worker waits on another, and then reaps every
worker.  A task's exception is raised here unchanged: the first in task
order, as the in-process map would raise it.  A worker that ended without
its results, killed or crashed, raises `WorkerDied`.  SIGINT stays blocked
here and in the workers for the whole run, so Ctrl-C takes effect here once
the workers are reaped, and no worker outlives the call on any path.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_WIDTH = 2  # bytes per task index in the task pipe
# POSIX's least PIPE_BUF: a pipe holds this many bytes, and a write of no
# more is never split, so the task indices fit for at most 256 tasks; a
# longer list runs in this process
_PIPE_BUF = 512


class WorkerDied(RuntimeError):
    """A worker process ended, killed or crashed, before it returned its results."""


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map(fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
    """[fn(task) for task in tasks], in forked workers where this process
    may fork them (see the module docstring), else in this process."""
    workers = min(_usable_cpus(), len(tasks))
    if (workers < 2 or len(tasks) * _WIDTH > _PIPE_BUF or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [fn(task) for task in tasks]
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        return _forked(fn, tasks, workers)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _forked(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> list[R]:
    """`map` in `workers` forked processes, with SIGINT blocked.  pickle is
    imported here, not at module level, so a process that never forks
    does not pay for it."""
    import pickle

    task_r, task_w = os.pipe()
    try:
        os.write(task_w, b"".join(i.to_bytes(_WIDTH, "little") for i in range(len(tasks))))
    finally:
        os.close(task_w)
    pids: list[int] = []  # the workers not yet reaped
    readers: list[int] = []  # their result pipes not yet read
    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(out_r)
                os.close(out_w)
                raise
            if pid == 0:
                _work(fn, tasks, task_r, out_w)  # never returns
            pids.append(pid)
            readers.append(out_r)
            os.close(out_w)
        payloads = []
        while readers:
            with open(readers.pop(0), "rb") as out:
                payloads.append(out.read())
        statuses = []
        while pids:
            statuses.append(os.waitpid(pids[0], 0)[1])
            pids.pop(0)
    finally:
        os.close(task_r)
        for out_r in readers:  # left only when something raised
            os.close(out_r)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if any(os.waitstatus_to_exitcode(status) != 0 for status in statuses):
        raise WorkerDied("a worker died")
    results: list = [None] * len(tasks)
    failures = []
    while payloads:  # each payload freed once read
        done, failure = pickle.loads(payloads.pop())
        for index, result in done:
            results[index] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _work(fn: Callable[[T], R], tasks: Sequence[T], task_r: int, out_w: int) -> None:
    """A forked worker's whole life: run tasks until the task pipe is
    empty or one raises, write (results, first failure) to out_w, and
    leave by `os._exit`, never returning into the parent's stack; the exit
    code is 0 only once everything is written."""
    import pickle

    code = 1
    try:
        done: list[tuple[int, R]] = []
        failure = None
        while chunk := os.read(task_r, _WIDTH):
            index = int.from_bytes(chunk, "little")
            try:
                done.append((index, fn(tasks[index])))
            except BaseException as exc:  # the parent raises it, as the in-process map would
                failure = (index, exc)
                break
        with open(out_w, "wb") as out:
            pickle.dump((done, failure), out)
        code = 0
    finally:
        os._exit(code)
