"""One runner for work that forked worker processes may share: `map`.

`map(fn, tasks, **estimate)` returns [fn(task) for task in tasks], in task
order.  It forks min(usable CPUs, len(tasks)) workers, and the tasks run
there; with `here=True` it forks one worker fewer and this process takes
tasks beside them.  It forks only when forking can pay and can work:

- the caller's work estimate reaches its unit's threshold in FORK_FROM
  (`pays`), as below it a fork and a worker's start cost more than the
  workers save;
- at least two CPUs are usable, and the task indices fit the task pipe;
- `os.fork` exists, and this process runs no other thread (a lock held
  there would stay held in a child);
- SIGCHLD is not ignored, since then the kernel reaps the workers itself
  and their exit status cannot be had.

Otherwise the tasks run one after another in this process.

Before it forks, the parent writes every task index, at a fixed width,
into one pipe, in one write of at most PIPE_BUF bytes, which a pipe holds
whole, and closes its end.  Each worker reads one index at a time, so each
task reaches exactly one worker, the next one free (as an executor's
chunksize=1 would), until the pipe is empty or one of its tasks raises.
It then writes the results it has, pickled, to a pipe of its own and
leaves by `os._exit`.  Only results cross between processes, never an
exception, so fn may be any callable, a closure included.  With `here`,
the parent takes indices from the same pipe by the same rule once its
workers are forked, and keeps its own results, which cross no pipe.  The
parent then reads each worker's pipe to EOF in turn, which cannot
deadlock, as no worker waits on another, and then reaps every worker.  A
worker inherits what this process built before the fork, such as a
cache, so a caller that builds what every task reads before calling
`map` spares each worker that work.

Every task whose result the run does not return runs here afterwards, in
task order, once the workers are reaped and SIGINT is unblocked, so the
caller gets what the in-process map would return or raise.  That covers
a task that raised, in a worker or in the parent's own share, and those
the task pipe still held; every task of a worker whose results do not
load, which is so when one of them did not pickle (a pickle cut short has
no STOP opcode) or does not rebuild; and every task when a pipe, a fork
or a worker's exit status cannot be had (an `OSError`, such as a fork
refused with EAGAIN).  A task may thus run twice, once in a worker and
once here, so fn must have no side effects.  A worker that ends by a
signal or a nonzero exit code, killed or crashed, raises `WorkerDied`.
SIGINT stays blocked here and in the workers while they run, so Ctrl-C
takes effect here once they are reaped, and no worker outlives the call
on any path.
"""

from __future__ import annotations

import contextlib
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


# The least work estimate at which `map` forks, by the unit its caller
# counts work in (see `pays`).  Each was set by alternating fresh-process
# timings on a 2-core x86-64 machine (Python 3.11), medians of 11-31:
FORK_FROM = {
    # the lines of a listing.  The command's own time, forked (this
    # process beside one worker) against one task in this process:
    # 7,168 lines (12-gon, 3 ears) 28.8 vs 26.9 ms, and 29.6 vs 29.0 ms
    # in a second set (14-gon, 2 ears: 34.8 vs 35.0 ms); 8,736 (13-gon,
    # 5 ears) 33.2 vs 34.6 ms, and 38.5 vs 38.0 ms, even within the
    # noise; the whole 12-gon's 16,796 lines 37.8 vs 44.7 ms (40.3 vs
    # 48.5 ms as JSON); 19,968 (13-gon, 3 ears) 44.0 vs 56.8 ms; 26,208
    # (13-gon, 4 ears) 55.4 vs 68.3 ms.  So forking pays from 16,796
    # lines and is even at 7,168 to 8,736; no listing of n <= 14 has
    # 8,737 to 16,795 lines, so any bound between acts the same
    "lines": 10001,
    # verify's cap on its rows' windows, --max-n; None, each row's own
    # window (a full run), always forks.  The whole command, forked against
    # one CPU: --max-n 6 127 vs 110 ms, 8 157 vs 156 ms, 9 232 vs 269 ms,
    # 10 315 vs 444 ms
    "max_n": 9,
}


class WorkerDied(RuntimeError):
    """A worker process ended, killed or crashed, before it returned its results."""


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pays(**estimate: int | None) -> bool:
    """Whether a call of this much work gains by forking: each keyword
    names a unit of FORK_FROM, and its value is the caller's estimate in
    it, None for no bound (which always pays).  No estimate pays."""
    return all(work is None or work >= FORK_FROM[unit] for unit, work in estimate.items())


def map(fn: Callable[[T], R], tasks: Sequence[T], *, here: bool = False,
        **estimate: int | None) -> list[R]:
    """[fn(task) for task in tasks], in forked workers where forking pays
    for the caller's work estimate (see `pays`) and this process may fork
    them, and here for every task no worker returns (see the module
    docstring).

    With `here`, this process forks one worker fewer and takes tasks from
    the task pipe beside them, its results never pickled.  `enumerate`
    sets it: on a 2-core x86-64 machine (Python 3.11) the `listing`
    benchmark's wall time went 0.242 -> 0.209 s, 0.235 -> 0.211 s and
    0.240 -> 0.213 s, 10 of 10 alternating seed pairs in each set (7, 8
    and 8 of 10 in three noisier sets), at +0.3-0.4 MB (+1%) peak RSS.
    `verify` does not: its rows' working memory would land in this
    process, whose peak RSS went 19.3 -> 25.7 MB (4 of 4 pairs), while
    its wall time did not move (0.340 -> 0.355 s, 2 of 4 pairs won)."""
    workers = min(_usable_cpus(), len(tasks))
    done: dict[int, R] = {}
    if (workers > 1 and len(tasks) * _WIDTH <= _PIPE_BUF and pays(**estimate)
            and hasattr(os, "fork") and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            done = _forked(fn, tasks, workers - here, here)
        except OSError:  # no pipe, fork or exit status to be had: every task runs here
            pass
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return [done[i] if i in done else fn(task) for i, task in enumerate(tasks)]


def _forked(fn: Callable[[T], R], tasks: Sequence[T], workers: int,
            here: bool) -> dict[int, R]:
    """The results that `workers` forked processes return, and with `here`
    those of the tasks this process takes beside them, by task index, with
    SIGINT blocked.  pickle is imported here, not at module level, so
    a process that never forks does not pay for it."""
    import pickle

    task_r, task_w = os.pipe()
    pids: list[int] = []  # the workers not yet reaped
    readers: list[int] = []  # their result pipes not yet read
    try:
        try:
            os.write(task_w, b"".join(i.to_bytes(_WIDTH, "little") for i in range(len(tasks))))
        finally:
            os.close(task_w)
        for _ in range(workers):
            out_r, out_w = os.pipe()
            readers.append(out_r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, tasks, task_r, out_w)  # never returns
            finally:
                os.close(out_w)
            pids.append(pid)
        done = dict(_take(fn, tasks, task_r)) if here else {}
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
            # a worker the kernel reaped itself, as it does when SIGCHLD
            # was ignored by means `signal.getsignal` does not see (a C
            # library's sigaction), is no longer a child, and its pid not
            # ours to kill
            with contextlib.suppress(OSError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    if any(statuses):  # a status other than exit code 0: killed, or crashed
        raise WorkerDied("a worker died")
    while payloads:  # each payload freed once loaded
        with contextlib.suppress(Exception):  # else its tasks run in `map`
            done.update(pickle.loads(payloads.pop()))
    return done


def _take(fn: Callable[[T], R], tasks: Sequence[T], task_r: int) -> list[tuple[int, R]]:
    """[(index, fn(tasks[index])), ...] for the task indices read from
    task_r, one at a time, until the pipe is empty or a task raises; the
    task that raised is left out, to run again in `map`."""
    done: list[tuple[int, R]] = []
    try:
        while chunk := os.read(task_r, _WIDTH):
            index = int.from_bytes(chunk, "little")
            done.append((index, fn(tasks[index])))
    except BaseException:  # `map` runs this task again, and raises what it raises
        pass
    return done


def _work(fn: Callable[[T], R], tasks: Sequence[T], task_r: int, out_w: int) -> None:
    """A forked worker's whole life: run tasks as `_take` does, write
    [(index, result), ...] to out_w, and leave by `os._exit(0)`, never
    returning into the parent's stack."""
    try:
        import pickle

        done = _take(fn, tasks, task_r)
        with open(out_w, "wb") as out:
            pickle.dump(done, out)  # a dump that raises leaves a pickle that does not load
    finally:
        os._exit(0)
