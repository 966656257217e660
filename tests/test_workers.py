"""The fork runner, `_workers.map`: results in task order on every route
(one CPU; two, in workers; two, with this process taking tasks beside its
one worker), a task's exception raised unchanged, every task no worker
returns run in this process (a task that raised, results that do not
cross a pipe, a pipe or fork refused, SIGCHLD ignored), a dead worker
named, SIGINT left as it was, and no worker or pipe left behind on any
path."""

from __future__ import annotations

import os
import select
import signal
from typing import NamedTuple

import pytest
from helpers import count_forks, no_child_left, open_fds, refused_at

from polytri import _workers


class Route(NamedTuple):
    cpus: int  # the usable CPUs the runner sees
    here: bool  # `map`'s flag: this process takes tasks beside its workers


ROUTES = {"one-cpu": Route(1, False), "two-cpus": Route(2, False),
          "two-cpus-here": Route(2, True)}


@pytest.fixture(params=ROUTES.values(), ids=ROUTES)
def route(request, monkeypatch):
    """The runner as if 1 or 2 CPUs were usable: 1 runs the tasks in this
    process, 2 in forked workers, or with `here` in one forked worker and
    in this process.  Each case leaves no child and no fd open."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: request.param.cpus)
    fds = open_fds()
    yield request.param
    assert no_child_left()
    assert open_fds() == fds


def test_results_come_back_in_task_order(route):
    offset = 10  # a closure: only results cross between processes
    tasks = list(range(7, 0, -1))
    assert _workers.map(lambda task: (task + offset, "x" * task), tasks, here=route.here) == [
        (task + offset, "x" * task) for task in tasks]
    assert _workers.map(str, [], here=route.here) == []


def test_tasks_leave_this_process_only_with_two_cpus(route):
    pids = set(_workers.map(lambda _: os.getpid(), range(6), here=route.here))
    if route.here:  # this process and its one worker
        assert len(pids - {os.getpid()}) <= 1
    else:
        assert (pids == {os.getpid()}) == (route.cpus == 1)


def test_a_task_list_too_long_for_one_pipe_write_stays_in_this_process(route):
    tasks = range(_workers._PIPE_BUF // _workers._WIDTH + 1)
    assert set(_workers.map(lambda _: os.getpid(), tasks, here=route.here)) == {os.getpid()}


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, and no child or fd left open after the test."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    fds = open_fds()
    yield
    assert no_child_left()
    assert open_fds() == fds


@pytest.fixture
def signal_pipe():
    """(read end, write end) of a pipe that one process writes a byte to
    and another waits on (see `wait_for`), closed after the test."""
    ends = os.pipe()
    yield ends
    for end in ends:
        os.close(end)


def wait_for(read_end: int) -> None:
    """Wait until read_end has a byte to read, without reading it, so every
    later wait returns at once; at most 10 s."""
    select.select([read_end], [], [], 10)


def test_here_forks_one_worker_fewer_and_takes_tasks_beside_it(two_cpus, monkeypatch,
                                                               signal_pipe):
    parent = os.getpid()
    ran_r, ran_w = signal_pipe  # a byte once the worker has run a task

    def task(_):
        if os.getpid() == parent:  # this process's first task waits for the worker's
            wait_for(ran_r)
        else:
            os.write(ran_w, b"x")
        return os.getpid()

    forks = count_forks(monkeypatch)
    pids = _workers.map(task, range(6), here=True)
    monkeypatch.undo()
    assert forks == [parent]
    assert parent in pids and len(set(pids)) == 2


class Boom(Exception):
    """An exception of the test's own, which must come back as itself."""


def _raise_at(*failing):
    def task(index):
        if index in failing:
            raise Boom(f"task {index}")
        return index

    return task


@pytest.mark.parametrize("failing", [(3,), (5, 2), (0, 1, 2, 3, 4, 5)])
def test_the_first_failing_task_raises_unchanged(route, failing):
    with pytest.raises(Boom) as info:
        _workers.map(_raise_at(*failing), range(6), here=route.here)
    assert type(info.value) is Boom and str(info.value) == f"task {min(failing)}"


def test_a_worker_that_dies_raises_worker_died(two_cpus, signal_pipe):
    parent = os.getpid()
    died_r, died_w = signal_pipe  # a byte once a worker has taken a task

    def task(index):
        if os.getpid() != parent:
            os.write(died_w, b"x")
            os.kill(os.getpid(), signal.SIGKILL)
        wait_for(died_r)  # with `here`, this process's tasks wait until a worker has one
        return index

    for here in (False, True):
        with pytest.raises(_workers.WorkerDied):
            _workers.map(task, range(4), here=here)
        os.read(died_r, 16)  # the pipe emptied for the next route


def test_sigint_is_blocked_in_workers_and_restored_after(route):
    before = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    blocked = _workers.map(
        lambda _: signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, []), range(2),
        here=route.here)
    assert blocked == [route.cpus == 2] * 2
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == before


class TwoArgs(Exception):
    """An exception whose __init__ takes two arguments and passes one on, so
    that pickle, which rebuilds it from its args, cannot rebuild it."""

    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


def _raise_two_args(task):
    if task == 3:
        raise TwoArgs("task 3", "extra")
    return task


def test_an_exception_that_does_not_pickle_back_raises_as_itself(route):
    with pytest.raises(TwoArgs) as info:
        _workers.map(_raise_two_args, range(6), here=route.here)
    assert (str(info.value), info.value.extra) == ("task 3", "extra")


@pytest.mark.parametrize("make, read", [
    (lambda task: lambda: task, lambda result: result()),  # does not pickle
    (lambda task: TwoArgs(task, "extra"), lambda result: result.args[0]),  # does not load
], ids=["lambda", "unloadable"])
def test_a_result_that_does_not_cross_a_pipe_comes_back(route, make, read):
    results = _workers.map(make, range(6), here=route.here)
    assert [read(result) for result in results] == list(range(6))


def test_a_task_that_raised_in_a_worker_runs_again_here_with_sigint_unblocked(monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def task(index):
        if os.getpid() != parent:
            if index == 2:
                raise Boom("in a worker")
            return "worker"
        return "here", signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, [])

    results = _workers.map(task, range(4))
    assert results[2] == ("here", False)
    assert set(results) <= {"worker", ("here", False)}
    assert no_child_left()


def test_a_task_that_raised_beside_the_worker_runs_again_with_sigint_unblocked(
        two_cpus, signal_pipe):
    parent = os.getpid()
    raised_r, raised_w = signal_pipe  # a byte once this process's task has raised

    def task(index):
        blocked = signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, [])
        if os.getpid() != parent:
            wait_for(raised_r)  # so that this process takes a task first
        elif blocked:  # its share, beside the worker
            os.write(raised_w, b"x")
            raise Boom(f"task {index}")
        return os.getpid(), blocked

    results = _workers.map(task, range(6), here=True)
    # its share ended at the task that raised, which ran again after the
    # worker was reaped; the worker took every other task
    assert [blocked for pid, blocked in results if pid == parent] == [False]
    assert all(blocked for pid, blocked in results if pid != parent)


@pytest.mark.parametrize("here, name, call", [
    (False, "fork", 1), (False, "fork", 2),
    (False, "pipe", 1),  # the task pipe
    (False, "pipe", 2), (False, "pipe", 3),  # the first and the second worker's result pipe
    (True, "fork", 1),  # beside this process, its one worker
    (True, "pipe", 1), (True, "pipe", 2),
], ids=["fork-1", "fork-2", "pipe-1", "pipe-2", "pipe-3",
        "here-fork-1", "here-pipe-1", "here-pipe-2"])
def test_a_refused_fork_or_pipe_runs_every_task_here(monkeypatch, here, name, call):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    fds = open_fds()
    monkeypatch.setattr(os, name, refused_at(getattr(os, name), call))
    results = _workers.map(lambda task: (task, os.getpid()), range(6), here=here)
    monkeypatch.undo()
    assert results == [(task, os.getpid()) for task in range(6)]
    assert no_child_left()
    assert open_fds() == fds


def test_ignored_sigchld_gives_the_same_results(route):
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        results = _workers.map(lambda task: task * task, range(6), here=route.here)
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert results == [task * task for task in range(6)]


def test_ignored_sigchld_runs_every_task_here_without_a_fork(monkeypatch):
    # with SIGCHLD ignored the kernel reaps the workers itself, so their
    # exit status cannot be had: the tasks run here, and no worker is forked
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    forks = []

    def fork():
        forks.append(os.getpid())
        raise AssertionError("forked with SIGCHLD ignored")

    monkeypatch.setattr(os, "fork", fork)
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        results = [_workers.map(lambda task: (task, os.getpid()), range(6), here=here)
                   for here in (False, True)]
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert results == [[(task, os.getpid()) for task in range(6)]] * 2
    assert forks == []


@pytest.mark.parametrize("unit", sorted(_workers.FORK_FROM))
def test_a_call_forks_only_from_its_units_threshold(monkeypatch, unit):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    least = _workers.FORK_FROM[unit]
    for work, forks in [(least - 1, False), (least, True), (None, True)]:
        assert _workers.pays(**{unit: work}) == forks
        pids = set(_workers.map(lambda _: os.getpid(), range(4), **{unit: work}))
        assert (os.getpid() not in pids) == forks
    assert _workers.pays()
    assert no_child_left()
