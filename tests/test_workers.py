"""The fork runner, `_workers.map`: results in task order on both routes,
a task's exception raised unchanged, every task no worker returns run in
this process (a task that raised, results that do not cross a pipe, a
pipe or fork refused, SIGCHLD ignored), a dead worker named, SIGINT left
as it was, and no worker or pipe left behind on any path."""

from __future__ import annotations

import os
import signal

import pytest
from helpers import no_child_left, open_fds, refused_at

from polytri import _workers


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The runner as if 1 or 2 CPUs were usable: 1 runs the tasks in this
    process, 2 in forked workers."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: request.param)
    return request.param


def test_results_come_back_in_task_order(cpus):
    offset = 10  # a closure: only results cross between processes
    tasks = list(range(7, 0, -1))
    assert _workers.map(lambda task: (task + offset, "x" * task), tasks) == [
        (task + offset, "x" * task) for task in tasks]
    assert _workers.map(str, []) == []
    assert no_child_left()


def test_tasks_leave_this_process_only_with_two_cpus(cpus):
    pids = set(_workers.map(lambda _: os.getpid(), range(6)))
    assert (pids == {os.getpid()}) == (cpus == 1)
    assert no_child_left()


def test_a_task_list_too_long_for_one_pipe_write_stays_in_this_process(cpus):
    tasks = range(_workers._PIPE_BUF // _workers._WIDTH + 1)
    assert set(_workers.map(lambda _: os.getpid(), tasks)) == {os.getpid()}


class Boom(Exception):
    """An exception of the test's own, which must come back as itself."""


def _raise_at(*failing):
    def task(index):
        if index in failing:
            raise Boom(f"task {index}")
        return index

    return task


@pytest.mark.parametrize("failing", [(3,), (5, 2), (0, 1, 2, 3, 4, 5)])
def test_the_first_failing_task_raises_unchanged(cpus, failing):
    with pytest.raises(Boom) as info:
        _workers.map(_raise_at(*failing), range(6))
    assert type(info.value) is Boom and str(info.value) == f"task {min(failing)}"
    assert no_child_left()


def _die_in_a_worker(task, parent=os.getpid()):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def test_a_worker_that_dies_raises_worker_died(monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    with pytest.raises(_workers.WorkerDied):
        _workers.map(_die_in_a_worker, range(4))
    assert no_child_left()


def test_sigint_is_blocked_in_workers_and_restored_after(cpus):
    before = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    blocked = _workers.map(
        lambda _: signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, []), range(2))
    assert blocked == [cpus == 2] * 2
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


def test_an_exception_that_does_not_pickle_back_raises_as_itself(cpus):
    with pytest.raises(TwoArgs) as info:
        _workers.map(_raise_two_args, range(6))
    assert (str(info.value), info.value.extra) == ("task 3", "extra")
    assert no_child_left()


@pytest.mark.parametrize("make, read", [
    (lambda task: lambda: task, lambda result: result()),  # does not pickle
    (lambda task: TwoArgs(task, "extra"), lambda result: result.args[0]),  # does not load
], ids=["lambda", "unloadable"])
def test_a_result_that_does_not_cross_a_pipe_comes_back(cpus, make, read):
    assert [read(result) for result in _workers.map(make, range(6))] == list(range(6))
    assert no_child_left()


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


@pytest.mark.parametrize("name, call", [
    ("fork", 1), ("fork", 2),
    ("pipe", 1),  # the task pipe
    ("pipe", 2), ("pipe", 3),  # the first and the second worker's result pipe
], ids=["fork-1", "fork-2", "pipe-1", "pipe-2", "pipe-3"])
def test_a_refused_fork_or_pipe_runs_every_task_here(monkeypatch, name, call):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    fds = open_fds()
    monkeypatch.setattr(os, name, refused_at(getattr(os, name), call))
    results = _workers.map(lambda task: (task, os.getpid()), range(6))
    monkeypatch.undo()
    assert results == [(task, os.getpid()) for task in range(6)]
    assert no_child_left()
    assert open_fds() == fds


def test_ignored_sigchld_gives_the_same_results(cpus):
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        results = _workers.map(lambda task: task * task, range(6))
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert results == [task * task for task in range(6)]
    assert no_child_left()


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
        results = _workers.map(lambda task: (task, os.getpid()), range(6))
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert results == [(task, os.getpid()) for task in range(6)]
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
