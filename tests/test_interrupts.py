"""Ctrl-C and a dead worker end a command in real processes: Ctrl-C with
exit 130 and no traceback, a dead verify or listing worker with exit 1 and
one line, and neither leaves a process behind.

Each child runs `cli.main`, the function both the `polytri` script and
`python -m polytri` call, in a session of its own, so that a signal sent
to its process group reaches only it and its workers, and with SIGINT at
its default, as a shell's foreground command has it, even when the test
run itself ignores SIGINT.  The fork runner is told that two CPUs are
usable, so verify and a large listing fork their workers on any machine.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest
from helpers import child_env

# a line on stderr once the package is imported and `cli.main` is next
STARTED = "started"
LAUNCH = (
    "import sys\n"
    "from polytri import _workers, cli\n"
    "_workers._usable_cpus = lambda: 2\n"
    f"print({STARTED!r}, file=sys.stderr, flush=True)\n"
    "cli.main()\n"
)

# commands that run for seconds; each is signalled once it runs: verify
# and the listing once their workers exist, sequence after its first line,
# the others a moment after `cli.main` is called
COMMANDS = {
    "verify": ["verify"],
    "enumerate": ["enumerate", "--n", "14"],
    "symmetry": ["symmetry", "--n", "16"],
    "sequence": ["sequence", "--what", "catalan", "--n", "1..7150"],
    "disjoint": ["disjoint", "--snake", "--n", "2000"],
}


def _default_sigint() -> None:
    """Run in the child before it execs: a SIGINT ignored here, as in a
    test run started in the background, would stay ignored there."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def start(argv) -> subprocess.Popen:
    """`cli.main` on argv in a new session, started up to its command."""
    env = child_env(PYTHONUNBUFFERED=None)
    proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True, preexec_fn=_default_sigint)
    assert proc.stderr.readline() == STARTED + "\n"
    return proc


def children(pid: int) -> list[int]:
    out = subprocess.run(["pgrep", "-P", str(pid)], capture_output=True, text=True).stdout
    return [int(child) for child in out.split()]


def workers(proc: subprocess.Popen, count: int = 2) -> list[int]:
    """The pids of proc's workers, once `count` of them exist."""
    deadline = time.monotonic() + 10
    while len(found := children(proc.pid)) < count:
        assert proc.poll() is None and time.monotonic() < deadline, "no workers started"
        time.sleep(0.005)
    return found


def finish(proc: subprocess.Popen) -> tuple[int, str]:
    """(exit code, the rest of stderr) once proc ends, which must be within
    10 s, after which no process of its group is left."""
    try:
        _, err = proc.communicate(timeout=10)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    left = subprocess.run(["pgrep", "-g", str(proc.pid)], capture_output=True, text=True)
    assert left.stdout == "", f"left in the group: {left.stdout.split()}"
    return proc.returncode, err


@pytest.mark.parametrize("target", ["group", "parent"])
@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_ctrl_c_exits_130_with_no_traceback(argv, target):
    proc = start(argv)
    try:
        if argv[0] in ("verify", "enumerate"):
            workers(proc)
        elif argv[0] == "sequence":
            assert proc.stdout.readline() == "1\n"
        else:  # it prints only at its end, seconds from now: let `main` start it
            time.sleep(0.2)
        if target == "group":  # a terminal's Ctrl-C
            os.killpg(proc.pid, signal.SIGINT)
        else:  # `kill -INT <pid>`
            os.kill(proc.pid, signal.SIGINT)
    finally:
        code, err = finish(proc)
    assert "Traceback" not in err, err
    assert (code, err) == (130, "")


def kill_a_worker(argv) -> tuple[int, str]:
    """(exit code, stderr) of `cli.main` on argv when one of its workers
    is killed, as the OOM killer would kill it."""
    proc = start(argv)
    try:
        os.kill(workers(proc)[0], signal.SIGKILL)
    finally:
        code, err = finish(proc)
    return code, err


def test_a_killed_worker_ends_verify_with_exit_1_and_one_line():
    assert kill_a_worker(["verify"]) == (1, "polytri: error: a verify worker died\n")


def test_a_killed_worker_ends_a_listing_with_exit_1_and_one_line():
    assert kill_a_worker(COMMANDS["enumerate"]) == (
        1, "polytri: error: a listing worker died\n")
