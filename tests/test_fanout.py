"""The ordered fan-out: results in order, one task per core at a time, the
earliest error, the caller's errstate, and a pool of its own in a forked child."""
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from yingram import fanout
from yingram.fanout import ordered_map
from conftest import set_usable_cores

SRC = Path(__file__).resolve().parents[1] / "src"


def _on_main_thread(_=None) -> bool:
    return threading.current_thread() is threading.main_thread()


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_results_come_back_in_order(monkeypatch, cores):
    set_usable_cores(monkeypatch, cores)
    delays = np.random.default_rng(cores).uniform(0.0, 0.004, 12)

    def task(i):
        time.sleep(delays[i])  # later tasks often finish first
        return i * i

    assert ordered_map(task, range(12)) == [i * i for i in range(12)]


def test_at_most_one_task_per_core_is_handed_out(monkeypatch):
    # the oldest task holds the line: once task 1 has run, the pool has an
    # idle thread, yet no task past the first two may start before task 0 returns
    set_usable_cores(monkeypatch, 2)
    started, one_ran = [], threading.Event()

    def task(i):
        started.append(i)
        if i == 1:
            one_ran.set()
        if i == 0:
            assert one_ran.wait(5.0)
            time.sleep(0.1)
            return sorted(started)

    assert ordered_map(task, range(6))[0] == [0, 1]


@pytest.mark.parametrize("cores, count", [(1, 5), (2, 1), (2, 0)])
def test_one_core_or_one_task_runs_on_the_calling_thread(monkeypatch, cores, count):
    set_usable_cores(monkeypatch, cores)
    assert ordered_map(_on_main_thread, range(count)) == [True] * count


def test_two_tasks_on_two_cores_run_on_the_pool(monkeypatch):
    set_usable_cores(monkeypatch, 2)
    assert ordered_map(_on_main_thread, range(2)) == [False, False]


def test_the_earliest_failing_task_raises(monkeypatch):
    # task 1 fails first, then task 0: the serial loop would raise task 0's error
    set_usable_cores(monkeypatch, 2)
    one_failed = threading.Event()

    def task(i):
        if i == 0:
            assert one_failed.wait(5.0)
            raise ValueError("task 0")
        one_failed.set()
        raise ValueError("task 1")

    with pytest.raises(ValueError, match="^task 0$"):
        ordered_map(task, range(4))


def test_no_task_outlives_a_failed_call(monkeypatch):
    set_usable_cores(monkeypatch, 2)
    finished = []

    def task(i):
        if i == 0:
            raise ValueError("task 0")
        time.sleep(0.05)
        finished.append(i)

    with pytest.raises(ValueError, match="^task 0$"):
        ordered_map(task, range(2))
    assert finished == [1]


def test_tasks_run_under_the_callers_errstate(monkeypatch):
    set_usable_cores(monkeypatch, 2)

    def task(_):
        return np.float64(1e308) * 10.0

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        ordered_map(task, range(2))
    with np.errstate(over="ignore"):
        assert ordered_map(task, range(2)) == [np.inf, np.inf]


FORK_SCRIPT = """
import os, sys, threading, time
import numpy as np
from yingram import Waveform, fanout, resample
w = Waveform(np.random.default_rng(0).standard_normal(2**18), 44100)
expected = resample(w, 22050).samples.tobytes()  # builds the pool on a multi-core machine
print("pool", fanout._pool is not None, threading.active_count(), flush=True)
pid = os.fork()
if pid == 0:
    os._exit(0 if resample(w, 22050).samples.tobytes() == expected else 3)
deadline = time.monotonic() + 60.0
while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
    time.sleep(0.01)
if done[0] == 0:  # the child hangs: end it, so no process outlives the test
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    sys.exit("the forked child did not finish")
sys.exit(os.waitstatus_to_exitcode(done[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_own_pool():
    # the child inherits the parent's pool object but none of its threads;
    # a task handed to it would wait forever
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", FORK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    if fanout.workers() > 1:
        assert done.stdout.split()[:2] == ["pool", "True"]
