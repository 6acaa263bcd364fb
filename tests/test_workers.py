import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import corrcascades
from corrcascades import _workers
from corrcascades._workers import run_jobs

forked = pytest.mark.skipif(not _workers.FORK_SAFE, reason="the jobs run in order in-process here")
placed = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask here")


@pytest.fixture(autouse=True)
def caller_mask_kept():
    """Every test leaves the caller's CPU affinity mask as it found it."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if mask is not None:
        assert os.sched_getaffinity(0) == mask


def _raise(exc):
    def job():
        raise exc

    return job


@forked
class TestRunJobs:
    def test_results_in_job_order_from_caller_and_children(self):
        results = run_jobs([lambda i=i: (i, os.getpid()) for i in range(4)])
        assert [i for i, _ in results] == [0, 1, 2, 3]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 4

    def test_child_exception_raised_with_type_and_message(self):
        with pytest.raises(KeyError, match="no such user"):
            run_jobs([lambda: 0, _raise(KeyError("no such user"))])

    def test_lowest_index_failure_wins(self):
        def late_failure():
            time.sleep(0.2)
            raise ValueError("job 1")

        # job 2 fails first, but job 1's error is the one raised
        with pytest.raises(ValueError, match="job 1"):
            run_jobs([lambda: 0, late_failure, _raise(TypeError("job 2"))])
        # and the caller's own job outranks every child
        with pytest.raises(LookupError, match="job 0"):
            run_jobs([_raise(LookupError("job 0")), _raise(ValueError("job 1"))])

    def test_child_without_result_is_named_with_its_exit_code(self):
        with pytest.raises(RuntimeError, match=r"worker 1 ended without a result \(exit code 3\)"):
            run_jobs([lambda: 0, lambda: os._exit(3)])

    def test_caller_failure_kills_and_reaps_a_busy_child(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="caller"):
            run_jobs([_raise(ValueError("caller")), lambda: time.sleep(30.0)])
        assert time.monotonic() - start < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @placed
    def test_each_process_pinned_to_its_own_cpu(self):
        cpus = sorted(os.sched_getaffinity(0))
        seen = run_jobs([lambda: os.sched_getaffinity(0)] * 3)
        assert seen == [{cpus[i % len(cpus)]} for i in range(3)]

    def test_runs_unplaced_where_pinning_fails(self, monkeypatch):
        def refuse(pid, mask):
            raise OSError("pinning refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        assert run_jobs([lambda: 1, lambda: 2]) == [1, 2]


def _warn(text):
    def job():
        warnings.warn(text, UserWarning)
        return text

    return job


@forked
def test_warning_made_an_error_fails_its_child_job():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="job 1"):
            run_jobs([lambda: 0, _warn("job 1")])


@placed
def test_affinity_restored_after_success_and_failure():
    mask = os.sched_getaffinity(0)
    assert run_jobs([lambda: 1, lambda: 2]) == [1, 2]
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(ValueError):
        run_jobs([_raise(ValueError("caller")), lambda: 2])
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(ValueError):
        run_jobs([lambda: 1, _raise(ValueError("child"))])
    assert os.sched_getaffinity(0) == mask


def test_one_worker_runs_in_order_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    order = []
    jobs = [lambda i=i: order.append(i) or os.getpid() for i in range(3)]
    assert run_jobs(jobs[:1]) == [os.getpid()]
    monkeypatch.setattr(_workers, "FORK_SAFE", False)
    assert run_jobs(jobs) == [os.getpid()] * 3
    assert order == [0, 0, 1, 2]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread entries in /proc here")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_one_blas_thread_per_process_unless_set(preset):
    # the workers are the parallelism: a BLAS that starts a thread per CPU
    # in each of them runs several threads on each pinned CPU
    env = {key: value for key, value in os.environ.items() if key not in _BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(corrcascades.__file__).parents[1]))
    code = (
        "import os, corrcascades, numpy as np; a = np.ones((400, 400)); a @ a; "
        f"print(len(os.listdir('/proc/self/task')), [os.environ.get(v) for v in {_BLAS_VARS!r}])"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    threads, values = proc.stdout.split(" ", 1)
    if not preset:
        assert threads == "1"
    assert values.strip() == repr([preset.get(v, "1") for v in _BLAS_VARS])
