import os
import time
import warnings

import pytest

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
        results = run_jobs([lambda i=i: (i, os.getpid()) for i in range(4)], 4)
        assert [i for i, _ in results] == [0, 1, 2, 3]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 4

    def test_child_exception_raised_with_type_and_message(self):
        with pytest.raises(KeyError, match="no such user"):
            run_jobs([lambda: 0, _raise(KeyError("no such user"))], 2)

    def test_lowest_index_failure_wins(self):
        def late_failure():
            time.sleep(0.2)
            raise ValueError("job 1")

        # job 2 fails first, but job 1's error is the one raised
        with pytest.raises(ValueError, match="job 1"):
            run_jobs([lambda: 0, late_failure, _raise(TypeError("job 2"))], 3)
        # and the caller's own job outranks every child
        with pytest.raises(LookupError, match="job 0"):
            run_jobs([_raise(LookupError("job 0")), _raise(ValueError("job 1"))], 2)

    def test_child_without_result_is_named_with_its_exit_code(self):
        with pytest.raises(RuntimeError, match=r"worker 1 ended without a result \(exit code 3\)"):
            run_jobs([lambda: 0, lambda: os._exit(3)], 2)

    def test_caller_failure_kills_and_reaps_a_busy_child(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="caller"):
            run_jobs([_raise(ValueError("caller")), lambda: time.sleep(30.0)], 2)
        assert time.monotonic() - start < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @placed
    def test_each_process_pinned_to_its_own_cpu(self):
        cpus = sorted(os.sched_getaffinity(0))
        seen = run_jobs([lambda: os.sched_getaffinity(0)] * 3, 3)
        assert seen == [{cpus[i % len(cpus)]} for i in range(3)]

    def test_runs_unplaced_where_pinning_fails(self, monkeypatch):
        def refuse(pid, mask):
            raise OSError("pinning refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        assert run_jobs([lambda: 1, lambda: 2], 2) == [1, 2]


def _warn(text, exc=None):
    def job():
        warnings.warn(text, UserWarning)
        if exc is not None:
            raise exc
        return text

    return job


def test_warnings_reach_the_caller_in_job_order():
    # each job's warnings, a failed job's included, in the order one
    # process running the jobs one after another issues them
    def recorded(workers):
        jobs = [_warn("job 0"), _warn("job 1"), _warn("job 2", ValueError("job 2 failed"))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_jobs(jobs[:2], workers) == ["job 0", "job 1"]
            with pytest.raises(ValueError, match="job 2 failed"):
                run_jobs(jobs, workers)
        return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    one = recorded(1)
    assert [text for text, *_ in one] == ["job 0", "job 1", "job 0", "job 1", "job 2"]
    assert recorded(2) == one


@forked
def test_warning_made_an_error_fails_its_child_job():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="job 1"):
            run_jobs([lambda: 0, _warn("job 1")], 2)


@placed
def test_affinity_restored_after_success_and_failure():
    mask = os.sched_getaffinity(0)
    assert run_jobs([lambda: 1, lambda: 2], 2) == [1, 2]
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(ValueError):
        run_jobs([_raise(ValueError("caller")), lambda: 2], 2)
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(ValueError):
        run_jobs([lambda: 1, _raise(ValueError("child"))], 2)
    assert os.sched_getaffinity(0) == mask


def test_one_worker_runs_in_order_in_process(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    order = []
    jobs = [lambda i=i: order.append(i) or os.getpid() for i in range(3)]
    assert run_jobs(jobs, 1) == [os.getpid()] * 3
    assert run_jobs(jobs[:1], 4) == [os.getpid()]
    monkeypatch.setattr(_workers, "FORK_SAFE", False)
    assert run_jobs(jobs, 2) == [os.getpid()] * 3
    assert order == [0, 1, 2, 0, 0, 1, 2]


def test_a_warning_shown_once_is_not_shown_again_by_a_child():
    # under the default filter (once per location) a warning the caller has
    # already shown stays hidden whether the jobs fork or not, and a filter
    # keyed on the warning's module name matches the children's copies too
    def shown(workers, module_filter):
        job = _warn("from one line")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            if module_filter:
                warnings.filterwarnings("ignore", module=__name__)
            job()
            run_jobs([job] * 3, workers)
        return len(caught)

    assert shown(1, False) == shown(3, False) == 1
    assert shown(1, True) == shown(3, True) == 0
