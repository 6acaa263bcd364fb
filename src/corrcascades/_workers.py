"""A few independent jobs at once, each in its own process on its own CPU.

`run_jobs` runs a list of zero-argument jobs: job 0 in the caller and every
later job in a child started by `os.fork`.  A child inherits everything the
caller holds, so nothing is pickled in; it sends its result or its
exception back pickled through a pipe, with the warnings its job issued
for the caller to issue again, and leaves by `os._exit`, so it never runs
its parent's exit handlers or flushes the output buffers it inherited.
While the jobs run, each process is pinned to its own CPU of the caller's
affinity mask.  On a host whose cpuset does not balance load between its
CPUs (`cpuset.sched_load_balance = 0`) the kernel never moves a forked child
off the CPU it started on, which is its parent's, so an unplaced child can
share one CPU with its parent while another CPU idles.  Windows has no fork
and macOS's system libraries are not safe across one; there the jobs run
one after another in the caller.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings

WORKERS_ENV_VAR = "CORRCASCADES_WORKERS"

# whether `run_jobs` may fork its jobs
FORK_SAFE = hasattr(os, "fork") and sys.platform != "darwin"


def default_worker_count() -> int:
    """`CORRCASCADES_WORKERS` if set, else the cores this process may run on:
    its CPU affinity mask where the platform has one, so a process pinned to
    fewer cores starts no more workers than it can run."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    if count < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be at least 1, got {raw!r}")
    return count


def _pin(cpus: list[int] | None, i: int) -> bool:
    """Pin this process to cpus[i % len(cpus)]; False where that fails or
    the platform has no affinity mask (`cpus` None)."""
    if cpus is None:
        return False
    try:
        os.sched_setaffinity(0, (cpus[i % len(cpus)],))
    except OSError:
        return False
    return True


def _child(write_fd: int, job, cpus: list[int] | None, i: int):
    """Body of the child that runs job i: send `(ok, value, shown)` pickled
    through `write_fd` and leave by `os._exit`.  `shown` lists the
    (message, category, filename, lineno) of each warning the job issued
    that the filters it inherited let through; a filter that makes one an
    error fails the job.  A child that cannot send its payload exits with
    code 1 and sends nothing."""
    code = 1
    try:
        _pin(cpus, i)
        with warnings.catch_warnings(record=True) as caught:
            try:
                payload = (True, job())
            except BaseException as exc:  # the caller raises it
                payload = (False, exc)
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        data = pickle.dumps((*payload, shown), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _warn_again(message, category, filename, lineno):
    """Issue a child's warning here as `warnings.warn` would have: under the
    name, and into the `__warningregistry__`, of the module loaded from
    `filename` (the defaults of `warn_explicit` where none was), so a
    warning already shown from that line is not shown again."""
    for module in list(sys.modules.values()):
        if getattr(module, "__file__", None) == filename:
            registry = vars(module).setdefault("__warningregistry__", {})
            warnings.warn_explicit(message, category, filename, lineno, module.__name__, registry)
            return
    warnings.warn_explicit(message, category, filename, lineno)


def run_jobs(jobs: list, workers: int) -> list:
    """The results of the zero-argument `jobs`, in job order.

    With `workers` > 1 and a safe fork, job 0 runs in the caller and each
    later job in a forked child, all at once, process i pinned to
    cpus[i % len(cpus)] of the caller's affinity mask (unplaced where
    pinning fails); the caller's mask is restored before this returns or
    raises.  The exception of the lowest-index failed job is raised, with
    its type and message; a child that sends nothing is named with its
    exit code.  A child's warnings are issued again here (`_warn_again`),
    job by job after job 0's own and before a job's exception, so the
    caller's filters, records and warning registries see each job's
    warnings in job order, as if the jobs had run here.  Every child is
    reaped, and on any failure the ones still running are killed first.
    Otherwise the jobs run in order here.
    """
    if workers < 2 or len(jobs) < 2 or not FORK_SAFE:
        return [job() for job in jobs]
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    cpus = sorted(mask) if mask else None
    pids, pipes = [], []  # a pid becomes None once its child is reaped
    pinned = False
    try:
        for i, job in enumerate(jobs[1:], 1):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write_fd, job, cpus, i)  # does not return
            finally:
                os.close(write_fd)
            pids.append(pid)
        pinned = _pin(cpus, 0)
        results = [jobs[0]()]
        for i, pipe in enumerate(pipes):
            data = pipe.read()
            status = os.waitpid(pids[i], 0)[1]
            pids[i] = None
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"worker {i + 1} ended without a result (exit code {code})")
            ok, value, shown = pickle.loads(data)
            for message, category, filename, lineno in shown:
                _warn_again(message, category, filename, lineno)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid is not None:
                from signal import SIGKILL  # about 1 ms of import, paid only on a failure

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        if pinned:
            os.sched_setaffinity(0, mask)
