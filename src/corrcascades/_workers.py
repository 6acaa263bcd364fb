"""A few independent jobs at once, each in its own process on its own CPU.

`run_jobs` runs a list of zero-argument jobs: job 0 in the caller and every
later job in a child started by `os.fork`.  A child inherits everything the
caller holds, so nothing is pickled in; it sends its result or its
exception back pickled through a pipe and leaves by `os._exit`, so it never
runs its parent's exit handlers or flushes the output buffers it inherited.
A child keeps the warning filters it inherited: a warning its job issues
prints from the child, and one that a filter makes an error fails the job.
While the jobs run, each process is pinned to its own CPU of the caller's
affinity mask.  On a host whose cpuset does not balance load between its
CPUs (`cpuset.sched_load_balance = 0`) the kernel never moves a forked child
off the CPU it started on, which is its parent's, so an unplaced child can
share one CPU with its parent while another CPU idles.  Windows has no fork
and macOS's system libraries are not safe across one; there the jobs run
one after another in the caller.

The parallelism is these processes, so each runs one BLAS thread: importing
this module sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and
`MKL_NUM_THREADS` to 1 where the caller has not set them, and the package
imports it before any module that loads numpy, whose BLAS reads them once
when it loads.  A BLAS that starts one thread per CPU in each of several
processes pinned one to a CPU makes them fight for it.
"""

from __future__ import annotations

import os
import pickle
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
    """Body of the child that runs job i: send `(ok, value)` pickled through
    `write_fd` and leave by `os._exit`.  A child that cannot send its
    payload exits with code 1 and sends nothing."""
    code = 1
    try:
        _pin(cpus, i)
        try:
            payload = (True, job())
        except BaseException as exc:  # the caller raises it
            payload = (False, exc)
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def run_jobs(jobs: list) -> list:
    """The results of the zero-argument `jobs`, in job order.

    With a safe fork, job 0 runs in the caller and each later job in a
    forked child, all at once, process i pinned to cpus[i % len(cpus)] of
    the caller's affinity mask (unplaced where pinning fails); the caller's
    mask is restored before this returns or raises.  The exception of the
    lowest-index failed job is raised, with its type and message; a child
    that sends nothing is named with its exit code.  Every child is reaped,
    and on any failure the ones still running are killed first.  Otherwise
    the jobs run in order here.
    """
    if len(jobs) < 2 or not FORK_SAFE:
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
            ok, value = pickle.loads(data)
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
