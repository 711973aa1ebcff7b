"""The CPU budget of a process, and the one way chainkd forks work across it.

Every stage that runs work in parallel asks `_fork_width` how many workers
it may start.  The budget is the spare CPUs: the allowed CPUs (the affinity
set, capped by the cgroup CPU quota), minus the caller's own, minus the
workers this process already has alive through `_Forked`.  Inside a forked
worker it is 0, so a worker never forks, and neither does a caller whose
workers already hold every spare CPU.
"""

from __future__ import annotations

import functools
import os

_CGROUP_ROOT = "/sys/fs/cgroup"

# the budget is a property of the process, not of a caller: every stage in
# it shares these two counts
_alive = 0  # workers this process has started through _Forked and not yet joined
_in_worker = False  # True in a forked worker, whose budget is 0


def _cgroup_cpus() -> int | None:
    """ceil(quota / period) of the cgroup CPU quota under _CGROUP_ROOT: v2's
    cpu.max, else v1's cpu/cpu.cfs_quota_us over cpu/cpu.cfs_period_us.  None
    where there is no quota ("max", -1) or no file can be read or parsed."""
    for names in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        fields = []
        try:
            for name in names:
                with open(os.path.join(_CGROUP_ROOT, name)) as fh:
                    fields += fh.read().split()
        except OSError:
            continue
        try:
            quota, period = map(int, fields)
        except ValueError:
            return None
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _allowed_cpus() -> int:
    """The CPUs in this process's affinity set, capped by its cgroup CPU quota."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else 1
    quota = _cgroup_cpus()
    return cpus if quota is None else max(1, min(cpus, quota))


def _spare_cpus() -> int:
    """The allowed CPUs that neither this process nor its live workers hold;
    0 inside a forked worker."""
    return 0 if _in_worker else max(0, _allowed_cpus() - 1 - _alive)


_OPENBLAS_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None where no such OpenBLAS can be found: another BLAS, or no
    /proc/self/maps to find it by."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {fields[5].rstrip("\n") for fields in (line.split(maxsplit=5) for line in maps)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


def _fork_width(n_tasks: int) -> int:
    """How many forked workers may run beside the caller: one per spare CPU,
    at most n_tasks, and none where the OpenBLAS thread count cannot be set
    (another BLAS), since every process must hold one thread."""
    k = min(_spare_cpus(), n_tasks)
    return k if k > 0 and _openblas_threads() is not None else 0


def _distill_error(message: str) -> Exception:
    from .distill import DistillError  # distill imports this module

    return DistillError(message)


class _RemoteTraceback(Exception):
    """The traceback of an error raised in a forked worker, chained as its cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _serve(sender, tasks: list) -> None:
    # the body of a forked worker: send (True, result) for each task in
    # order, or (False, (error, traceback)) for the first that fails
    global _in_worker
    _in_worker = True
    try:
        for task in tasks:
            sender.send((True, task()))
    except Exception as e:
        import traceback

        trace = traceback.format_exc()
        try:
            sender.send((False, (e, trace)))
        except Exception:  # an error that cannot be pickled
            sender.send((False, (_distill_error(f"{type(e).__name__}: {e}"), trace)))


class _Forked:
    """Forked workers, one per list of zero-argument tasks.  Each calls its
    tasks in order and sends each result back through its own pipe, or the
    first error with its traceback, then exits.  A worker inherits its tasks
    and all they reference (a shared mapping stays shared), so only results
    are pickled.  Each worker counts against the process's spare CPUs until
    it is joined.

    OpenBLAS is held to one thread in every process from the fork until
    `close`, so k processes use k CPUs: k processes of multi-threaded BLAS on
    k CPUs busy-wait on each other and run slower than one process alone.
    `close` (also the context exit) kills the workers whose results have not
    all been read, joins every worker and restores the thread count."""

    def __init__(self, task_lists: list[list]):
        # imported here: multiprocessing adds about 2 MB to the peak RSS of
        # a process that never forks
        import multiprocessing

        global _alive
        get_blas_threads, self._set_blas_threads = _openblas_threads()
        self._blas_threads = get_blas_threads()
        # set before the fork, so the workers inherit the single thread
        self._set_blas_threads(1)
        self._workers: list[list] = []  # [process, receiving end, results not yet read]
        try:
            # fork, so the workers inherit the tasks' inputs instead of pickles
            context = multiprocessing.get_context("fork")
            for tasks in task_lists:
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(target=_serve, args=(sender, tasks), daemon=True)
                try:
                    process.start()
                finally:
                    sender.close()  # the worker holds the only sending end: EOF once it is gone
                self._workers.append([process, receiver, len(tasks)])
                _alive += 1
        except BaseException:
            self.close()
            raise

    def result(self, j: int):
        """The next result of worker j, in its task order.  Raises that
        task's error, or DistillError if the worker ended without sending
        it: the wait also watches the worker's sentinel, so a worker that
        dies cannot leave the caller waiting."""
        from multiprocessing.connection import wait

        worker = self._workers[j]
        process, receiver, _ = worker
        wait([receiver, process.sentinel])
        try:
            # what a worker sent before it ended is still in the pipe
            message = receiver.recv() if receiver.poll() else None
        except (EOFError, OSError):
            message = None
        if message is None:
            process.join()
            raise _distill_error(f"forked worker {process.pid} ended with exit code {process.exitcode}"
                                 " before sending its result")
        worker[2] -= 1
        ok, value = message
        if not ok:
            error, trace = value
            raise error from _RemoteTraceback(trace)
        return value

    def close(self) -> None:
        global _alive
        workers, self._workers = self._workers, []
        try:
            for process, _, pending in workers:
                if pending:
                    process.kill()
            for process, receiver, _ in workers:
                process.join()
                receiver.close()
                _alive -= 1
        finally:
            if self._blas_threads is not None:
                self._set_blas_threads(self._blas_threads)
                self._blas_threads = None

    def __enter__(self) -> "_Forked":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _shares(tasks: list, k: int) -> list[list]:
    """tasks cut into k contiguous shares whose sizes differ by at most one,
    the larger ones first."""
    size, extra = divmod(len(tasks), k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return [tasks[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_forked(tasks: list) -> list:
    """Call each zero-argument task and return the results in task order.

    The tasks are cut into balanced contiguous shares, one per spare CPU
    plus the caller's own.  The caller runs the first share while forked
    workers run the others.  A failure raises what a serial pass would raise
    first, and every worker is joined before this returns or raises.  With
    no spare CPU (one allowed CPU, inside a worker, or beside workers that
    hold the others), or where the OpenBLAS thread count cannot be set, the
    caller runs every task itself and starts no process."""
    n = _fork_width(len(tasks) - 1)
    if n == 0:
        return [task() for task in tasks]
    first, *rest = _shares(tasks, n + 1)
    with _Forked(rest) as forked:
        results = [task() for task in first]
        # in task order, so a failure raises what a serial pass would
        for j, share in enumerate(rest):
            results.extend(forked.result(j) for _ in share)
    return results
