"""The CPU budget of a process, and its one pool of worker processes.

Every stage that runs work in parallel asks `_fork_width` how many workers
it may lease.  The budget is the spare CPUs: the allowed CPUs (the affinity
set, capped by the cgroup CPU quota), minus the caller's own, minus the
workers this process has leased.  Inside a worker it is 0, so a worker never
leases, and neither does a caller whose leases hold every spare CPU.  A
worker is forked the first time a lease needs it and kept for every later
lease, so a stage pays no fork, join or fresh copy-on-write faults.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal

import numpy as np

_CGROUP_ROOT = "/sys/fs/cgroup"

# the budget and the pool are properties of the process, not of a caller:
# every stage in it shares them
_pool: list[tuple] = []  # every live worker: (process, the caller's end of its socket pair)
_idle: list[tuple] = []  # the workers no lease holds
_leased = 0  # workers held by open leases
_blas_threads = None  # the caller's OpenBLAS thread count before the open leases
_in_worker = False  # True in a pool worker, whose budget is 0


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
    """The allowed CPUs that neither this process nor its leased workers
    hold; 0 inside a worker."""
    return 0 if _in_worker else max(0, _allowed_cpus() - 1 - _leased)


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
    """How many pool workers may run beside the caller: one per spare CPU,
    at most n_tasks, and none where the OpenBLAS thread count cannot be set
    (another BLAS), since every process must hold one thread."""
    k = min(_spare_cpus(), n_tasks)
    return k if k > 0 and _openblas_threads() is not None else 0


def _distill_error(message: str) -> Exception:
    from .distill import DistillError  # distill imports this module

    return DistillError(message)


class _RemoteTraceback(Exception):
    """The traceback of an error raised in a worker, chained as its cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _map(fd: int, shape: tuple, dtype) -> np.ndarray:
    buffer = mmap.mmap(fd, math.prod(shape) * np.dtype(dtype).itemsize)
    os.close(fd)  # the mapping holds its own
    return np.frombuffer(buffer, dtype).reshape(shape)


def _work(conn, inherited: list) -> None:
    """A pool worker: for each list of tasks, send (True, result) per task in
    order, or (False, (error, traceback)) for the first that fails and ends it."""
    import traceback
    from multiprocessing.reduction import recv_handle

    global _in_worker
    _in_worker = True
    for end in inherited:  # the caller's ends, so that EOF comes when the caller dies, even by SIGKILL
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C is the caller's to report
    _openblas_threads()[1](1)
    while True:
        try:
            shared, tasks = conn.recv()
        except EOFError:
            return
        args = (_map(recv_handle(conn), *shared),) if shared else ()  # its memfd follows the tasks
        for task in tasks:
            try:
                message = True, task(*args)
            except Exception as e:
                message = False, (e, traceback.format_exc())
            try:
                conn.send(message)  # pickled whole before a byte is sent
            except Exception as e:  # a result or an error that cannot be pickled
                error, trace = (e, traceback.format_exc()) if message[0] else message[1]
                message = False, (_distill_error(f"{type(error).__name__}: {error}"), trace)
                conn.send(message)
            if not message[0]:
                break
        tasks = task = args = message = None  # free the inputs, and unmap args, before the wait


def _fork() -> tuple:
    import multiprocessing  # here: it adds about 2 MB to the peak RSS of a process that never forks

    context = multiprocessing.get_context("fork")  # so a worker has the modules that tasks name
    mine, theirs = context.Pipe()  # a socket pair, which can carry a memfd
    process = context.Process(target=_work, args=(theirs, [end for _, end in _pool] + [mine]), daemon=True)
    process.start()
    theirs.close()  # the worker holds the only copy: EOF once it is gone
    _pool.append((process, mine))
    return _pool[-1]


def _drop(worker: tuple) -> None:
    process, conn = worker
    process.kill()
    process.join()
    conn.close()
    _pool.remove(worker)


def shutdown() -> None:
    """Kill and join every idle worker (for tests: daemonic, they end at exit)."""
    while _idle:
        _drop(_idle.pop())


class _Lease:
    """Pool workers, one per list of zero-argument tasks, each sent its list
    in one pickle (which holds an object once however many tasks name it);
    the pool forks only the workers it lacks.  With `shared`, a (shape,
    dtype), `shared` is a zeroed memfd array, mapped once the workers exist
    (so none inherits it) and sent with each list: every task is called with
    it and writes in place.  OpenBLAS is held to one thread in the workers,
    and in the caller while a lease is open, since k processes of threaded
    BLAS on k CPUs busy-wait on each other.  `close` kills each worker that
    owes a result (the stage ended early), so no later lease reads a stale reply."""

    def __init__(self, task_lists: list[list], shared: tuple | None = None):
        global _leased, _blas_threads
        if _leased == 0:
            _blas_threads = _openblas_threads()[0]()
            _openblas_threads()[1](1)  # before any fork, so a new worker starts on one thread
        self._workers, self._owed, fd = [], [], -1  # _owed: per worker, the results not yet read
        try:
            for worker in _idle[:]:  # drop the dead (killed from outside) and those past the allowed CPUs
                if not worker[0].is_alive() or len(_idle) > _allowed_cpus() - 1 - _leased:
                    _idle.remove(worker)
                    _drop(worker)
            for tasks in task_lists:
                self._workers.append(_idle.pop() if _idle else _fork())
                self._owed.append(len(tasks))  # before the send: one cut short leaves a worker unusable
                _leased += 1
            if shared is not None:
                from multiprocessing.reduction import send_handle

                fd = os.memfd_create("chainkd-shared")
                os.ftruncate(fd, math.prod(shared[0]) * np.dtype(shared[1]).itemsize)
                self.shared = _map(os.dup(fd), *shared)
            for (process, conn), tasks in zip(self._workers, task_lists):
                conn.send((shared, tasks))
                if shared is not None:
                    send_handle(conn, fd, process.pid)
        except BaseException:
            self.close()
            raise
        finally:
            if fd >= 0:
                os.close(fd)

    def result(self, j: int):
        """The next result of worker j, in its task order.  Raises that
        task's error, or DistillError if the worker died first: the wait
        watches its sentinel too, so the caller cannot hang on it."""
        from multiprocessing.connection import wait

        process, conn = self._workers[j]
        wait([conn, process.sentinel])
        try:
            ok, value = conn.recv()  # what a worker sent before it ended is still in the socket
        except (EOFError, OSError):
            process.join()
            raise _distill_error(f"pool worker {process.pid} ended with exit code {process.exitcode}"
                                 " before sending its result") from None
        self._owed[j] = self._owed[j] - 1 if ok else 0  # a worker stops at its first error
        if not ok:
            raise value[0] from _RemoteTraceback(value[1])
        return value

    def close(self) -> None:
        global _leased
        workers, owed, self._workers, self._owed = self._workers, self._owed, [], []
        try:
            for worker, n in zip(workers, owed):
                _drop(worker) if n else _idle.append(worker)
        finally:
            _leased -= len(workers)
            if _leased == 0:
                _openblas_threads()[1](_blas_threads)


def _shares(tasks: list, k: int) -> list[list]:
    """tasks cut into k contiguous shares whose sizes differ by at most one,
    the larger ones first."""
    size, extra = divmod(len(tasks), k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return [tasks[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_forked(tasks: list) -> list:
    """Call each zero-argument task and return the results in task order.

    The tasks are cut into balanced contiguous shares, one per spare CPU
    plus the caller's own.  The caller runs the first share while leased
    workers run the others, so tasks must pickle (module-level functions or
    partials of them).  A failure raises what a serial pass would raise
    first.  With no spare CPU (one allowed CPU, inside a worker, or beside
    leases that hold the others), or no OpenBLAS thread setter, the caller
    runs every task itself."""
    n = _fork_width(len(tasks) - 1)
    if n == 0:
        return [task() for task in tasks]
    first, *rest = _shares(tasks, n + 1)
    lease = _Lease(rest)
    try:
        results = [task() for task in first]
        # in task order, so a failure raises what a serial pass would
        for j, share in enumerate(rest):
            results.extend(lease.result(j) for _ in share)
    finally:
        lease.close()
    return results
