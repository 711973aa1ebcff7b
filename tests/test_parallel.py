"""`procs._run_forked`, the one helper that splits work across the worker pool,
and the stages that use it: compare-init's two arms, the evaluator's batches
and the alpha sweep's alphas.

The helper cuts its tasks into balanced contiguous shares, one per spare
CPU plus the caller's, and runs the first share in the caller and the others
in leased pool workers, which are forked once and reused.  These tests fake
the allowed CPUs (the affinity set, and the cgroup quota through
`_CGROUP_ROOT`) to cover the serial path and several workers, and check that
results, errors and report bytes are those of a serial pass, that workers
are reused, that no region reads another's reply, and that no worker is
left leased or, once the pool is shut down, running.  Tasks sent to a
worker are pickled, so they are module-level functions or partials of them.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import closing
from functools import partial
from itertools import groupby, islice

import numpy as np
import pytest

from chainkd import data as D
from chainkd import distill as K
from chainkd import evaluate as E
from chainkd import procs as P
from chainkd import tokenizers as tok
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta
from chainkd.distill import DistillConfig, DivergenceError
from chainkd.tensor import Tensor

CHAR = tok.char_vocab()
CONFIG = M.ModelConfig(1, 1, 4, 8, 16, 100, 64)
RUN = DistillConfig(steps=6, batch=4, seq_len=16, sft_warm_epochs=0)


def _cpus(monkeypatch, n, cgroup_root="/nonexistent"):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(P, "_CGROUP_ROOT", str(cgroup_root))


def _no_pool(monkeypatch):
    def no_lease(*args):
        raise AssertionError("a worker was leased on the serial path")

    monkeypatch.setattr(os, "fork", no_lease)
    monkeypatch.setattr(P, "_Lease", no_lease)
    monkeypatch.setattr(K, "_Lease", no_lease)


def _pool_pids():
    return sorted(process.pid for process, _ in P._pool)


def _ckpt(seed, name, blowup=False):
    params = M.init_random(CONFIG, seed)
    if blowup:
        # LN rows sum to ~0, so the loss stays finite, but GELU's backward
        # computes 0 * inf: a NaN gradient at step 1
        params["L0.ffn.w1"] = Tensor(np.full(params["L0.ffn.w1"].shape, 1e37, dtype=np.float32))
    return Checkpoint(CONFIG, params, Meta(name=name, seed=seed))


def _corpus():
    return D.gen_markov(11, n_docs=60, doc_len=60, order=1, alphabet="abcdefgh")


def _report_bytes(reports, tmp_path):
    out = []
    for r in reports:
        r.write_csv(str(tmp_path / "r.csv"))
        r.write_json(str(tmp_path / "r.json"))
        out.append(((tmp_path / "r.csv").read_bytes(), (tmp_path / "r.json").read_bytes()))
    return out


def _compare(run=RUN, rand_blowup=False):
    return E.compare_init(_ckpt(3, "cbd"), _ckpt(4, "rand", rand_blowup), _corpus(), CHAR, run,
                          eval_every=2)


def _fail(message, delay=0.0):
    time.sleep(delay)
    raise ValueError(message)


def _value(value, delay=0.0):
    time.sleep(delay)
    return value


def _index_and_pid(i):
    return i, os.getpid()


def _blas_threads():
    return P._openblas_threads()[0]()


BLOWUP = DistillConfig(steps=4, batch=2, seq_len=16, lr=1e30, grad_clip=None, sft_warm_epochs=0)


def _divergence(monkeypatch, cpus, run, **blowups):
    _cpus(monkeypatch, cpus)
    with pytest.raises(DivergenceError) as info:
        _compare(run, **blowups)
    assert P._leased == 0
    return info.value


# -- the helper ------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_in_task_order(monkeypatch, blas_restored, cpus):
    # 5 tasks on k processes: k balanced contiguous shares, the larger first;
    # the caller runs the first and one worker runs each other share
    _cpus(monkeypatch, cpus)
    parent = os.getpid()
    results = P._run_forked([partial(_index_and_pid, i) for i in range(5)])
    assert [i for i, _ in results] == [0, 1, 2, 3, 4]
    runs = [(pid, len(list(share))) for pid, share in groupby(pid for _, pid in results)]
    processes = cpus if P._openblas_threads() is not None else 1
    assert [n for _, n in runs] == {1: [5], 2: [3, 2], 3: [2, 2, 1]}[processes]
    assert runs[0][0] == parent
    assert len({pid for pid, _ in runs}) == processes
    assert sorted(pid for pid, _ in runs[1:]) == _pool_pids()
    assert P._leased == 0


def test_a_checkpoint_pickles_with_read_only_payloads():
    # what a task sends to a worker: every Tensor comes back with its bytes,
    # its requires_grad and a payload that cannot be written
    ckpt = _ckpt(3, "cbd")
    ckpt.params["L0.ffn.w1"] = Tensor(ckpt.params["L0.ffn.w1"].data, requires_grad=True)
    back = pickle.loads(pickle.dumps(ckpt))
    assert (back.config, back.meta) == (ckpt.config, ckpt.meta)
    for name, p in ckpt.params.items():
        q = back.params[name]
        assert (q.data.dtype, q.data.shape, q.data.tobytes()) == (p.data.dtype, p.data.shape, p.data.tobytes())
        assert q.requires_grad == p.requires_grad and q.grad is None and not q.data.flags.writeable


def test_one_cpu_runs_serially_without_a_pool(monkeypatch):
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    assert P._run_forked([lambda: os.getpid()] * 3) == [os.getpid()] * 3


def test_no_blas_setter_runs_serially_without_a_pool(monkeypatch):
    _cpus(monkeypatch, 3)
    _no_pool(monkeypatch)
    monkeypatch.setattr(P, "_openblas_threads", lambda: None)
    assert P._run_forked([lambda: os.getpid()] * 3) == [os.getpid()] * 3


@pytest.mark.parametrize("cpus", [1, 3])
def test_raises_the_first_error_in_task_order(monkeypatch, blas_restored, cpus):
    _cpus(monkeypatch, cpus)
    # task 2 fails first in time; a serial pass raises task 1's error
    with pytest.raises(ValueError, match="task 1"):
        P._run_forked([partial(_value, 0), partial(_fail, "task 1", 0.3), partial(_fail, "task 2")])
    assert P._leased == 0
    # the caller's own failure comes first of all
    with pytest.raises(ValueError, match="task 0"):
        P._run_forked([partial(_fail, "task 0", 0.3), partial(_fail, "task 1"), partial(_fail, "task 2")])
    assert P._leased == 0


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not this one")


def _unpicklable_error():
    raise _Unpicklable("held a lock")


def _unpicklable_result():
    return _Unpicklable("a result")


@pytest.mark.parametrize("task,error", [
    (_unpicklable_error, "_Unpicklable: held a lock"),  # sent back as a DistillError naming it
    (_unpicklable_result, "TypeError: not this one"),
])
def test_what_a_worker_cannot_pickle_raises_distill_error(monkeypatch, blas_restored, task, error):
    _cpus(monkeypatch, 2)
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    with pytest.raises(K.DistillError, match=error):
        P._run_forked([partial(_value, 0), partial(_value, 0), task, partial(_value, 1)])
    pids = _pool_pids()  # the worker stopped at the error, stays in the pool and serves the next call
    assert P._run_forked([partial(_value, 0), partial(_index_and_pid, 1)])[1][1] in pids


def test_a_task_that_cannot_be_pickled_raises_in_the_caller(monkeypatch, blas_restored):
    _cpus(monkeypatch, 2)
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    with pytest.raises((pickle.PicklingError, AttributeError)):
        P._run_forked([partial(_value, 0), lambda: 1])
    assert P._leased == 0
    assert P._run_forked([partial(_value, 0), partial(_value, 1)]) == [0, 1]


def test_a_dead_worker_raises_and_the_rest_are_joined(monkeypatch, blas_restored):
    _cpus(monkeypatch, 3)
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    # task 1's worker dies; task 2's worker is still sleeping when it does,
    # so it still owes its result and is killed and dropped as well
    with pytest.raises(K.DistillError, match="exit code 5"):
        P._run_forked([partial(_value, 0), partial(os._exit, 5), partial(time.sleep, 30)])
    assert P._pool == [] and multiprocessing.active_children() == []
    results = P._run_forked([partial(_index_and_pid, i) for i in range(3)])
    assert [i for i, _ in results] == [0, 1, 2]
    assert sorted(pid for _, pid in results[1:]) == _pool_pids()


def test_blas_held_to_one_thread_and_restored(monkeypatch, blas_restored):
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    get_threads, set_threads = blas_restored
    _cpus(monkeypatch, 3)
    before = get_threads()
    set_threads(2)
    try:
        assert P._run_forked([_blas_threads] * 3) == [1, 1, 1]
        assert get_threads() == 2
        with pytest.raises(ValueError):
            P._run_forked([_blas_threads, partial(_fail, "task 1")])
        assert get_threads() == 2
        # the idle workers keep one thread
        assert P._run_forked([_blas_threads] * 3) == [1, 1, 1]
    finally:
        set_threads(before)


def test_a_caller_error_leaves_no_stale_reply(monkeypatch, blas_restored):
    # the worker's reply is sent and unread when the caller's own task fails;
    # the next region must not read it in place of its own first result
    _cpus(monkeypatch, 1)
    expected = _eval()
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="caller"):
        P._run_forked([partial(_fail, "caller", 0.3), partial(_value, (0.0, 1.0))])
    assert P._leased == 0
    assert _eval() == expected


def _interrupt():
    raise KeyboardInterrupt


def test_an_interrupted_region_leaves_no_stale_reply(monkeypatch, blas_restored):
    # the region ends by KeyboardInterrupt while its worker still runs
    _cpus(monkeypatch, 1)
    expected = _eval()
    _cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        P._run_forked([_interrupt, partial(_value, (0.0, 1.0), 0.2)])
    assert P._leased == 0 and P._pool == []
    assert _eval() == expected


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_workers_are_reused(monkeypatch, tmp_path, blas_restored, cpus):
    # two evals and an alpha sweep: the first forks the workers, the others
    # reuse them; every result equals the serial pass
    with monkeypatch.context() as serial:
        _cpus(serial, 1)
        _no_pool(serial)
        expected = _evaluations(tmp_path)
    _cpus(monkeypatch, cpus)
    assert _eval() == expected[0]
    pids = _pool_pids()
    assert len(pids) == (cpus - 1 if blas_restored is not None else 0)

    def no_fork():
        raise AssertionError("the pool forked a worker it already had")

    monkeypatch.setattr(P, "_fork", no_fork)
    assert _eval() == expected[0]
    assert _evaluations(tmp_path) == expected
    served = P._run_forked([partial(_index_and_pid, i) for i in range(cpus)])
    assert sorted(pid for _, pid in served[1:]) == pids == _pool_pids()


def test_the_pool_never_holds_more_than_the_spare_cpus(monkeypatch, blas_restored):
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    _cpus(monkeypatch, 3)
    P._run_forked([partial(_value, i) for i in range(3)])
    assert len(P._pool) == 2
    _cpus(monkeypatch, 2)
    assert P._run_forked([partial(_value, i) for i in range(3)]) == [0, 1, 2]
    assert len(P._pool) == 1


def test_shutdown_joins_every_worker(monkeypatch, blas_restored):
    _cpus(monkeypatch, 3)
    P._run_forked([partial(_value, i) for i in range(3)])
    P.shutdown()
    assert P._pool == [] and multiprocessing.active_children() == []


def _running(pid):
    # a zombie has ended; only its parent, which is gone, could reap it
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


KILLED_CALLER = textwrap.dedent("""
    import os, sys, time
    from functools import partial
    from chainkd import procs
    os.sched_getaffinity = lambda pid: set(range(3))
    procs._CGROUP_ROOT = "/nonexistent"
    procs._run_forked([partial(time.sleep, 0)] * 3)
    print(*(process.pid for process, _ in procs._pool), flush=True)
    procs._run_forked([partial(time.sleep, 1)] * 3)  # SIGKILLed in here, the workers mid-task
""")


def test_a_killed_caller_leaves_no_worker(blas_restored):
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    caller = subprocess.Popen([sys.executable, "-c", KILLED_CALLER], stdout=subprocess.PIPE, env=env, text=True)
    try:
        pids = [int(pid) for pid in caller.stdout.readline().split()]
        assert len(pids) == 2
        caller.kill()
        caller.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()


# -- the cgroup CPU quota --------------------------------------------------------------


@pytest.mark.parametrize("files,expected", [
    ({"cpu.max": "200000 100000\n"}, 2),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "garbage\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "250000\n"}, None),
    # a cgroup v2 file is read before the v1 pair
    ({"cpu.max": "100000 100000\n", "cpu/cpu.cfs_quota_us": "400000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
    ({}, None),
])
def test_cgroup_quota(monkeypatch, tmp_path, files, expected):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    _cpus(monkeypatch, 4, tmp_path)
    assert P._cgroup_cpus() == expected
    assert P._allowed_cpus() == (4 if expected is None else min(4, expected))


def test_quota_of_one_cpu_runs_serially(monkeypatch, tmp_path):
    (tmp_path / "cpu.max").write_text("100000 100000\n")
    _cpus(monkeypatch, 2, tmp_path)
    _no_pool(monkeypatch)
    reports = _compare()
    _cpus(monkeypatch, 1)
    assert _report_bytes(reports, tmp_path) == _report_bytes(_compare(), tmp_path)


# -- compare-init's two arms -----------------------------------------------------------


def test_reports_do_not_depend_on_cpu_count(monkeypatch, tmp_path, blas_restored):
    expected = None
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        got = _report_bytes(_compare(), tmp_path)
        expected = expected or got
        assert got == expected, cpus
        assert P._leased == 0


def test_compare_init_one_cpu_creates_no_pool(monkeypatch):
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    _compare()


def test_rand_arm_divergence_raises_the_serial_error(monkeypatch, blas_restored):
    serial = _divergence(monkeypatch, 1, RUN, rand_blowup=True)
    parallel = _divergence(monkeypatch, 2, RUN, rand_blowup=True)
    assert serial.step == 1
    assert (parallel.step, str(parallel)) == (serial.step, str(serial))


def test_both_arms_diverging_raise_the_cbd_error(monkeypatch, blas_restored):
    # lr=1e30 unclipped overflows the cbd arm's forward at step 2; the rand
    # arm's NaN gradient fails in adam_step at step 1, earlier in time
    for cpus in (1, 2):
        error = _divergence(monkeypatch, cpus, BLOWUP, rand_blowup=True)
        assert error.step == 2 and "adam_step" not in str(error), cpus


_TRAIN = E._train_with_val_curve


def _train_on_one_thread(*args):
    assert _blas_threads() == 1
    return _TRAIN(*args)


def test_both_arms_train_with_one_blas_thread(monkeypatch, blas_restored):
    _cpus(monkeypatch, 2)
    if blas_restored is None:
        _no_pool(monkeypatch)
        _compare()
        return
    get_threads, set_threads = blas_restored
    monkeypatch.setattr(E, "_train_with_val_curve", _train_on_one_thread)
    before = get_threads()
    set_threads(2)
    try:
        _compare()
        assert get_threads() == 2
    finally:
        set_threads(before)


# -- the evaluator and the alpha sweep ---------------------------------------------------

SMALL, LARGE, TARGET = (M.ModelConfig(1, 1, 4, 8, 16, 100, 64), M.ModelConfig(2, 2, 4, 16, 32, 100, 64),
                        M.ModelConfig(2, 1, 4, 12, 24, 100, 64))
ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9]


def _evaluations(tmp_path):
    """eval_ce (5 batches of at most 5 windows), perplexity and the alpha
    sweep's report bytes, on the val split of _corpus."""
    corpus = _corpus()
    target = _ckpt(5, "target")
    sweep = E.alpha_sweep(Checkpoint(SMALL, M.init_random(SMALL, 6), Meta(name="s", seed=6)),
                          Checkpoint(LARGE, M.init_random(LARGE, 7), Meta(name="l", seed=7)),
                          TARGET, ALPHAS, corpus, CHAR, batch=4, seq_len=16)
    return (K.eval_ce(CONFIG, target.params, corpus.val_docs, CHAR, batch=5, seq_len=16),
            E.perplexity(target, corpus.val_docs, CHAR, batch=5, seq_len=16),
            _report_bytes([sweep], tmp_path))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_evaluations_do_not_depend_on_cpu_count(monkeypatch, tmp_path, blas_restored, cpus):
    corpus = _corpus()
    windows = D.token_windows(corpus.val_docs, CHAR, 16)
    assert len(windows[0]) == 24  # so eval_ce splits 5 batches, the last one ragged
    with monkeypatch.context() as serial:
        _cpus(serial, 1)
        _no_pool(serial)
        expected = _evaluations(tmp_path)
    # the serial kernel, one batch after another in this process
    assert expected[0] == K.mean_nll(CONFIG, _ckpt(5, "target").params, D.in_order(windows, 5))
    _cpus(monkeypatch, cpus)
    assert _evaluations(tmp_path) == expected


def _eval():
    return K.eval_ce(CONFIG, _ckpt(5, "target").params, _corpus().val_docs, CHAR, batch=5, seq_len=16)


def test_eval_on_one_cpu_starts_no_process(monkeypatch, blas_restored):
    expected = _eval()
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    assert _eval() == expected


def _eval_without_fork():
    # os.fork is replaced in this process only: in a worker, or in the caller
    # until the task returns
    fork = os.fork

    def no_fork():
        raise AssertionError("an eval forked inside a forked task")

    os.fork = no_fork
    try:
        return _eval(), os.getpid()
    finally:
        os.fork = fork


@pytest.mark.parametrize("cpus", [2, 3])
def test_eval_inside_forked_tasks_starts_no_process(monkeypatch, blas_restored, cpus):
    # one task per allowed CPU: a worker never forks, and the caller's
    # workers hold every spare CPU
    expected = _eval()
    _cpus(monkeypatch, cpus)
    results = P._run_forked([_eval_without_fork] * cpus)
    assert [value for value, _ in results] == [expected] * cpus
    forked = P._openblas_threads() is not None
    assert len({pid for _, pid in results}) == (cpus if forked else 1)


def test_eval_beside_live_producers_starts_no_process(monkeypatch, blas_restored):
    expected = _eval()
    _cpus(monkeypatch, 2)
    corpus = _corpus()
    columns = D.token_windows(corpus.train_docs, CHAR, 16)
    draws = [rows for (rows,) in islice(D.shuffled((np.arange(len(columns[0])),), 4, 0), 6)]
    with closing(K._TeacherStream(_ckpt(3, "teacher"), columns, draws, 1.0)) as stream:
        batches = iter(stream)
        next(batches)
        assert P._leased == (blas_restored is not None)
        with monkeypatch.context() as serial:
            _no_pool(serial)
            assert _eval() == expected
        list(batches)


_NLL_SUMS = K._nll_sums


def _die_in_worker(*args):
    if P._in_worker:
        os._exit(9)
    return _NLL_SUMS(*args)


def test_a_worker_dying_mid_eval_raises(monkeypatch, blas_restored):
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    expected = _eval()

    def hung(signum, frame):
        raise AssertionError("the caller waited on a dead worker")

    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with monkeypatch.context() as dying:
                dying.setattr(K, "_nll_sums", _die_in_worker)
                with pytest.raises(K.DistillError, match="exit code 9"):
                    _eval()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        # the dead workers are dropped, and the next eval forks replacements
        assert P._pool == [] and P._leased == 0
        assert _eval() == expected
        assert len(P._pool) == cpus - 1
        P.shutdown()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_an_empty_mask_split_raises(monkeypatch, blas_restored, cpus):
    token_windows = D.token_windows

    def unmasked(*args):
        tokens, targets, mask = token_windows(*args)
        return tokens, targets, np.zeros_like(mask)

    monkeypatch.setattr(D, "token_windows", unmasked)
    _cpus(monkeypatch, cpus)
    with pytest.raises(K.DistillError, match="evaluation split has no unmasked positions"):
        _eval()
