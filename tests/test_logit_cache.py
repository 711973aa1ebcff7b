"""The teacher stream gives the same bytes on any number of CPUs.

`_TeacherStream` scores, for each KD step, the windows that step draws and
no earlier step drew (its group) in one teacher forward.  Producers, pool
workers leased one per further allowed CPU, score the groups into a shared
memfd mapping while the caller trains; with one allowed CPU the caller
scores each group just before the step that needs it.  These tests fake the
affinity set to cover the serial path, one and two producers, and more CPUs
than there are groups, and check that no worker is left leased, no process
is left running once the pool is shut down, and the OpenBLAS thread count
is restored on every path.  A function patched in for a producer to run is
pickled by name, so it is defined at module level.
"""

import mmap
import os
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import closing
from itertools import islice

import numpy as np
import pytest

from chainkd import data as D
from chainkd import distill as K
from chainkd import procs as P
from chainkd import tokenizers as tok
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta, save
from chainkd.distill import DistillConfig, DistillError, DivergenceError
from chainkd.tensor import NonFiniteError, Tensor, no_grad

TEACHER = M.ModelConfig(2, 2, 4, 8, 32, 100, 32)
N_WINDOWS = 45  # 11 draws of 4 per epoch, one window left out of each
CFG = DistillConfig(steps=20, batch=4, seq_len=12, temperature=2.0)


def _tokens(seed=0, n=N_WINDOWS):
    # the tokens column of a window stack, a view as token_windows returns it
    return np.random.default_rng(seed).integers(1, 100, size=(n, CFG.seq_len + 1))[:, :-1]


def _teacher(seed=0):
    return Checkpoint(TEACHER, M.init_random(TEACHER, seed), Meta(name="teacher", seed=seed))


def _draws(n=N_WINDOWS, steps=CFG.steps, seed=CFG.seed):
    return [rows for (rows,) in islice(D.shuffled((np.arange(n),), CFG.batch, seed), steps)]


def _groups(draws):
    # for each draw, in order, its rows that no earlier draw holds
    seen, groups = set(), []
    for rows in draws:
        groups.append([r for r in rows.tolist() if r not in seen])
        seen.update(groups[-1])
    return groups


def _reference(teacher, tokens, draws):
    # one forward per group, scaled and log-softmaxed afterwards; rows no
    # draw holds stay zero
    out = np.zeros((*tokens.shape, TEACHER.vocab_size), dtype=np.float32)
    with no_grad():
        for group in filter(None, _groups(draws)):
            logits = M.forward(TEACHER, teacher.params, tokens[group]).data * np.float32(1.0 / CFG.temperature)
            shifted = logits - logits.max(axis=-1, keepdims=True)
            out[group] = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return out


def _cpus(monkeypatch, n):
    # n allowed CPUs: the affinity set, and no cgroup quota to cap it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(P, "_CGROUP_ROOT", "/nonexistent")


def _no_fork(monkeypatch):
    def no_lease(*args):
        raise AssertionError("a worker was leased on the serial path")

    monkeypatch.setattr(os, "fork", no_lease)
    monkeypatch.setattr(K, "_Lease", no_lease)


def _stream(teacher, tokens, draws):
    """Every batch of a stream over the tokens column, and its mapping."""
    with closing(K._TeacherStream(teacher, (tokens,), draws, CFG.temperature)) as stream:
        batches = list(stream)
    assert P._leased == 0
    return batches, stream.logp


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_cache_bytes_do_not_depend_on_cpu_count(monkeypatch, blas_restored, cpus):
    teacher, tokens, draws = _teacher(), _tokens(), _draws()
    expected = _reference(teacher, tokens, draws)
    before = tokens.tobytes()
    _cpus(monkeypatch, cpus)
    batches, logp = _stream(teacher, tokens, draws)
    assert logp.dtype == np.float32 and logp.shape == (N_WINDOWS, CFG.seq_len, TEACHER.vocab_size)
    assert logp.tobytes() == expected.tobytes()
    assert len(batches) == len(draws)
    for (batch_tokens, batch_logp), rows in zip(batches, draws):
        assert batch_tokens.tobytes() == tokens[rows].tobytes()
        assert batch_logp.tobytes() == expected[rows].tobytes()
    assert tokens.tobytes() == before


def _shared_mappings(pids, expected):
    # the count of each worker's memfd mappings, once it reads `expected`
    # or after 5 s: a worker maps a list and unmaps it just after its replies
    deadline = time.monotonic() + 5.0
    while True:
        counts = []
        for pid in pids:
            with open(f"/proc/{pid}/maps") as maps:
                counts.append(sum("chainkd-shared" in line for line in maps))
        if counts == expected or time.monotonic() > deadline:
            return counts
        time.sleep(0.01)


def test_producers_unmap_the_stream_once_it_is_done(monkeypatch, blas_restored):
    # a producer keeps no edge's mapping (nor its teacher) once it is back in the pool
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    _cpus(monkeypatch, 3)
    teacher, tokens, draws = _teacher(), _tokens(), _draws()
    _stream(teacher, tokens, draws)
    pids = [process.pid for process, _ in P._pool]
    assert len(pids) == 2 and _shared_mappings(pids, [0, 0]) == [0, 0]
    _stream(teacher, tokens, draws)  # a second edge on the same workers
    assert sorted(process.pid for process, _ in P._pool) == sorted(pids)
    assert _shared_mappings(pids, [0, 0]) == [0, 0]


def test_fewer_steps_than_producers(monkeypatch, blas_restored):
    teacher, tokens, draws = _teacher(1), _tokens(1), _draws(steps=2)
    _cpus(monkeypatch, 4)
    _, logp = _stream(teacher, tokens, draws)
    assert logp.tobytes() == _reference(teacher, tokens, draws).tobytes()


def test_no_affinity_call_scores_serially_without_a_pool(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    _no_fork(monkeypatch)
    teacher, tokens, draws = _teacher(2), _tokens(2), _draws()
    _, logp = _stream(teacher, tokens, draws)
    assert logp.tobytes() == _reference(teacher, tokens, draws).tobytes()


def _overflowing_teacher(token=7):
    # the token's embedding row sums past f32 max, so only windows holding it
    # fail (an untied head keeps the row out of every logit)
    config = M.ModelConfig(2, 2, 4, 8, 32, 100, 32, tied_lm_head=False)
    params = M.init_random(config, 3)
    table = params["embed.tok"].data.copy()
    table[token] = 3e38
    params["embed.tok"] = Tensor(table)
    return Checkpoint(config, params, Meta(name="t", seed=3))


@pytest.mark.parametrize("cpus", [1, 3])
def test_overflowing_teacher_raises_the_same_error(monkeypatch, blas_restored, cpus):
    # the window holding token 7 is first drawn at step 6, which the second
    # of two producers scores when there are three CPUs
    tokens, draws = _tokens(3), _draws()
    tokens[tokens == 7] = 8
    tokens[draws[5][2], 4] = 7
    _cpus(monkeypatch, cpus)
    seen = []
    with pytest.raises(NonFiniteError) as info:
        with closing(K._TeacherStream(_overflowing_teacher(), (tokens,), draws, CFG.temperature)) as stream:
            seen.extend(stream)
    assert len(seen) == 5
    assert info.value.op == "layer_norm"
    assert str(info.value) == "operation 'layer_norm' produced non-finite values"
    # a producer's error arrives with its remote traceback as the cause
    assert (info.value.__cause__ is not None) == (cpus > 1)


_SCORE = K._score_group


def _score_in_a_worker_on_one_thread(*args):
    assert P._in_worker and P._openblas_threads()[0]() == 1
    _SCORE(*args)


def test_every_process_scores_with_one_blas_thread(monkeypatch, blas_restored):
    # k processes of multi-threaded BLAS on k CPUs busy-wait on each other;
    # the producers hold OpenBLAS to one thread and give the count back once
    # the last group is in
    teacher, tokens, draws = _teacher(4), _tokens(4), _draws()
    _cpus(monkeypatch, 3)
    if blas_restored is None:
        # no OpenBLAS whose thread count can be set: the caller scores alone
        _no_fork(monkeypatch)
        _stream(teacher, tokens, draws)
        return
    get_threads, set_threads = blas_restored
    monkeypatch.setattr(K, "_score_group", _score_in_a_worker_on_one_thread)
    before = get_threads()
    set_threads(2)
    try:
        with closing(K._TeacherStream(teacher, (tokens,), draws, CFG.temperature)) as stream:
            batches = iter(stream)
            next(batches)
            assert get_threads() == 1  # the student trains beside the producers on one thread
            rest = list(batches)
            assert get_threads() == 2  # every group is in: the producers are given back
        assert len(rest) == len(draws) - 1 and P._leased == 0
    finally:
        set_threads(before)
    assert stream.logp.tobytes() == _reference(teacher, tokens, draws).tobytes()


# -- distill_edge on the stream ----------------------------------------------------------

CHAR = tok.char_vocab()
STUDENT = M.ModelConfig(1, 2, 4, 8, 16, 100, 32)
EDGE_RUNS = {
    "reverse_kl_sft": DistillConfig(steps=12, batch=4, seq_len=16, seed=2, sft_warm_epochs=1),
    "forward_kl": DistillConfig(steps=12, batch=4, seq_len=16, seed=3, loss_kind="forward_kl", temperature=2.0,
                                sft_warm_epochs=0),
}


def _corpus():
    return D.gen_markov(11, n_docs=16, doc_len=40, order=1, alphabet="abcdefgh")


def _edge_bytes(tmp_path, cfg, teacher=None):
    student = K.distill_edge(teacher or _teacher(5), STUDENT, _corpus(), CHAR, cfg)
    save(student, str(tmp_path / "student.cbdc"))
    return (tmp_path / "student.cbdc").read_bytes()


@pytest.mark.parametrize("run", sorted(EDGE_RUNS))
def test_edge_bytes_do_not_depend_on_cpu_count(monkeypatch, tmp_path, blas_restored, run):
    expected = None
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        got = _edge_bytes(tmp_path, EDGE_RUNS[run])
        expected = expected or got
        assert got == expected, cpus
        assert P._leased == 0


_SCORED = None  # a count per row, then one for empty groups: set before the producers fork


def _counted_score(teacher, tokens, inv_temperature, rows, logp):
    _SCORED[rows if len(rows) else -1] += 1  # groups are disjoint, so two producers never add to one row
    _SCORE(teacher, tokens, inv_temperature, rows, logp)


@pytest.mark.parametrize("cpus", [1, 3])
def test_only_drawn_windows_are_scored(monkeypatch, tmp_path, blas_restored, cpus):
    # the KD steps draw 48 of the corpus's windows (three epochs of 4 draws of
    # 4, each epoch leaving some out); each is scored once, the rest never.
    # The count is kept in a shared mapping made before the pool (empty at
    # the start of the test) forks the producers, so they add to it.
    cfg = DistillConfig(steps=12, batch=4, seq_len=16, seed=4, sft_warm_epochs=1)
    n = len(D.token_windows(_corpus().train_docs, CHAR, cfg.seq_len)[0])
    scored = np.frombuffer(mmap.mmap(-1, n * 8 + 8), dtype=np.int64)
    monkeypatch.setattr(sys.modules[__name__], "_SCORED", scored)
    forward = M.forward
    teacher_rows = []

    def counted_forward(config, params, tokens, *args):
        if config == TEACHER:
            teacher_rows.append(len(tokens))
        return forward(config, params, tokens, *args)

    monkeypatch.setattr(K, "_score_group", _counted_score)
    monkeypatch.setattr(M, "forward", counted_forward)
    _cpus(monkeypatch, cpus)
    _edge_bytes(tmp_path, cfg)
    drawn = np.unique(np.concatenate(_draws(n, cfg.steps, cfg.seed)))
    assert len(drawn) < n
    assert scored[drawn].tolist() == [1] * len(drawn)
    assert scored.sum() == len(drawn)  # and no scorer was built for an empty group
    # the caller runs the teacher only on the serial path, and there on
    # exactly the drawn windows
    assert sum(teacher_rows) == (len(drawn) if cpus == 1 else 0)


@pytest.mark.parametrize("cpus", [1, 3])
def test_edge_with_an_overflowing_teacher_raises_non_finite(monkeypatch, tmp_path, blas_restored, cpus):
    # a random-init student needs no teacher of its shape; the overflowing
    # token is "a", which the first KD step draws
    _cpus(monkeypatch, cpus)
    cfg = DistillConfig(steps=12, batch=4, seq_len=16, seed=2, sft_warm_epochs=1, init_from_teacher=False)
    with pytest.raises(NonFiniteError) as info:
        _edge_bytes(tmp_path, cfg, _overflowing_teacher(tok.encode(CHAR, "a")[0]))
    assert info.value.op == "layer_norm"


def test_student_divergence_ends_the_producers(monkeypatch, tmp_path, blas_restored):
    # lr=1e30 unclipped fails at step 2, while the producers still score
    _cpus(monkeypatch, 3)
    cfg = DistillConfig(steps=40, batch=4, seq_len=16, lr=1e30, grad_clip=None, sft_warm_epochs=0)
    with pytest.raises(DivergenceError):
        _edge_bytes(tmp_path, cfg)


def _die_in_a_worker(*args):
    if P._in_worker:
        os._exit(7)
    _SCORE(*args)


def test_a_dead_producer_raises_instead_of_hanging(monkeypatch, tmp_path, blas_restored):
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")

    def hung(signum, frame):
        raise AssertionError("the caller waited on a dead producer")

    _cpus(monkeypatch, 2)
    expected = _edge_bytes(tmp_path, EDGE_RUNS["reverse_kl_sft"])
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with monkeypatch.context() as dying:
            dying.setattr(K, "_score_group", _die_in_a_worker)
            with pytest.raises(DistillError, match="exit code 7"):
                _edge_bytes(tmp_path, EDGE_RUNS["reverse_kl_sft"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # the dead producer is dropped; the next edge gets a replacement
    assert P._pool == [] and P._leased == 0
    assert _edge_bytes(tmp_path, EDGE_RUNS["reverse_kl_sft"]) == expected


def test_producers_end_after_the_last_group(monkeypatch, tmp_path, blas_restored):
    # 40 KD steps draw every window they ever draw well before the last step:
    # the producers are given back to the pool once the last non-empty group
    # is in, and the student trains the remaining steps with no worker leased
    # and the BLAS threads given back
    cfg = DistillConfig(steps=40, batch=4, seq_len=16, seed=6, sft_warm_epochs=0)
    n = len(D.token_windows(_corpus().train_docs, CHAR, cfg.seq_len)[0])
    last = max(t for t, group in enumerate(_groups(_draws(n, cfg.steps, cfg.seed))) if group) + 1
    assert last < cfg.steps - 1  # fit numbers steps from 1
    get_threads, set_threads = blas_restored or (lambda: None, lambda n: None)
    step_fn, seen = K._step, {}

    def recording(*args):
        seen[args[-1]] = (P._leased, get_threads())
        return step_fn(*args)

    monkeypatch.setattr(K, "_step", recording)
    before = get_threads()
    set_threads(2)
    try:
        edges = {}
        for cpus in (1, 3, 2):
            _cpus(monkeypatch, cpus)
            edges[cpus] = _edge_bytes(tmp_path, cfg)
        assert get_threads() in (None, 2)
    finally:
        if before is not None:
            set_threads(before)
    assert edges[2] == edges[1] == edges[3]
    if blas_restored is not None:
        assert seen[1] == (1, 1)  # two CPUs: one producer, every process on one BLAS thread
        assert {seen[step] for step in range(last, cfg.steps + 1)} == {(0, 2)}


INTERRUPTED_EDGE = textwrap.dedent("""
    import os, time
    from chainkd import data as D, distill as K, procs, tokenizers as tok, transformer as M
    from chainkd.checkpoint import Checkpoint, Meta

    os.sched_getaffinity = lambda pid: {0, 1}
    procs._CGROUP_ROOT = "/nonexistent"
    score = K._score_group

    def slow_score(*args):
        print("scoring", flush=True)
        time.sleep(0.5)
        score(*args)

    K._score_group = slow_score
    teacher_cfg = M.ModelConfig(2, 2, 4, 8, 32, 100, 32)
    teacher = Checkpoint(teacher_cfg, M.init_random(teacher_cfg, 0), Meta(name="teacher", seed=0))
    corpus = D.gen_markov(11, n_docs=16, doc_len=40, order=1, alphabet="abcdefgh")
    K.distill_edge(teacher, M.ModelConfig(1, 2, 4, 8, 16, 100, 32), corpus, tok.char_vocab(),
                   K.DistillConfig(steps=12, batch=4, seq_len=16, sft_warm_epochs=0))
""")


def test_sigint_while_producers_score_gives_one_traceback(blas_restored):
    # a Ctrl-C reaches the whole process group: the producer, which ignores
    # it, is still scoring; the caller raises KeyboardInterrupt, kills the
    # producer that still owes groups, and is the only one to print
    if blas_restored is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    caller = subprocess.Popen([sys.executable, "-c", INTERRUPTED_EDGE], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, text=True, start_new_session=True)
    try:
        assert caller.stdout.readline() == "scoring\n"
        os.killpg(caller.pid, signal.SIGINT)
        _, stderr = caller.communicate(timeout=60)
    finally:
        if caller.poll() is None:
            os.killpg(caller.pid, signal.SIGKILL)
            caller.wait()
    assert caller.returncode != 0
    assert stderr.count("Traceback (most recent call last)") == 1, stderr
    assert stderr.rstrip().endswith("KeyboardInterrupt"), stderr
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(caller.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    else:
        raise AssertionError("a process of the interrupted edge outlived it")
