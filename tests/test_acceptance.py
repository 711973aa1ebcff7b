"""Acceptance suite: one seeded, self-contained check per criterion.

Run with  pytest tests/test_acceptance.py -v -rA  to see the per-criterion
PASS lines.  The desk-scale experiment (criteria 7-9, 12) trains a real
chain: teacher 6L/96 -> anchor 4L/64 -> anchor 2L/32 at 2000 steps per
edge on a seeded Markov corpus, then interpolates a 3L/48 target.
"""

import hashlib
import os
import struct
import time

import numpy as np
import pytest

from chainkd import data as D
from chainkd import distill as K
from chainkd import evaluate as E
from chainkd import surgery as S
from chainkd import tensor as T
from chainkd import tokenizers as tok
from chainkd import transformer as M
from chainkd.checkpoint import (
    BadMagicError,
    Checkpoint,
    Meta,
    ShapeMismatchError,
    TruncatedDataError,
    UnsupportedVersionError,
    checkpoints_equal,
    load,
    save,
)
from chainkd.distill import BridgeSpec, DistillConfig
from chainkd.tensor import F64, Tensor, grad_check
from chainkd.transformer import ModelConfig

CHAR = tok.char_vocab()
BYTE = tok.byte_vocab()


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _cfg(layers, heads, d_model, d_ff, vocab=100, head_dim=16, max_seq=64):
    return ModelConfig(layers, heads, head_dim, d_model, d_ff, vocab, max_seq)


# chain used by criteria 7-9 and 12
TEACHER_CFG = _cfg(6, 6, 96, 384)
A1_CFG = _cfg(4, 4, 64, 256)
A2_CFG = _cfg(2, 2, 32, 128)
TARGET_CFG = _cfg(3, 3, 48, 192)
SWEEP_CFG = _cfg(2, 2, 32, 160)  # ~14% above the small anchor
EDGE_STEPS = 2000
ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _corpus() -> D.Corpus:
    return D.gen_markov(101, n_docs=300, doc_len=120, order=2, alphabet="abcdefgh")


def _edge_cfg(steps, seed):
    return DistillConfig(steps=steps, batch=8, seq_len=48, lr=1e-3, seed=seed, sft_warm_epochs=0)


def run_chain_pipeline() -> dict:
    """The seeded experiment shared by criteria 7, 8, 9, and 12."""
    t0 = time.time()
    corpus = _corpus()
    teacher = K.train_lm(TEACHER_CFG, corpus, CHAR, _edge_cfg(1500, 1), name="teacher")
    a1 = K.distill_edge(teacher, A1_CFG, corpus, CHAR, _edge_cfg(EDGE_STEPS, 2), name="anchor-1")
    a2 = K.distill_edge(a1, A2_CFG, corpus, CHAR, _edge_cfg(EDGE_STEPS, 3), name="anchor-2")

    alpha = S.default_alpha(
        M.count_params(A2_CFG), M.count_params(A1_CFG), M.count_params(TARGET_CFG)
    )
    cbd = S.interpolate(a2, a1, TARGET_CFG, alpha)
    rand = Checkpoint(TARGET_CFG, M.init_random(TARGET_CFG, 42), Meta(name="rand", seed=42))
    compare_cfg = DistillConfig(steps=EDGE_STEPS, batch=8, seq_len=48, lr=3e-4, seed=7,
                                sft_warm_epochs=0)
    cbd_report, rand_report = E.compare_init(cbd, rand, corpus, CHAR, compare_cfg, eval_every=50)
    experiment_seconds = time.time() - t0

    direct = K.run_direct_distill(
        teacher, A2_CFG, corpus, CHAR, _edge_cfg(2 * EDGE_STEPS, 3), name="direct"
    )
    sweep = E.alpha_sweep(a2, a1, SWEEP_CFG, ALPHAS, corpus, CHAR, batch=16, seq_len=48)
    return {
        "corpus": corpus,
        "teacher": teacher,
        "a1": a1,
        "a2": a2,
        "alpha": alpha,
        "cbd": cbd,
        "rand": rand,
        "cbd_report": cbd_report,
        "rand_report": rand_report,
        "direct": direct,
        "sweep": sweep,
        "experiment_seconds": experiment_seconds,
    }


def run_bridge_pipeline() -> dict:
    corpus = _corpus()
    src_cfg = _cfg(2, 2, 32, 128, vocab=260)
    source = K.train_lm(src_cfg, corpus, BYTE, _edge_cfg(600, 11), name="byte-source")
    spec = BridgeSpec(
        source_tokenizer="byte",
        bridge_tokenizer="char",
        bridge_config=_cfg(2, 2, 32, 128, vocab=100),
        n_samples=48,
        gen_temperature=1.0,
        gen_max_len=24,
        seed=13,
    )
    bridge = K.run_bridge(spec, source, corpus, _edge_cfg(1000, 13))
    return {"source": source, "bridge": bridge}


def _ckpt_sha(ckpt: Checkpoint, tmpdir, tag: str) -> str:
    path = os.path.join(str(tmpdir), f"{tag}.cbdc")
    save(ckpt, path)
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _report_sha(report: E.EvalReport, tmpdir, tag: str) -> str:
    csv_path = os.path.join(str(tmpdir), f"{tag}.csv")
    json_path = os.path.join(str(tmpdir), f"{tag}.json")
    report.write_csv(csv_path)
    report.write_json(json_path)
    h = hashlib.sha256(open(csv_path, "rb").read())
    h.update(open(json_path, "rb").read())
    return h.hexdigest()


def _pipeline_hashes(arts: dict, bridge_arts: dict, tmpdir) -> dict[str, str]:
    return {
        "a1": _ckpt_sha(arts["a1"], tmpdir, "a1"),
        "a2": _ckpt_sha(arts["a2"], tmpdir, "a2"),
        "cbd": _ckpt_sha(arts["cbd"], tmpdir, "cbd"),
        "direct": _ckpt_sha(arts["direct"], tmpdir, "direct"),
        "cbd_report": _report_sha(arts["cbd_report"], tmpdir, "cbd_report"),
        "rand_report": _report_sha(arts["rand_report"], tmpdir, "rand_report"),
        "sweep": _report_sha(arts["sweep"], tmpdir, "sweep"),
        "bridge": _ckpt_sha(bridge_arts["bridge"], tmpdir, "bridge"),
    }


@pytest.fixture(scope="session")
def chain_arts():
    return run_chain_pipeline()


@pytest.fixture(scope="session")
def bridge_arts():
    return run_bridge_pipeline()


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    config = ModelConfig(n_layers=2, n_heads=2, head_dim=8, d_model=16, d_ff=32,
                         vocab_size=13, max_seq_len=12)
    params = {k: v.astype(F64) for k, v in M.init_random(config, 17).items()}
    names = sorted(params)
    plist = [params[n] for n in names]
    rng = np.random.default_rng(23)
    tokens = rng.integers(0, 13, size=(2, 8))
    targets = rng.integers(0, 13, size=(2, 8))
    mask = np.ones((2, 8))
    teacher_logits = Tensor(rng.normal(size=(2, 8, 13)), dtype=F64)

    def ce(plist):
        ps = dict(zip(names, plist))
        return M.loss_ce(M.forward(config, ps, tokens), targets, mask)

    def rkl(plist):
        ps = dict(zip(names, plist))
        return K.reverse_kl_loss(M.forward(config, ps, tokens), teacher_logits, mask)

    t0 = time.time()
    err_ce = grad_check(ce, plist, samples_per_param=6, seed=5)
    err_rkl = grad_check(rkl, plist, samples_per_param=6, seed=6)
    elapsed = time.time() - t0
    _report(1, "gradient correctness", err_ce < 1e-4 and err_rkl < 1e-4 and elapsed < 60,
            f"ce={err_ce:.2e} rkl={err_rkl:.2e} in {elapsed:.1f}s")


def test_criterion_02_kl_properties():
    rng = np.random.default_rng(29)
    min_seen = 0.0
    for _ in range(1000):
        s = Tensor(rng.normal(size=(1, 2, 7)), dtype=F64)
        t = Tensor(rng.normal(size=(1, 2, 7)), dtype=F64)
        mask = np.ones((1, 2))
        min_seen = min(min_seen, K.reverse_kl_loss(s, t, mask).item(),
                       K.forward_kl_loss(s, t, mask).item())
    x = Tensor(rng.normal(size=(2, 3, 9)), dtype=F64)
    eq_r = abs(K.reverse_kl_loss(x, x, np.ones((2, 3))).item())
    eq_f = abs(K.forward_kl_loss(x, x, np.ones((2, 3))).item())
    s2 = Tensor(np.log(np.array([[[0.9, 0.1]]])), dtype=F64)
    t2 = Tensor(np.zeros((1, 1, 2)), dtype=F64)
    oracle = K.reverse_kl_loss(s2, t2, np.ones((1, 1))).item()
    _report(2, "KL properties",
            min_seen >= -1e-9 and eq_r <= 1e-10 and eq_f <= 1e-10 and abs(oracle - 0.368064) < 1e-6,
            f"min={min_seen:.1e} equal=({eq_r:.1e},{eq_f:.1e}) oracle={oracle:.6f}")


def test_criterion_03_interpolation_boundaries():
    small = Checkpoint(A2_CFG, M.init_random(A2_CFG, 31), Meta(name="s"))
    large = Checkpoint(A1_CFG, M.init_random(A1_CFG, 37), Meta(name="l"))
    expanded = S.apply_transform(small, S.plan_expand(A2_CFG, TARGET_CFG))
    subsetted = S.apply_transform(large, S.plan_subset(A1_CFG, TARGET_CFG))
    at1 = S.interpolate(small, large, TARGET_CFG, 1.0)
    at0 = S.interpolate(small, large, TARGET_CFG, 0.0)
    bit1 = all(at1.params[k].data.tobytes() == expanded.params[k].data.tobytes() for k in expanded.params)
    bit0 = all(at0.params[k].data.tobytes() == subsetted.params[k].data.tobytes() for k in subsetted.params)
    x = S.interpolate(small, large, TARGET_CFG, 0.8)
    y = S.interpolate(small, large, TARGET_CFG, 0.3)
    residual = 0.0
    for k in x.params:
        diff = x.params[k].data - y.params[k].data
        expect = 0.5 * (expanded.params[k].data - subsetted.params[k].data)
        residual = max(residual, float(np.abs(diff - expect).max()))
    _report(3, "interpolation boundaries", bit1 and bit0 and residual <= 1e-6,
            f"alpha=1 bitwise={bit1} alpha=0 bitwise={bit0} linearity residual={residual:.2e}")


def test_criterion_04_function_preservation():
    rng = np.random.default_rng(41)
    tokens = rng.integers(0, 100, size=(100, 12))
    cases = [
        ("grow d_ff", _cfg(2, 2, 32, 128), _cfg(2, 2, 32, 224), "copy"),
        ("grow heads", _cfg(2, 2, 32, 128), _cfg(2, 5, 32, 128), "copy"),
        ("identity depth", _cfg(2, 2, 32, 128), _cfg(5, 2, 32, 128), "identity"),
    ]
    details = []
    ok = True
    for name, src_cfg, dst_cfg, mode in cases:
        src = Checkpoint(src_cfg, M.init_random(src_cfg, 43), Meta(name="src"))
        dst = S.apply_transform(src, S.plan_expand(src_cfg, dst_cfg, mode=mode))
        with T.no_grad():
            base = M.forward(src_cfg, src.params, tokens).data
            grown = M.forward(dst_cfg, dst.params, tokens).data
        gap = float(np.abs(base - grown).max())
        details.append(f"{name}={gap:.1e}")
        ok = ok and gap <= 1e-5
    _report(4, "function preservation", ok, " ".join(details))


def test_criterion_05_inverse_roundtrip():
    rng = np.random.default_rng(47)
    failures = 0
    for trial in range(20):
        L = int(rng.integers(1, 5))
        H = int(rng.integers(1, 4))
        dm = int(rng.integers(2, 10))
        ff = int(rng.integers(2, 16))
        src_cfg = ModelConfig(L, H, 4, dm, ff, 19, 8)
        dst_cfg = ModelConfig(
            L + int(rng.integers(0, 4)), H + int(rng.integers(0, 3)), 4,
            dm + int(rng.integers(0, 7)), ff + int(rng.integers(0, 9)), 19, 8,
        )
        mode = "identity" if trial % 2 else "copy"
        src = Checkpoint(src_cfg, M.init_random(src_cfg, 100 + trial), Meta(name="src"))
        plan = S.plan_expand(src_cfg, dst_cfg, mode=mode)
        back = S.apply_transform(S.apply_transform(src, plan), S.invert_expand(plan))
        if not all(back.params[k].data.tobytes() == src.params[k].data.tobytes() for k in src.params):
            failures += 1
    _report(5, "inverse round-trip", failures == 0, f"{20 - failures}/20 config pairs bitwise")


GOLDEN_SHA256 = "0e66d3f1e09dbd6fb87123dc24141d25d18233ced418d1e0ecf9cf374e949204"


def test_criterion_06_checkpoint_format(tmp_path):
    cfg = ModelConfig(n_layers=2, n_heads=2, head_dim=4, d_model=8, d_ff=16,
                      vocab_size=11, max_seq_len=10)
    ck = Checkpoint(cfg, M.init_random(cfg, 1234),
                    Meta(name="golden", seed=1234, lineage=["random-init seed=1234"]))
    path = tmp_path / "golden.cbdc"
    save(ck, str(path))
    raw = path.read_bytes()
    golden_ok = hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256
    roundtrip_ok = checkpoints_equal(load(str(path)), ck)

    kinds = []
    bad = bytearray(raw)
    bad[:4] = b"XXXX"
    (tmp_path / "bad_magic.cbdc").write_bytes(bytes(bad))
    try:
        load(str(tmp_path / "bad_magic.cbdc"))
    except BadMagicError:
        kinds.append("magic")
    bad = bytearray(raw)
    bad[4:8] = struct.pack("<I", 99)
    (tmp_path / "bad_version.cbdc").write_bytes(bytes(bad))
    try:
        load(str(tmp_path / "bad_version.cbdc"))
    except UnsupportedVersionError:
        kinds.append("version")
    (tmp_path / "truncated.cbdc").write_bytes(raw[:-40])
    try:
        load(str(tmp_path / "truncated.cbdc"))
    except TruncatedDataError:
        kinds.append("truncated")
    hlen = struct.unpack("<Q", raw[8:16])[0]
    header = raw[16 : 16 + hlen].decode("utf-8")
    patched = header.replace('"d_model":8', '"d_model":4')
    bad = bytearray(raw)
    bad[16 : 16 + hlen] = patched.encode("utf-8")
    (tmp_path / "mismatch.cbdc").write_bytes(bytes(bad))
    try:
        load(str(tmp_path / "mismatch.cbdc"))
    except ShapeMismatchError:
        kinds.append("shape")
    _report(6, "checkpoint format", golden_ok and roundtrip_ok and len(kinds) == 4,
            f"golden={golden_ok} roundtrip={roundtrip_ok} error kinds={kinds}")


def test_criterion_07_desk_scale_experiment(chain_arts):
    cbd0 = chain_arts["cbd_report"].metrics["step0_loss"]
    rand0 = chain_arts["rand_report"].metrics["step0_loss"]
    rand_final = chain_arts["rand_report"].metrics["final_loss"]
    reach = E.steps_to_target(chain_arts["cbd_report"].curves["cbd"], rand_final)
    secs = chain_arts["experiment_seconds"]
    ok = (
        cbd0 <= 0.8 * rand0
        and reach is not None
        and reach <= EDGE_STEPS // 2
        and secs < 20 * 60
    )
    _report(7, "desk-scale chain experiment", ok,
            f"step0 {cbd0:.3f} vs rand {rand0:.3f} (ratio {cbd0 / rand0:.2f}); "
            f"reaches rand-final at step {reach}; alpha={chain_arts['alpha']:.3f}; {secs:.0f}s")


def test_criterion_08_stepwise_vs_direct(chain_arts):
    corpus = chain_arts["corpus"]
    chain_ce = K.eval_ce(A2_CFG, chain_arts["a2"].params, corpus.val_docs, CHAR, 16, 48)
    direct_ce = K.eval_ce(A2_CFG, chain_arts["direct"].params, corpus.val_docs, CHAR, 16, 48)
    chain_tail = float(np.std(chain_arts["a2"].meta.loss_curves[-1]["losses"][-100:]))
    direct_tail = float(np.std(chain_arts["direct"].meta.loss_curves[-1]["losses"][-100:]))
    ok = chain_ce <= 1.02 * direct_ce and chain_tail <= direct_tail
    _report(8, "stepwise vs direct", ok,
            f"val {chain_ce:.4f} vs {direct_ce:.4f} (ratio {chain_ce / direct_ce:.4f}); "
            f"tail std {chain_tail:.4f} vs {direct_tail:.4f}")


def test_criterion_09_alpha_sweep_trend(chain_arts):
    ratio = M.count_params(SWEEP_CFG) / M.count_params(A2_CFG)
    argmin = chain_arts["sweep"].metrics["argmin_alpha"]
    ok = ratio <= 1.15 and argmin >= 0.7
    _report(9, "alpha sweep trend", ok, f"target {ratio:.2f}x small anchor; argmin alpha={argmin}")


def test_criterion_10_heterogeneous_bridge(bridge_arts):
    curve = bridge_arts["bridge"].meta.loss_curves[-1]
    ce0, ce1 = curve["ce_step0"], curve["ce_final"]
    _report(10, "heterogeneous bridge", ce1 <= 0.7 * ce0,
            f"ce step0={ce0:.3f} final={ce1:.3f} (ratio {ce1 / ce0:.2f})")


def brute_force_lcs(a, b):
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def test_criterion_11_metrics_oracles():
    rng = np.random.default_rng(53)
    exact = True
    for _ in range(200):
        a = [int(x) for x in rng.integers(0, 6, size=rng.integers(1, 21))]
        b = [int(x) for x in rng.integers(0, 6, size=rng.integers(1, 21))]
        lcs = brute_force_lcs(tuple(a), tuple(b))
        got = E.rouge_l(a, b)
        if lcs == 0:
            exact = exact and got == 0.0
        else:
            p, r = lcs / len(a), lcs / len(b)
            exact = exact and got == 2.0 * p * r / (r + p)
    cat = E.rouge_l("the cat sat".split(), "the cat".split())
    config = _cfg(1, 1, 16, 32, vocab=100)
    params = {
        name: Tensor(np.ones(shape, dtype=np.float32)) if name.endswith(".g")
        else Tensor(np.zeros(shape, dtype=np.float32))
        for name, shape in M.param_shapes(config).items()
    }
    uniform = Checkpoint(config, params, Meta(name="uniform"))
    ppl = E.perplexity(uniform, _corpus().val_docs, CHAR)
    _report(11, "metrics oracles", exact and cat == 0.8 and abs(ppl - 100.0) < 1e-3,
            f"rouge exact={exact} cat_sat={cat} uniform ppl={ppl:.5f}")


def test_criterion_12_determinism(chain_arts, bridge_arts, tmp_path):
    os.makedirs(tmp_path / "run1", exist_ok=True)
    first = _pipeline_hashes(chain_arts, bridge_arts, tmp_path / "run1")
    rerun_chain = run_chain_pipeline()
    rerun_bridge = run_bridge_pipeline()
    os.makedirs(tmp_path / "run2", exist_ok=True)
    second = _pipeline_hashes(rerun_chain, rerun_bridge, tmp_path / "run2")
    mismatched = sorted(k for k in first if first[k] != second[k])
    _report(12, "determinism", not mismatched,
            "bitwise-identical checkpoints and reports" if not mismatched
            else f"mismatch in {mismatched}")
