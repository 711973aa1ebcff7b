"""Pinned sha256 hashes of a short seeded pipeline.

Every training and evaluation path of the library runs once here on a
60-document order-2 Markov corpus with tiny models (batch 4, seq 24):
CE training, three kinds of chain edge, interpolation, the byte->char
bridge, compare-init, the alpha sweep and perplexity.  The hashes cover the
saved checkpoint bytes (weights, lineage and loss curves) and the written
report files, so a refactor that keeps them is bit-for-bit the same
program.

Re-pin these values only in a change that means to alter float rounding
(a fused op, a reordered reduction), and say so in CHANGES.md.
"""

import hashlib

import pytest

from chainkd import data as D
from chainkd import distill as K
from chainkd import evaluate as E
from chainkd import surgery as S
from chainkd import tokenizers as tok
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta, save
from chainkd.distill import BridgeSpec, DistillConfig
from chainkd.transformer import ModelConfig

CHAR = tok.char_vocab()

TEACHER = ModelConfig(3, 3, 4, 12, 48, 100, 32)
STUDENT = ModelConfig(2, 2, 4, 8, 32, 100, 32)
TARGET = ModelConfig(2, 3, 4, 12, 40, 100, 32)
BYTE_SOURCE = ModelConfig(1, 2, 4, 8, 32, 260, 32)
BRIDGE = ModelConfig(1, 2, 4, 8, 32, 100, 32)

PINNED = {
    "teacher": "602cec1075f804be8995dd46422b6c695c8f2d16b77ad1cc46d129d259715829",
    "edge_reverse_kl_sft": "a6564d7bf52671d04742b32a190d3b86da6fdd8417e214ccb787f7939645f96d",
    "edge_forward_kl": "02404e7fcb9c3d21c939e8a5bcbc05379a980724513848101679d258c401cb8f",
    "edge_ce_random_sft": "9907dee05d0efa04a2de26b3e5aebde8d4b9a9994733564089ad943cfde68f44",
    "interpolate": "d92618c09a340a096f577f9c37d9c6aad5791e6adc94eab8a11d25fd2f904a80",
    "bridge": "8b05c90cdf11ad22d59297cce0d68a6902fc2eaed00ccd684c8dbd9a9b5aaef4",
    "compare_cbd": "9636a62c00ef3d96ba2408c7a5a4fef459dccb89439e36d236446938f885c237",
    "compare_rand": "14df63c42b05b9592b68d9325567a35d7a79a9648f26a5318cd7bff594259168",
    "alpha_sweep": "53d3c6e7f440e72016cbaf45ad93bf4c52b4162818df8d50092ad4c80a6a414b",
    "perplexity": "e96db399030d107b007243e7af95ba28e70479c3c235809142a1f42eab0efba3",
}


def _cfg(steps, seed, **kw):
    return DistillConfig(steps=steps, batch=4, seq_len=24, lr=3e-3, seed=seed, **kw)


def _file_sha(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _ckpt_sha(ckpt: Checkpoint, tmp, tag: str) -> str:
    path = tmp / f"{tag}.cbdc"
    save(ckpt, str(path))
    return _file_sha(path)


def _report_sha(report: E.EvalReport, tmp, tag: str) -> str:
    csv_path, json_path = tmp / f"{tag}.csv", tmp / f"{tag}.json"
    report.write_csv(str(csv_path))
    report.write_json(str(json_path))
    return _file_sha(csv_path, json_path)


@pytest.fixture(scope="module")
def hashes(tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("pipeline")
    corpus = D.gen_markov(23, n_docs=60, doc_len=40, order=2, alphabet="abcdefgh")
    teacher = K.train_lm(TEACHER, corpus, CHAR, _cfg(20, 1, loss_kind="ce", sft_warm_epochs=0), name="teacher")
    rkl = K.distill_edge(teacher, STUDENT, corpus, CHAR, _cfg(10, 2, sft_warm_epochs=1), name="rkl")
    fkl = K.distill_edge(teacher, STUDENT, corpus, CHAR,
                         _cfg(10, 3, loss_kind="forward_kl", temperature=2.0, sft_warm_epochs=0), name="fkl")
    ce = K.distill_edge(teacher, STUDENT, corpus, CHAR,
                        _cfg(10, 4, loss_kind="ce", sft_warm_epochs=1, init_from_teacher=False), name="ce")
    cbd = S.interpolate(rkl, teacher, TARGET, 0.4)
    rand = Checkpoint(TARGET, M.init_random(TARGET, 5), Meta(name="rand", seed=5))
    cbd_report, rand_report = E.compare_init(cbd, rand, corpus, CHAR, _cfg(7, 6, sft_warm_epochs=0), eval_every=3)
    sweep = E.alpha_sweep(rkl, teacher, TARGET, [0.0, 0.5, 1.0], corpus, CHAR, batch=4, seq_len=24)
    ppl = E.perplexity(rkl, corpus.val_docs, CHAR, batch=4, seq_len=24)

    source = K.train_lm(BYTE_SOURCE, corpus, tok.byte_vocab(), _cfg(10, 7, loss_kind="ce", sft_warm_epochs=0),
                        name="byte-source")
    spec = BridgeSpec("byte", "char", BRIDGE, n_samples=10, gen_max_len=8, seed=8)
    bridge = K.run_bridge(spec, source, corpus, _cfg(8, 9, loss_kind="ce", sft_warm_epochs=0))

    return {
        "teacher": _ckpt_sha(teacher, tmp, "teacher"),
        "edge_reverse_kl_sft": _ckpt_sha(rkl, tmp, "rkl"),
        "edge_forward_kl": _ckpt_sha(fkl, tmp, "fkl"),
        "edge_ce_random_sft": _ckpt_sha(ce, tmp, "ce"),
        "interpolate": _ckpt_sha(cbd, tmp, "cbd"),
        "bridge": _ckpt_sha(bridge, tmp, "bridge"),
        "compare_cbd": _report_sha(cbd_report, tmp, "compare-cbd"),
        "compare_rand": _report_sha(rand_report, tmp, "compare-rand"),
        "alpha_sweep": _report_sha(sweep, tmp, "sweep"),
        "perplexity": hashlib.sha256(repr(ppl).encode()).hexdigest(),
    }


@pytest.mark.parametrize("artifact", sorted(PINNED))
def test_pipeline_hash(hashes, artifact):
    assert hashes[artifact] == PINNED[artifact]
