"""Synthetic corpora, plain-text ingestion, and deterministic batching."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tokenizers import Vocabulary, encode

Batch = tuple[np.ndarray, np.ndarray, np.ndarray]  # tokens, targets, mask


@dataclass
class Corpus:
    documents: list[str]
    split_ratio: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.split_ratio <= 1.0:
            raise ValueError("split_ratio must be in (0, 1]")
        order = np.random.default_rng(self.seed).permutation(len(self.documents))
        n_train = int(round(len(self.documents) * self.split_ratio))
        self._train_idx = sorted(order[:n_train].tolist())
        self._val_idx = sorted(order[n_train:].tolist())

    @property
    def train_docs(self) -> list[str]:
        return [self.documents[i] for i in self._train_idx]

    @property
    def val_docs(self) -> list[str]:
        return [self.documents[i] for i in self._val_idx]


def gen_markov(seed: int, n_docs: int, doc_len: int, order: int, alphabet: str) -> Corpus:
    """Order-k Markov text over `alphabet` with a seeded, peaked transition
    table (Dirichlet(0.3) rows), so there is always learnable structure."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(alphabet) < 2:
        raise ValueError("alphabet needs at least two symbols")
    rng = np.random.default_rng(seed)
    a = len(alphabet)
    contexts = list(itertools.product(range(a), repeat=order))
    table = {ctx: rng.dirichlet(np.full(a, 0.3)) for ctx in contexts}
    docs = []
    for _ in range(n_docs):
        state = tuple(rng.integers(0, a, size=order).tolist())
        chars = list(state)
        while len(chars) < doc_len:
            nxt = int(rng.choice(a, p=table[tuple(chars[-order:])]))
            chars.append(nxt)
        docs.append("".join(alphabet[c] for c in chars[:doc_len]))
    return Corpus(documents=docs, seed=seed)


def gen_arithmetic(seed: int, n_docs: int, max_operand: int) -> Corpus:
    """Documents of the form "a+b=c\\n" with correct sums."""
    if max_operand < 1:
        raise ValueError("max_operand must be >= 1")
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        a = int(rng.integers(0, max_operand + 1))
        b = int(rng.integers(0, max_operand + 1))
        docs.append(f"{a}+{b}={a + b}\n")
    return Corpus(documents=docs, seed=seed)


def load_text(path: str, split_ratio: float = 0.9, seed: int = 0) -> Corpus:
    """UTF-8 file, one document per blank-line-separated block."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    docs = [block.strip("\n") for block in raw.split("\n\n") if block.strip()]
    return Corpus(documents=docs, split_ratio=split_ratio, seed=seed)


def token_windows(docs: list[str], vocab: Vocabulary, seq_len: int) -> list[np.ndarray]:
    """Each document becomes BOS + ids + EOS, cut into seq_len+1 windows;
    the ragged tail window is PAD-filled."""
    windows = []
    for doc in docs:
        ids = [vocab.bos] + encode(vocab, doc) + [vocab.eos]
        for start in range(0, len(ids) - 1, seq_len):
            chunk = ids[start : start + seq_len + 1]
            if len(chunk) < seq_len + 1:
                chunk = chunk + [vocab.pad] * (seq_len + 1 - len(chunk))
            windows.append(np.asarray(chunk, dtype=np.int64))
    return windows


def index_stream(n_windows: int, batch: int, seed: int):
    """Endless stream of window-index batches: a fresh seeded permutation per
    epoch, consecutive groups of `batch`, ragged tail dropped."""
    if n_windows < batch:
        raise ValueError(f"split yields no full batch of size {batch}")
    epoch = 0
    while True:
        order = np.random.default_rng([seed, epoch]).permutation(n_windows)
        for i in range(0, n_windows - batch + 1, batch):
            yield order[i : i + batch]
        epoch += 1


def assemble(stack: np.ndarray, idx: np.ndarray, pad: int) -> Batch:
    block = stack[idx]
    tokens = block[:, :-1]
    targets = block[:, 1:]
    mask = (targets != pad).astype(np.float32)
    return tokens, targets, mask


def batch_stream(docs: list[str], vocab: Vocabulary, batch: int, seq_len: int, seed: int) -> Iterator[Batch]:
    """Endless stream cycling epochs, reshuffled per epoch from the seed."""
    if seq_len < 2:
        raise ValueError("seq_len must be >= 2")
    if not docs:
        raise ValueError("empty split")
    stack = np.stack(token_windows(docs, vocab, seq_len))
    for idx in index_stream(len(stack), batch, seed):
        yield assemble(stack, idx, vocab.pad)


def eval_windows(docs: list[str], vocab: Vocabulary, batch: int, seq_len: int) -> Iterator[Batch]:
    """Unshuffled pass over every window, for evaluation; the ragged final
    batch is emitted rather than dropped."""
    windows = token_windows(docs, vocab, seq_len)
    if not windows:
        raise ValueError("empty split")
    stack = np.stack(windows)
    for i in range(0, len(stack), batch):
        yield assemble(stack, np.arange(i, min(i + batch, len(stack))), vocab.pad)
