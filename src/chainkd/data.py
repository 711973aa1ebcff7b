"""Synthetic corpora, plain-text ingestion, and deterministic batching."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensor import _choice_cdf
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
    table (Dirichlet(0.3) rows), so there is always learnable structure.
    Each character is the one `rng.choice(len(alphabet), p=row)` would draw
    from its context's row, without a call per character: each document
    draws its uniforms in one call after its start state."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(alphabet) < 2:
        raise ValueError("alphabet needs at least two symbols")
    rng = np.random.default_rng(seed)
    a = len(alphabet)
    # one CDF per context, in itertools.product order: a context's index is its characters as base-a digits
    cdfs = [_choice_cdf(rng.dirichlet(np.full(a, 0.3))).tolist() for _ in range(a**order)]
    docs = []
    for _ in range(n_docs):
        chars = rng.integers(0, a, size=order).tolist()
        context = 0
        for c in chars:
            context = context * a + c
        for u in rng.random(max(0, doc_len - order)).tolist():
            chars.append(bisect.bisect_right(cdfs[context], u))
            context = (context * a + chars[-1]) % len(cdfs)
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


def token_windows(docs: list[str], vocab: Vocabulary, seq_len: int) -> Batch:
    """Each document becomes BOS + ids + EOS, cut into seq_len+1 windows with
    the ragged tail PAD-filled, stacked as (tokens, targets, mask) columns;
    the mask is 0 where the target is PAD."""
    if seq_len < 2:
        raise ValueError("seq_len must be >= 2")
    windows = []
    for doc in docs:
        ids = [vocab.bos] + encode(vocab, doc) + [vocab.eos]
        for start in range(0, len(ids) - 1, seq_len):
            chunk = ids[start : start + seq_len + 1]
            if len(chunk) < seq_len + 1:
                chunk = chunk + [vocab.pad] * (seq_len + 1 - len(chunk))
            windows.append(chunk)
    if not windows:
        raise ValueError("empty split")
    stack = np.asarray(windows, dtype=np.int64)
    targets = stack[:, 1:]
    return stack[:, :-1], targets, (targets != vocab.pad).astype(np.float32)


def shuffled(columns: tuple[np.ndarray, ...], batch: int, seed: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Endless stream of row batches of every column: a fresh [seed, epoch]
    permutation per epoch, consecutive groups of `batch`, ragged tail dropped."""
    n = len(columns[0])
    if n < batch:
        raise ValueError(f"split yields no full batch of size {batch}")
    for epoch in itertools.count():
        order = np.random.default_rng([seed, epoch]).permutation(n)
        for i in range(0, n - batch + 1, batch):
            idx = order[i : i + batch]
            yield tuple(column[idx] for column in columns)


def in_order(columns: tuple[np.ndarray, ...], batch: int) -> Iterator[tuple[np.ndarray, ...]]:
    """One unshuffled pass over every row, for evaluation; the ragged final
    batch is emitted rather than dropped."""
    for i in range(0, len(columns[0]), batch):
        yield tuple(column[i : i + batch] for column in columns)
