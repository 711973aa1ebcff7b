import itertools

import numpy as np
import pytest

from chainkd import data as D
from chainkd import tokenizers as tok


CHAR = tok.char_vocab()


class TestGenerators:
    def test_markov_deterministic(self):
        a = D.gen_markov(7, n_docs=5, doc_len=40, order=2, alphabet="abcd")
        b = D.gen_markov(7, n_docs=5, doc_len=40, order=2, alphabet="abcd")
        assert a.documents == b.documents

    def test_markov_shapes(self):
        c = D.gen_markov(1, n_docs=8, doc_len=33, order=1, alphabet="xyz")
        assert len(c.documents) == 8
        assert all(len(d) == 33 for d in c.documents)
        assert all(set(d) <= set("xyz") for d in c.documents)

    def test_markov_transitions_non_uniform(self):
        c = D.gen_markov(3, n_docs=20, doc_len=200, order=1, alphabet="ab")
        text = "".join(c.documents)
        # a uniform source would give ~50% 'a'; Dirichlet(0.3) rows are peaked
        frac = text.count("a") / len(text)
        assert abs(frac - 0.5) > 0.02

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 93, 1234])
    @pytest.mark.parametrize("n_docs,doc_len,order,alphabet", [
        (12, 90, 2, "abcdefgh"),  # the shape of the pipeline's corpora
        (8, 60, 1, "abcdefghijklmnopqrstuvwxyz"),
        (6, 50, 3, "abcd"),
        (10, 70, 1, "ab"),
        (4, 2, 3, "abc"),  # doc_len < order: the start state, cut
        (4, 3, 3, "xyz"),  # doc_len == order: no character drawn
    ])
    def test_markov_matches_the_per_character_reference(self, seed, n_docs, doc_len, order, alphabet):
        expected = markov_per_character(seed, n_docs, doc_len, order, alphabet)
        assert D.gen_markov(seed, n_docs, doc_len, order, alphabet).documents == expected

    def test_markov_order_validated(self):
        with pytest.raises(ValueError):
            D.gen_markov(0, 1, 10, 0, "ab")

    def test_arithmetic_lines_correct(self):
        c = D.gen_arithmetic(5, n_docs=50, max_operand=99)
        for doc in c.documents:
            line = doc.strip()
            left, total = line.split("=")
            a, b = left.split("+")
            assert int(a) + int(b) == int(total)

    def test_arithmetic_deterministic(self):
        assert D.gen_arithmetic(2, 10, 9).documents == D.gen_arithmetic(2, 10, 9).documents

    def test_arithmetic_charset(self):
        c = D.gen_arithmetic(2, 30, 50)
        allowed = set("0123456789+=\n")
        assert all(set(doc) <= allowed for doc in c.documents)


def markov_per_character(seed, n_docs, doc_len, order, alphabet):
    """gen_markov's documents as its first version made them, with one
    rng.choice call per character: the frozen reference for their bytes."""
    rng = np.random.default_rng(seed)
    a = len(alphabet)
    contexts = list(itertools.product(range(a), repeat=order))
    table = {ctx: rng.dirichlet(np.full(a, 0.3)) for ctx in contexts}
    docs = []
    for _ in range(n_docs):
        chars = list(tuple(rng.integers(0, a, size=order).tolist()))
        while len(chars) < doc_len:
            chars.append(int(rng.choice(a, p=table[tuple(chars[-order:])])))
        docs.append("".join(alphabet[c] for c in chars[:doc_len]))
    return docs


def one_epoch(docs, batch, seq_len, seed, epoch=0):
    """The batches `shuffled` draws from a split's windows during one epoch."""
    columns = D.token_windows(docs, CHAR, seq_len)
    per_epoch = len(columns[0]) // batch
    stream = D.shuffled(columns, batch, seed)
    return list(itertools.islice(stream, epoch * per_epoch, (epoch + 1) * per_epoch))


class TestSplit:
    def test_split_deterministic_and_disjoint(self):
        c1 = D.gen_markov(1, 20, 30, 1, "ab")
        c2 = D.Corpus(documents=list(c1.documents), split_ratio=c1.split_ratio, seed=c1.seed)
        assert c1.train_docs == c2.train_docs and c1.val_docs == c2.val_docs
        assert len(c1.train_docs) + len(c1.val_docs) == 20
        train_set = set(c1.train_docs)
        assert all(v not in train_set for v in c1.val_docs)

    def test_no_val_doc_in_training_batches(self):
        corpus = D.gen_markov(4, 30, 40, 1, "abc")
        val_texts = set(corpus.val_docs)
        for tokens, _, mask in one_epoch(corpus.train_docs, batch=2, seq_len=16, seed=0):
            for row, mrow in zip(tokens, mask):
                ids = [int(t) for t, m in zip(row, mrow) if t >= 4]
                text = tok.decode(CHAR, ids)
                for v in val_texts:
                    assert text not in ("", v) or text == ""


class TestBatches:
    def test_targets_shift_by_one(self):
        corpus = D.gen_markov(2, 10, 25, 1, "ab")
        for tokens, targets, mask in one_epoch(corpus.train_docs, 2, 8, seed=1):
            assert np.array_equal(tokens[:, 1:][mask[:, :-1] > 0], targets[:, :-1][mask[:, :-1] > 0])

    def test_mask_excludes_pad_only(self):
        corpus = D.Corpus(["ab"], split_ratio=1.0)
        (tokens, targets, mask), = one_epoch(corpus.train_docs, 1, 8, seed=0)
        assert mask.tolist()[0] == [(1.0 if t != CHAR.pad else 0.0) for t in targets[0]]

    def test_deterministic_stream(self):
        corpus = D.gen_markov(3, 12, 30, 1, "abc")
        a = one_epoch(corpus.train_docs, 2, 10, seed=5)
        b = one_epoch(corpus.train_docs, 2, 10, seed=5)
        assert len(a) == len(b) > 0
        for (t1, y1, m1), (t2, y2, m2) in zip(a, b):
            assert t1.tobytes() == t2.tobytes()
            assert y1.tobytes() == y2.tobytes()
            assert m1.tobytes() == m2.tobytes()

    def test_epochs_reshuffle(self):
        corpus = D.gen_markov(3, 12, 30, 1, "abc")
        a = one_epoch(corpus.train_docs, 2, 10, seed=5, epoch=0)
        b = one_epoch(corpus.train_docs, 2, 10, seed=5, epoch=1)
        assert any(x[0].tobytes() != y[0].tobytes() for x, y in zip(a, b))

    def test_shuffled_epochs_are_seeded_permutations(self):
        stream = D.shuffled((np.arange(10), np.arange(10, 20)), 3, seed=4)
        batches = [next(stream) for _ in range(6)]
        assert all(np.array_equal(a + 10, b) for a, b in batches)  # columns share one row order
        epochs = [np.concatenate([a for a, _ in batches[i : i + 3]]) for i in (0, 3)]
        for epoch, drawn in enumerate(epochs):
            order = np.random.default_rng([4, epoch]).permutation(10)
            assert drawn.tolist() == order[:9].tolist()  # the ragged tail is dropped
        assert epochs[0].tolist() != epochs[1].tolist()

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            D.token_windows([], CHAR, 8)

    def test_seq_len_validated(self):
        with pytest.raises(ValueError):
            D.token_windows(["ab"], CHAR, 1)

    def test_stream_cycles(self):
        corpus = D.Corpus(["abcabc", "defdef"], split_ratio=1.0)
        stream = D.shuffled(D.token_windows(corpus.train_docs, CHAR, 4), 1, seed=0)
        taken = [next(stream) for _ in range(7)]
        assert len(taken) == 7

    def test_in_order_keeps_every_row_and_the_ragged_tail(self):
        columns = D.token_windows(["abcdefghij", "klmnop", "q"], CHAR, 4)
        n = len(columns[0])
        assert n == 6
        blocks = list(D.in_order(columns, 4))
        assert [len(tokens) for tokens, _, _ in blocks] == [4, 2]
        for column, joined in zip(columns, zip(*blocks)):
            assert np.concatenate(joined).tobytes() == column.tobytes()


class TestIngestion:
    def test_blank_line_separated_blocks(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("doc one line a\ndoc one line b\n\ndoc two\n\n\ndoc three\n", encoding="utf-8")
        c = D.load_text(str(p), split_ratio=1.0)
        assert c.documents == ["doc one line a\ndoc one line b", "doc two", "doc three"]
