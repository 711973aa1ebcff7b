"""Two deterministic tokenizers with deliberately mismatched vocabularies.

The byte-level table covers all 256 byte values (260 ids with specials); the
char-level table covers printable ASCII plus newline (100 ids).  Shared
characters get different ids in the two tables, so a bridge between them can
never degenerate into logit copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field


_REPLACEMENT = "?"
_SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
# printable ASCII 0x20..0x7e, with newline so line-structured corpora survive
_CHAR_ALPHABET = "\n" + "".join(chr(c) for c in range(0x20, 0x7F))


@dataclass(frozen=True)
class Vocabulary:
    name: str
    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(repr=False)
    pad: int
    bos: int
    eos: int
    unk: int
    byte_level: bool

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @property
    def specials(self) -> tuple[int, int, int, int]:
        return (self.pad, self.bos, self.eos, self.unk)

    def __post_init__(self):
        if len(set(self.specials)) != 4 or max(self.specials) >= self.size:
            raise ValueError("special ids must be distinct and < vocab size")


def _build(name: str, tokens: list[str], byte_level: bool) -> Vocabulary:
    id_to_token = tuple(_SPECIAL_TOKENS) + tuple(tokens)
    token_to_id = {t: i for i, t in enumerate(id_to_token)}
    return Vocabulary(
        name=name,
        id_to_token=id_to_token,
        token_to_id=token_to_id,
        pad=0,
        bos=1,
        eos=2,
        unk=3,
        byte_level=byte_level,
    )


def byte_vocab() -> Vocabulary:
    """256 byte values behind 4 specials: 260 ids, nothing maps to UNK."""
    return _build("byte", [f"0x{b:02x}" for b in range(256)], byte_level=True)


def char_vocab() -> Vocabulary:
    """Printable ASCII plus newline behind 4 specials: 100 ids."""
    return _build("char", list(_CHAR_ALPHABET), byte_level=False)


def get_vocab(name: str) -> Vocabulary:
    if name == "byte":
        return byte_vocab()
    if name == "char":
        return char_vocab()
    raise ValueError(f"unknown tokenizer '{name}' (expected 'byte' or 'char')")


def encode(vocab: Vocabulary, text: str) -> list[int]:
    if vocab.byte_level:
        return [4 + b for b in text.encode("utf-8")]
    ids = []
    for ch in text:
        ids.append(vocab.token_to_id.get(ch, vocab.unk))
    return ids


def decode(vocab: Vocabulary, ids: list[int]) -> str:
    for i in ids:
        if i < 0 or i >= vocab.size:
            raise ValueError(f"id {i} out of range [0, {vocab.size})")
    if vocab.byte_level:
        parts = []
        run = bytearray()
        for i in ids:
            if i >= 4:
                run.append(i - 4)
                continue
            if run:
                parts.append(run.decode("utf-8", errors="replace"))
                run = bytearray()
            if i == vocab.unk:
                parts.append(_REPLACEMENT)
        if run:
            parts.append(run.decode("utf-8", errors="replace"))
        return "".join(parts)
    parts = []
    for i in ids:
        if i == vocab.unk:
            parts.append(_REPLACEMENT)
        elif i > vocab.unk:
            parts.append(vocab.id_to_token[i])
        # pad/bos/eos render as empty
    return "".join(parts)

