import pytest

from chainkd import tokenizers as tok


BYTE = tok.byte_vocab()
CHAR = tok.char_vocab()


class TestConstruction:
    def test_sizes(self):
        assert BYTE.size == 260
        assert CHAR.size == 100

    def test_specials_distinct_and_in_range(self):
        for v in (BYTE, CHAR):
            assert len(set(v.specials)) == 4
            assert max(v.specials) < v.size

    def test_tables_mutual_inverses(self):
        for v in (BYTE, CHAR):
            for i, t in enumerate(v.id_to_token):
                assert v.token_to_id[t] == i

    def test_shared_characters_get_different_ids(self):
        # guarantees the bridge path cannot degenerate into logit copying
        for ch in "abcXYZ019 +=\n":
            assert tok.encode(BYTE, ch) != tok.encode(CHAR, ch)


class TestEncode:
    def test_empty(self):
        assert tok.encode(BYTE, "") == []
        assert tok.encode(CHAR, "") == []

    def test_roundtrip_byte(self):
        for text in ("abc", "a+b=c\n", "héllo", ""):
            assert tok.decode(BYTE, tok.encode(BYTE, text)) == text

    def test_roundtrip_char(self):
        for text in ("abc", "12+34=46\n", "Hello, world!"):
            assert tok.decode(CHAR, tok.encode(CHAR, text)) == text

    def test_char_level_non_ascii_is_unk(self):
        ids = tok.encode(CHAR, "é")
        assert ids == [CHAR.unk]

    def test_byte_level_never_unk(self):
        ids = tok.encode(BYTE, "é\x00\x7f")
        assert CHAR.unk not in ids[:0] and all(i >= 4 for i in ids)


class TestDecode:
    def test_empty(self):
        assert tok.decode(BYTE, []) == ""

    def test_specials_render_empty(self):
        for v in (BYTE, CHAR):
            assert tok.decode(v, [v.bos, v.eos, v.pad]) == ""

    def test_unk_renders_replacement(self):
        assert tok.decode(CHAR, [CHAR.unk]) == "?"
        assert tok.decode(BYTE, [BYTE.unk]) == "?"

    def test_unk_position_preserved(self):
        ids = tok.encode(CHAR, "ab") + [CHAR.unk] + tok.encode(CHAR, "cd")
        assert tok.decode(CHAR, ids) == "ab?cd"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tok.decode(CHAR, [100])


class TestSerialization:
    def test_get_vocab(self):
        assert tok.get_vocab("byte").size == 260
        assert tok.get_vocab("char").size == 100
        with pytest.raises(ValueError):
            tok.get_vocab("bpe")
