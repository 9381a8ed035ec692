import pytest

from rirshape.errors import KvFormatError, RirshapeError
from rirshape.kvtext import dump_kv, parse_kv, parse_sections


class TestParseSections:
    def test_leading_block_then_named_sections(self):
        text = "a=1\n[one]\nb=2\nc = x = y \n[two]\n"
        assert parse_sections(text) == [
            (None, {"a": "1"}), ("one", {"b": "2", "c": "x = y"}), ("two", {})]

    def test_leading_block_empty_when_text_starts_with_header(self):
        assert parse_sections("[ only ]\nk=v\n") == [(None, {}), ("only", {"k": "v"})]

    def test_comments_and_blank_lines_ignored(self):
        text = "# head\n\n  \n[s]\n# inside\nk=v\n\n"
        assert parse_sections(text) == [(None, {}), ("s", {"k": "v"})]

    def test_empty_text(self):
        assert parse_sections("") == [(None, {})]

    def test_non_pair_line_rejected(self):
        with pytest.raises(KvFormatError, match="just words"):
            parse_sections("[s]\njust words\n")


class TestParseKv:
    def test_plain_record(self):
        assert parse_kv("# c\nx=1\ny=two\n") == {"x": "1", "y": "two"}

    def test_section_header_rejected(self):
        with pytest.raises(KvFormatError):
            parse_kv("x=1\n[s]\ny=2\n")

    def test_errors_are_package_and_value_errors(self):
        with pytest.raises(RirshapeError):
            parse_kv("nonsense\n")
        with pytest.raises(ValueError):
            parse_kv("nonsense\n")


class TestDumpKv:
    def test_round_trip(self):
        record = {"a": 1, "b": 0.1, "c": None, "d": True, "e": "x y"}
        assert parse_kv(dump_kv(record)) == {
            "a": "1", "b": "0.1", "c": "none", "d": "true", "e": "x y"}

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c",
                                     "\x85", "\u2028", "\u2029"])
    def test_line_breaks_in_values_stay_on_one_line(self, brk):
        text = dump_kv({"reason": f"a{brk}b", "next": 2})
        assert text.count("\n") == 2
        assert list(parse_kv(text)) == ["reason", "next"]
        assert "\\" in parse_kv(text)["reason"]

    def test_value_without_line_breaks_unchanged(self):
        assert dump_kv({"k": "C:\\path\\n.wav"}) == "k=C:\\path\\n.wav\n"
