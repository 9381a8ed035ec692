import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rirshape import synth_rir, write_rir
from rirshape.cli import main
from rirshape.errors import ParameterError, RirshapeError
from rirshape.kvtext import (convert, csv_text, dump_kv, kv_str, load_kv, parse_kv,
                             parse_sections)


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
        with pytest.raises(ParameterError, match="line 2: not a key=value line: 'just words'"):
            parse_sections("[s]\njust words\n")

    @pytest.mark.parametrize("text", ["k=1\nk=2\n", "[s]\nk=1\n# c\n k = 2\n",
                                      "[s]\nk=1\nk=1\n"])
    def test_key_repeated_in_one_block_rejected(self, text):
        with pytest.raises(ParameterError, match="key 'k' repeated in one block"):
            parse_sections(text)

    def test_same_key_in_two_blocks_allowed(self):
        assert parse_sections("k=0\n[s]\nk=1\n[s]\nk=2\n") == [
            (None, {"k": "0"}), ("s", {"k": "1"}), ("s", {"k": "2"})]


class TestConvert:
    def test_values_converted_in_record_order(self):
        values = convert({"b": "2", "a": "x"}, {"a": str.upper, "b": int}, "here")
        assert list(values.items()) == [("b", 2), ("a", "X")]

    def test_key_without_parser_names_where_and_key(self):
        with pytest.raises(ParameterError, match="here: unknown key 'c'"):
            convert({"a": "1", "c": "2"}, {"a": int}, "here")

    def test_refused_value_names_where_and_key(self):
        with pytest.raises(ParameterError, match="here: bad value for 'a': .*'x'"):
            convert({"a": "x"}, {"a": int}, "here")

    def test_others_parses_keys_without_parser(self):
        assert convert({"a": "1", "c": "2"}, {"a": int}, "here", others=str) == {
            "a": 1, "c": "2"}


class TestParseKv:
    def test_plain_record(self):
        assert parse_kv("# c\nx=1\ny=two\n") == {"x": "1", "y": "two"}

    def test_section_header_rejected(self):
        with pytest.raises(ParameterError, match=r"unexpected section header \[s\]"):
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


class TestLoadKv:
    REFUSALS = {"k=1\nk=2\n": "line 2: key 'k' repeated", "words\n": "line 1: not a key=value",
                "[s]\n": r"unexpected section header \[s\]"}

    @pytest.mark.parametrize("text", REFUSALS)
    def test_malformed_record_names_the_path(self, tmp_path, text):
        path = tmp_path / "sidecar.meta.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParameterError, match=f"sidecar.meta.txt: {self.REFUSALS[text]}"):
            load_kv(path)

    def test_non_utf8_bytes_name_the_path(self, tmp_path):
        path = tmp_path / "sidecar.meta.txt"
        path.write_bytes(b"direct_index=\xff\n")
        with pytest.raises(ParameterError, match="sidecar.meta.txt: not UTF-8 text"):
            load_kv(path)


CSV_VALUES = st.one_of(st.text(',"\r\n a=\x85\u2028'), st.text(), st.floats(),
                       st.booleans(), st.none())


class TestCsvText:
    @given(st.lists(st.lists(CSV_VALUES, max_size=5)))
    @example([["a,b", 'say "hi"', "\r", "x\ny", float("inf"), None, False]])
    @example([[""], [], ["\r\n"]])
    def test_reader_gives_back_each_rows_kv_str(self, rows):
        text = csv_text(rows)
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            [kv_str(value) for value in row] for row in rows]

    @given(st.lists(st.lists(CSV_VALUES, max_size=5)))
    @example([[""], [], ["\r"], ["a\rb", "c"], ['"'], [","], ["\n", 1.5]])
    def test_bytes_match_the_csv_module(self, rows):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            values = [kv_str(value) for value in row]
            (quoted if any("\r" in value for value in values) else writer).writerow(values)
        assert csv_text(rows) == out.getvalue()

    def test_long_numeric_rows_are_their_values_joined(self):
        rng = np.random.default_rng(5)
        columns = rng.standard_normal((4, 20_000)) * 10.0 ** rng.integers(-12, 12, (4, 20_000))
        columns[0, :3] = (np.inf, -np.inf, np.nan)
        rows = [["t", "a", "b", "c"], *zip(*columns), *zip(range(3), [True, None, 2.5])]
        assert csv_text(rows) == "".join(
            ",".join(kv_str(value) for value in row) + "\n" for row in rows)

    def test_verify_rows_match_the_header(self, tmp_path, capsys):
        room, report = tmp_path / "room.wav", tmp_path / "reports.csv"
        write_rir(synth_rir(0.5, seed=21), room)
        for strategy in ("none", "decayed", "attenuated-decayed"):
            assert main(["verify", str(room), "--strategy", strategy,
                         "--csv", str(report)]) == 0
        capsys.readouterr()
        with open(report, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 3
        assert {len(row) for row in rows} == {len(header)}
