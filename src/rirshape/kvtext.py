"""Line-oriented key=value records, and the one rule that types their values.

One record is a block of ``key=value`` lines. Blank lines and lines
starting with ``#`` are ignored; a key given twice in one block is an
error. A ``[name]`` line starts a new named record, so one text can hold
several; the lines before the first header form an unnamed record.
Manifests use sections; RIR metadata sidecars, verification reports,
dataset metadata and summary files and the CLI config file are a single
record without headers. Every reader types its values with ``convert``.
CSV records, written by ``csv_text``, render their values the same way.
"""

from __future__ import annotations

import csv
import io
import re

from .errors import ParameterError

# every character str.splitlines() breaks on, escaped as in a Python literal
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
# a value holding one of these, or a comma, makes ``csv_text`` call ``csv``
_QUOTED = re.compile('["\\n\\r]')


def kv_str(value) -> str:
    """Render a value for a key=value line (deterministic across runs)."""
    if isinstance(value, float):  # first: the common case in CSV rows
        return format(value, ".9g")
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def dump_kv(record: dict) -> str:
    """One ``key=value`` line per item; line breaks inside are escaped."""
    lines = [f"{key}={kv_str(value)}".translate(_LINE_BREAKS)
             for key, value in record.items()]
    return "\n".join(lines) + "\n"


def csv_text(rows) -> str:
    """One ``\\n``-terminated CSV record per row, each value rendered by ``kv_str``.

    A row is its values joined by commas, which is what ``csv`` writes
    when no value holds a comma, quote or line break (and the row is not
    one empty value); any other row goes through ``csv``. ``csv`` leaves a
    bare ``\\r`` unquoted, yet readers end a row there, so a row holding
    one has every field quoted.
    """
    lines = []
    for row in rows:
        values = [kv_str(value) for value in row]
        line = ",".join(values)
        if line.count(",") >= len(values) or _QUOTED.search(line) or values == [""]:
            out = io.StringIO()
            quoting = csv.QUOTE_ALL if "\r" in line else csv.QUOTE_MINIMAL
            csv.writer(out, lineterminator="\n", quoting=quoting).writerow(values)
            line = out.getvalue()[:-1]
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


def parse_sections(text: str) -> list[tuple[str | None, dict[str, str]]]:
    """Split a text into ``(name, record)`` pairs in file order.

    The first pair is the unnamed record before any header (empty when
    the text starts with one).
    """
    current: dict[str, str] = {}
    sections: list[tuple[str | None, dict[str, str]]] = [(None, current)]
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections.append((line[1:-1].strip(), current))
        elif "=" in line:
            key, _, value = (part.strip() for part in line.partition("="))
            if key in current:
                raise ParameterError(f"line {number}: key {key!r} repeated in one block")
            current[key] = value
        else:
            raise ParameterError(f"line {number}: not a key=value line: {line!r}")
    return sections


def parse_kv(text: str) -> dict[str, str]:
    """Parse a single record; a ``[section]`` header is an error."""
    (_, record), *named = parse_sections(text)
    if named:
        raise ParameterError(f"unexpected section header [{named[0][0]}]")
    return record


def convert(record: dict[str, str], parsers: dict, where: str, others=None) -> dict:
    """Each value of ``record``, in order, converted by its key's parser or else ``others``.

    A key with neither, or a value its parser refuses with ValueError, is a
    ParameterError naming ``where`` and the key.
    """
    values = {}
    for key, raw in record.items():
        parser = parsers.get(key, others)
        if parser is None:
            raise ParameterError(f"{where}: unknown key {key!r}")
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ParameterError(f"{where}: bad value for {key!r}: {exc}") from None
    return values


def read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 raise ParameterError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc})") from None


def sidecar_path(path) -> str:  # the record that describes the file at ``path``
    return f"{path}.meta.txt"


def load_kv(path) -> dict[str, str]:
    text = read_text(path)
    try:
        return parse_kv(text)
    except ParameterError as exc:  # name the file, as read_text does
        raise ParameterError(f"{path}: {exc}") from None


def save_kv(record: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_kv(record))
