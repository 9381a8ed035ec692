"""Line-oriented key=value records.

One record is a block of ``key=value`` lines. Blank lines and lines
starting with ``#`` are ignored. A ``[name]`` line starts a new named
record, so one text can hold several; the lines before the first header
form an unnamed record. Manifests use sections; RIR metadata sidecars,
verification reports, dataset metadata and summary files and the CLI
config file are a single record without headers.
"""

from __future__ import annotations

from .errors import KvFormatError

# every character str.splitlines() breaks on, escaped as in a Python literal
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def kv_str(value) -> str:
    """Render a value for a key=value line (deterministic across runs)."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def dump_kv(record: dict) -> str:
    """One ``key=value`` line per item; line breaks inside are escaped."""
    lines = [f"{key}={kv_str(value)}".translate(_LINE_BREAKS)
             for key, value in record.items()]
    return "\n".join(lines) + "\n"


def parse_sections(text: str) -> list[tuple[str | None, dict[str, str]]]:
    """Split a text into ``(name, record)`` pairs in file order.

    The first pair is the unnamed record before any header (empty when
    the text starts with one).
    """
    current: dict[str, str] = {}
    sections: list[tuple[str | None, dict[str, str]]] = [(None, current)]
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections.append((line[1:-1].strip(), current))
        elif "=" in line:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
        else:
            raise KvFormatError(f"not a key=value line: {line!r}")
    return sections


def parse_kv(text: str) -> dict[str, str]:
    """Parse a single record; a ``[section]`` header is an error."""
    (_, record), *named = parse_sections(text)
    if named:
        raise KvFormatError(f"unexpected section header [{named[0][0]}]")
    return record


def load_kv(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv(fh.read())


def save_kv(record: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_kv(record))
