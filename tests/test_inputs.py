"""The one input reader: line ends, byte-order marks and blank lines."""

from __future__ import annotations

import pytest

from entroduction.inputs import read_lines


class Unreadable(Exception):
    pass


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_lines_end_only_at_newlines(tmp_path, end):
    path = tmp_path / "input.txt"
    path.write_bytes(("\ufeffa\u2028b" + end + end + "  c \x0c" + end).encode("utf-8"))
    assert read_lines(path, Unreadable, "input") == [(1, "a\u2028b"), (3, "c")]
