"""Layout rules of the package source."""

import pathlib

import fracsing

MAX_COLUMNS = 88


def test_source_lines_fit_88_columns():
    src = pathlib.Path(fracsing.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long_lines == []
