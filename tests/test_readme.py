"""The README's library tour runs as written, with every warning an error, and
its table of problem-file fields is ``cli.FIELDS``."""

import re
import warnings
from pathlib import Path

from symbidisk.cli import FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_without_warnings():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md library tour", "exec"), {})


def test_field_table_is_cli_fields():
    # each row of the README's field table names the fields of its row of cli.FIELDS
    text = README.read_text(encoding="utf-8")
    table = text.split("| object | required fields | optional fields |\n", 1)[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[1:]:
        name, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        # a cell lists `field` or `field` (default), comma-separated
        rows[name.replace("`", "")] = tuple(
            tuple(item.split()[0].strip("`") for item in cell.split(", ") if item) for cell in cells
        )
    assert rows == FIELDS
