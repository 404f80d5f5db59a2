"""The README's library tour runs as written, with every warning an error."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_without_warnings():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md library tour", "exec"), {})
