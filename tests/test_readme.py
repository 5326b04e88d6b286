"""The README's python examples run and print what their comments say."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_examples_print_what_they_say():
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    out = io.StringIO()
    with redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    counts, gap = out.getvalue().splitlines()
    assert counts == "ConfusionCounts(tp=1, fp=0, tn=0, fn=2)"
    assert float(gap) == 2 / 3 - 1 / 2
