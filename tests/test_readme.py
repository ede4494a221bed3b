"""The README's Python examples run as written."""

import re
from pathlib import Path

from eur.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}  # later blocks use the imports of earlier ones
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_quotes_the_fig2_row_at_a_0(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["sweep", "--preset", "fig2", "--steps", "2", "--out", str(out)]) == 0
    row = out.read_text(encoding="utf-8").splitlines()[1]
    assert f"`{row}`" in README.read_text(encoding="utf-8")
