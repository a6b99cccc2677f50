"""Every line of the package fits in 120 characters, the width it is written to, with no linter to say so."""
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "filmopt"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_lines_fit_in_120_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, start=1) if len(line) > 120] == []
