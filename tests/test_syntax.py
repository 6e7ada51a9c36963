import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_the_oldest_supported_python(path):
    # pyproject.toml promises 3.10.  This checks syntax only: a name or a
    # library call that 3.10 lacks still passes.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
