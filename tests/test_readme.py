import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["solution"].timeout_s == 86.95746775431698
