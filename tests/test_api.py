import importlib
import subprocess
import sys

import pytest

import idletune
from idletune import errors

# the library modules whose public names the package re-exports; the CLI
# is reached through its own module and the console script
LIBRARY_MODULES = ["model", "ingest", "estimator", "simulate", "sinks"]


@pytest.mark.parametrize("name", [None, *LIBRARY_MODULES, "cli"])
def test_every_exported_name_resolves(name):
    module = idletune if name is None else importlib.import_module(f"idletune.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_top_level_reexports_exactly_the_library_apis():
    exported = {"__version__"}
    for name in LIBRARY_MODULES:
        exported.update(importlib.import_module(f"idletune.{name}").__all__)
    exported.update(
        attr
        for attr, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    )
    assert sorted(idletune.__all__) == sorted(exported)


def test_simulate_names_load_on_first_use():
    # numpy comes in with the first simulate name, not with the package
    probe = (
        "import sys, idletune; before = 'numpy' in sys.modules; "
        "print(before, idletune.simulate_system.__module__, idletune.simulate.__name__, "
        "'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "idletune.simulate", "idletune.simulate", "True"]
