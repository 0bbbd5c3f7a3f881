"""Every example script runs to completion through its ``main()``."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: erasure_coding spends about 37 s on pure-Python Reed-Solomon over
#: 8 MiB; tests/test_erasure_coding.py covers the code it drives.
SLOW = {"erasure_coding"}


@pytest.mark.parametrize(
    "script",
    [path for path in sorted(EXAMPLES.glob("*.py")) if path.stem not in SLOW],
    ids=lambda path: path.stem,
)
def test_example_runs(script, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
