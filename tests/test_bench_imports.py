"""Every name the benchmark and the examples import from ``repro`` exists.

Tier-1 collects only ``tests/``, so without this check a deleted or
renamed name that a ``bench/*.py`` module imports would fail only the
benchmark.  Imports inside functions count too: ``bench/workloads.py``
imports most of what it drives lazily.  The same holds for
``examples/*.py``: ``tests/test_examples.py`` skips running
``erasure_coding.py``, so only this check sees its imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imports_repro(node):
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] if node.level == 0 else []
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return False
    return any(name == "repro" or name.startswith("repro.") for name in names)


def _resolve_repro_imports(directory):
    """Run every ``repro`` import statement of ``directory/*.py``;
    returns how many ran and the ones that raised ImportError."""
    checked = 0
    unresolved = []
    for path in sorted((ROOT / directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not _imports_repro(node):
                continue
            checked += 1
            statement = ast.Module(body=[node], type_ignores=[])
            try:
                exec(compile(statement, str(path), "exec"), {})
            except ImportError as exc:
                unresolved.append(f"{directory}/{path.name}:{node.lineno}: {exc}")
    return checked, unresolved


def test_every_repro_name_the_bench_imports_resolves():
    checked, unresolved = _resolve_repro_imports("bench")
    assert checked > 0
    assert unresolved == []


def test_every_repro_name_the_examples_import_resolves():
    checked, unresolved = _resolve_repro_imports("examples")
    assert checked > 0
    assert unresolved == []
