"""One home and one meaning for every byte-scale name.

``repro.units`` binds the decimal ``KB``/``MB``/``GB``/``TB`` and the
binary ``KiB``/``MiB``/``GiB``/``TiB``.  Any other module that needs a
scale imports it from there under its own name, so ``MB`` is 10**6
wherever it appears and a size printed as "MB" was divided by 10**6.
The guard parses every Python file of the source, test, example and
script trees; ``bench/`` keeps its own ``KiB``/``MiB`` for now.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "examples", "scripts")
HOME = "repro.units"
HOME_FILE = "src/repro/units.py"
SCALE_NAMES = frozenset({"KB", "MB", "GB", "TB", "KiB", "MiB", "GiB", "TiB"})


def _module_level(node: ast.AST) -> Iterator[ast.AST]:
    """Every node below ``node`` outside function and class bodies."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            yield from _module_level(child)


def scale_name_violations(source: str) -> List[str]:
    """``line: what`` for each scale name bound or imported outside its home."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name in SCALE_NAMES and node.module != HOME:
                    found.append(f"{node.lineno}: imports {alias.name} from {node.module}")
                elif bound in SCALE_NAMES and bound != alias.name:
                    found.append(f"{node.lineno}: binds {bound} to {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname in SCALE_NAMES:
                    found.append(f"{node.lineno}: binds {alias.asname} to {alias.name}")
    for node in _module_level(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in SCALE_NAMES:
                found.append(f"{node.lineno}: assigns {node.id}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in SCALE_NAMES:
                found.append(f"{node.lineno}: defines {node.name}")
    return found


def test_only_repro_units_binds_a_byte_scale():
    sources = sorted(p for tree in TREES for p in (REPO_ROOT / tree).rglob("*.py"))
    assert any(p.relative_to(REPO_ROOT).as_posix() == HOME_FILE for p in sources)
    found = [
        f"{path.relative_to(REPO_ROOT).as_posix()}:{violation}"
        for path in sources
        if path.relative_to(REPO_ROOT).as_posix() != HOME_FILE
        for violation in scale_name_violations(path.read_text(encoding="utf-8"))
    ]
    assert not found, "byte-scale names bound outside repro.units:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source",
    [
        "MB = 1024 * 1024\n",
        "GiB: int = 1 << 30\n",
        "if True:\n    TB = 10**12\n",
        "KB, MB = 1024, 1024 * 1024\n",
        "from repro.workload.specs import KB\n",
        "def f():\n    from repro.workload import MB\n",
        "from repro.units import MiB as MB\n",
        "import math as GB\n",
        "class KiB:\n    pass\n",
    ],
)
def test_guard_flags_a_second_home(source):
    assert scale_name_violations(source)


@pytest.mark.parametrize(
    "source",
    [
        "from repro.units import KB, MB, GB, TB, KiB, MiB, GiB, TiB\n",
        "def f():\n    from repro.units import MB\n    return 4 * MB\n",
        'LABEL = "4MB-S-R"\nSIZE = 4 * 1024 * 1024\n',
    ],
)
def test_guard_accepts_repro_units_imports(source):
    assert scale_name_violations(source) == []


@pytest.mark.parametrize(
    "statement",
    [
        "from repro.workload import KB",
        "from repro.workload import MB",
        "from repro.workload.specs import KB",
        "from repro.workload.specs import MB",
    ],
)
def test_workload_package_exports_no_byte_scale(statement):
    with pytest.raises(ImportError):
        exec(statement, {})
