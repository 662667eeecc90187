"""Source hygiene: no unused import, no definition that nothing names.

No linter runs on the build box or in CI, so this stdlib ``ast`` scan
keeps the two kinds of dead code that simplifications leave behind:

* an import that its module never uses, in ``src/``, ``tests/``,
  ``benchmarks/`` and ``examples/``.  ``# noqa: F401`` on the import line
  exempts an availability probe, and a name listed in the module's
  ``__all__`` counts as used (a package re-export);
* a function, class or method in ``src/`` whose name appears nowhere else
  in ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or
  ``perfbench/`` — in code, a string or a comment.  Dunder methods are
  exempt: the language calls them.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections import Counter
from typing import Iterator, List, Sequence, Set

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: directories whose imports must all be used
IMPORT_DIRS = ("src", "tests", "benchmarks", "examples")

#: directories where a ``src/`` definition may be named
REFERENCE_DIRS = IMPORT_DIRS + ("perfbench",)

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NOQA = re.compile(r"#\s*noqa:.*\bF401\b")


def _python_files(dirs: Sequence[str]) -> Iterator[pathlib.Path]:
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            rel = path.relative_to(ROOT)
            if not any(part.startswith(".") for part in rel.parts):
                yield path


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names inside string annotations (``"Path | None"``)."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _used_names(tree: ast.AST) -> Set[str]:
    """Every name the module loads, plus its ``__all__`` entries."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if ann is not None:
                used |= _annotation_names(ann)
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target]
            if isinstance(node, ast.AugAssign)
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return used


def _unused_imports(source: str, where: str) -> List[str]:
    """``where:line name`` of every import ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            if bound in used or _NOQA.search(lines[line - 1]):
                continue
            out.append(f"{where}:{line} {bound}")
    return out


def test_no_unused_imports():
    unused = [
        entry
        for path in _python_files(IMPORT_DIRS)
        for entry in _unused_imports(
            path.read_text(), str(path.relative_to(ROOT))
        )
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_unreferenced_definitions():
    words: Counter = Counter()
    for path in _python_files(REFERENCE_DIRS):
        words.update(_WORD.findall(path.read_text()))
    orphans = []
    for path in _python_files(("src",)):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # the definition itself is one occurrence of the name
            if words[name] < 2:
                orphans.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not orphans, "defined but never named:\n" + "\n".join(orphans)


def test_scan_finds_what_it_should():
    """The scan flags unused imports and honours its two exemptions."""
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "import re  # noqa: E501\n"
        "from typing import List, Set\n"
        "from pathlib import Path\n"
        "__all__ = ['Set']\n"
        "def f(x: 'Path') -> None:\n"
        "    return None\n"
    )
    assert _unused_imports(source, "demo") == [
        "demo:1 os",
        "demo:3 re",
        "demo:4 List",
    ]
