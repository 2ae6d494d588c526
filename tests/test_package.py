import ast
import importlib
import re
from pathlib import Path

import dmtrack
from dmtrack.harness import SCHEMA

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dmtrack"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def test_every_export_resolves_and_star_import_succeeds():
    """A stale name in __all__ fails here rather than at a user's import."""
    assert len(set(dmtrack.__all__)) == len(dmtrack.__all__)
    missing = [name for name in dmtrack.__all__ if not hasattr(dmtrack, name)]
    assert not missing
    namespace = {}
    exec("from dmtrack import *", namespace)
    assert set(dmtrack.__all__) <= set(namespace)


def documentation():
    """(where, text) of README.md and of every docstring in the package."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', '<module>')}", doc


def test_every_module_name_mention_resolves():
    """Every `module.name` that README.md or a docstring mentions exists, so a
    removed name cannot linger in the docs. Config keys (noise.q) and file
    names (engine.py) are not such mentions."""
    pattern = re.compile(r"\b(%s)\.(\w+)" % "|".join(MODULES))
    checked, missing = 0, []
    for where, text in documentation():
        for mention in pattern.finditer(text):
            module, name = mention.groups()
            if mention.group(0) in SCHEMA or name == "py":
                continue
            checked += 1
            if not hasattr(importlib.import_module(f"dmtrack.{module}"), name):
                missing.append(f"{where}: {mention.group(0)}")
    assert checked and not missing
