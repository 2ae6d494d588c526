import ast
import importlib
import re
from pathlib import Path

from dmtrack.harness import SCHEMA

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dmtrack"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def documentation():
    """(where, text) of README.md and of every docstring in the package."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', '<module>')}", doc


def resolves(module, name):
    """Whether dmtrack.<module> has `name`; for module None, whether dmtrack.<name>
    is a submodule or one of the package's own attributes (`__version__`)."""
    if module is None:
        return name in MODULES or hasattr(importlib.import_module("dmtrack"), name)
    return hasattr(importlib.import_module(f"dmtrack.{module}"), name)


def test_every_module_name_mention_resolves():
    """Every `module.name` and `dmtrack.name` that README.md or a docstring
    mentions exists, so a removed name cannot linger in the docs. The package
    re-exports nothing, so `dmtrack.name` must be a submodule or `__version__`.
    Config keys (noise.q) and file names (engine.py) are not such mentions."""
    patterns = [
        re.compile(r"\b(%s)\.(\w+)" % "|".join(MODULES)),
        re.compile(r"\bdmtrack\.(\w+)"),
    ]
    checked, missing = 0, []
    for where, text in documentation():
        for pattern in patterns:
            for mention in pattern.finditer(text):
                module, name = mention.groups() if pattern.groups == 2 else (None, mention[1])
                if mention.group(0) in SCHEMA or name == "py":
                    continue
                checked += 1
                if not resolves(module, name):
                    missing.append(f"{where}: {mention.group(0)}")
    assert checked and not missing
