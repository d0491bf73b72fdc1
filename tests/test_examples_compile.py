"""Sanity checks for the example scripts.

The examples are exercised end-to-end by humans; here we keep them from
rotting: each must compile, carry a main() entry point and a docstring,
and import only the standard library and names that ``repro`` still has.
"""

import ast
import importlib
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
class TestExamples:
    def test_compiles(self, path):
        compile(path.read_text(), str(path), "exec")

    def test_has_docstring_and_main(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"
        function_names = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "main" in function_names

    def test_has_run_instructions(self, path):
        assert f"python examples/{path.name}" in path.read_text()

    def test_imports_only_repro_and_stdlib(self, path):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                root = module.split(".")[0]
                assert root in ("repro",) or root in _STDLIB, (
                    f"{path.name} imports unexpected module {module}"
                )
                if root != "repro":
                    continue
                # Raises if the module is gone.
                imported = importlib.import_module(module)
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        assert _resolves(imported, alias.name), (
                            f"{path.name}: {module} has no {alias.name}"
                        )


def _resolves(module, name):
    """True when ``from module import name`` would succeed."""
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return False
    return True


_STDLIB = {"argparse", "sys", "os", "time", "math", "json", "io", "struct"}


def test_at_least_six_examples_exist():
    assert len(EXAMPLE_FILES) >= 6
