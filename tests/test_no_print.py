"""Diagnostics go through :mod:`logging`: only the CLI prints."""

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent


def _print_calls(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_no_module_but_the_cli_calls_print():
    modules = [path for path in sorted(SOURCE.rglob("*.py"))
               if path != SOURCE / "cli.py"]
    assert len(modules) > 50  # the whole package was scanned
    offenders = {str(path.relative_to(SOURCE)): lines
                 for path in modules if (lines := _print_calls(path))}
    assert offenders == {}
