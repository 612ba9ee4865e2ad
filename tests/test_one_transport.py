"""One HTTP transport: only `sgp.navigator` may import `requests`, so the
retry policy, User-Agent, redirect walk and per-host throttle cannot be
bypassed, and a change of HTTP library touches one module."""

import ast
from pathlib import Path

import sgp

SRC = Path(sgp.__file__).parent


def _imports_requests(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "requests" or name.startswith("requests.") for name in names):
            return True
    return False


def test_only_the_navigator_imports_requests():
    importers = sorted(
        path.stem
        for path in SRC.glob("*.py")
        if _imports_requests(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["navigator"]
