"""One HTTP transport: only `sgp.navigator` may import `requests`, so the
retry policy, User-Agent, redirect walk and per-host throttle cannot be
bypassed, and a change of HTTP library touches one module. The
benchmark's tracer wraps that transport by name, so it must still fit."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sgp
from sgp import cli
from sgp.navigator import SignpostClient

SRC = Path(sgp.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_the_fixtures_and_parsers_load_without_requests():
    # the fixture server and the stand-in import these; the HTTP library
    # loads only with the navigator
    code = (
        "import sys\n"
        "import sgp.fixtures, sgp.resourcesync, sgp.bibliography, sgp.crossref\n"
        "assert 'requests' not in sys.modules\n"
        "import sgp.navigator\n"
        "assert 'requests' in sys.modules\n"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_tracer_installs():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    head_links, run = SignpostClient.head_links, cli.run
    tracer = tracing.Tracer()
    try:
        tracer.install()
        # (owner, attribute, original) for every name the tracer replaced
        wrapped = list(tracer._undo)
        assert SignpostClient.head_links is not head_links
        assert cli.run is not run
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert SignpostClient.head_links is head_links
    assert cli.run is run
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
