"""Every kernel the benchmark tracer hooks still exists where it looks.

``perfbench/tracing.py`` skips a hook whose (module, attribute path) no
longer resolves, so a moved or renamed kernel would silently read as an
unused route, its per-layer metric zero.  This test reads the tracer's
``HOOKS`` table as it stands and resolves every entry.
"""

import importlib
import importlib.util
import operator
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _hooks(monkeypatch):
    # tracing.py imports its sibling ``workloads`` as a top-level module.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


def test_every_hook_resolves(monkeypatch):
    hooks = _hooks(monkeypatch)
    assert hooks
    for module, path, span, _ in hooks:
        owner = importlib.import_module(module)
        try:
            operator.attrgetter(path)(owner)
        except AttributeError:
            pytest.fail(f"hook {span!r}: {module}.{path} does not resolve")
