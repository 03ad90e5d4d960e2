"""The benchmark's tracer still finds what it spans.

``bench/tracer.py`` rebinds library functions by module and name, and binds
``gram_growth``'s ``tol`` by name.  A refactor that renames or drops one of
them breaks the benchmark's traced runs, not the library, so this test loads
the tracer by path (``bench/`` is not a package), installs it around one exact
``report`` and one ``moments`` and checks its bindings and counters.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import cuntzlab.linalg as linalg
from cuntzlab.cli import run

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SPEC = ROOT / "tests" / "golden" / "specs" / "prefix_code.json"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    bound = [(mod, name) for mod, name, _ in tracer.SPANNED] + list(tracer.CONSTRUCTORS)
    for mod, name in bound:
        assert callable(getattr(importlib.import_module(f"cuntzlab.{mod}"), name)), f"{mod}.{name}"


def test_traced_exact_report_counts_the_growth_and_the_gate(monkeypatch, capsys):
    tracer = _load_tracer(monkeypatch).Tracer()
    psd_check = linalg.hermitian_psd_check
    tracer.install()
    try:
        assert run(["report", str(SPEC), "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert linalg.hermitian_psd_check is psd_check
    assert tracer.totals()["classify.gram_growth_calls"] > 0
    assert tracer.calls["linalg.psd_check"] > 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "prefix_code.json").read_text(encoding="utf-8")


def test_traced_moments_counts_the_public_moment_calls(monkeypatch, capsys):
    # the tracer's counted_moment reads the state's _memo around every public
    # moment(); ``moments`` is the command that calls it
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        assert run(["moments", str(SPEC), "--level", "3", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.totals()["moments.moment_calls"] > 0
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "prefix_code.moments.json").read_text(
        encoding="utf-8")
