"""The package's public surface and the functions the benchmark wraps."""

import ast
import importlib.util
import sys
from pathlib import Path

import tauberlab as tl
from tauberlab import asymptotics, classical, errors, measures, params, targets, transform

MODULES = (asymptotics, classical, errors, measures, params, targets, transform)


def test_package_exports_the_modules_own_lists():
    assert len(tl.__all__) == len(set(tl.__all__))
    union = set().union(*(m.__all__ for m in MODULES))
    assert set(tl.__all__) == {"__version__"} | union
    for name in tl.__all__:
        assert hasattr(tl, name), name


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    import tauberlab.report  # noqa: F401  (wrapped by the tracer; the package does not import it)

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)

    namespaces = [tl] + [m for n, m in sys.modules.items() if n.startswith("tauberlab.")]
    before = [dict(vars(ns)) for ns in namespaces]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert tl.validate is not before[0]["validate"]
        p = tl.validate(2.0, 0.5, -1.0)
        tl.verify_equivalence(p, tl.PurePower(2.0, 0.5), tl.make_grid(10.0, 1000.0, 8))
    finally:
        tracer.uninstall()
    assert [dict(vars(ns)) for ns in namespaces] == before
    # A verify session must reach the engine through the names the tracer
    # wraps, or the benchmark's per-layer metrics lose their spans.
    names = {rec[tracer_mod.NAME] for rec in tracer.spans}
    assert {"transform.sample_at_psi", "transform.locate_peak"} <= names


def test_params_imports_no_numpy_and_the_deleted_names_stay_gone():
    # params is pure Python floats, so a command that only validates need not
    # load numpy.
    tree = ast.parse(Path(params.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "numpy"], imported
    for name in ("h_eval", "compute_d", "refinement_errors"):
        assert name not in tl.__all__
        assert not any(hasattr(m, name) for m in MODULES), name
