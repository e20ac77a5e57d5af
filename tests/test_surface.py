"""The package's public surface and the functions the benchmark wraps."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import tauberlab as tl
from tauberlab import asymptotics, classical, errors, index, measures, params, targets, transform

MODULES = (asymptotics, classical, errors, index, measures, params, targets, transform)


def test_package_exports_the_modules_own_lists():
    assert len(tl.__all__) == len(set(tl.__all__))
    union = set().union(*(m.__all__ for m in MODULES))
    assert set(tl.__all__) == {"__version__"} | union
    for name in tl.__all__:
        assert hasattr(tl, name), name


def test_an_unknown_name_is_an_attribute_error_that_names_the_package():
    with pytest.raises(AttributeError, match="module 'tauberlab' has no attribute 'no_such_name'"):
        tl.no_such_name


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


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    return {name.split(".")[0] for name in imported}


def test_params_imports_no_numpy_and_the_deleted_names_stay_gone():
    # params is pure Python floats, so a command that only validates need not
    # load numpy.
    assert "numpy" not in _imported_packages(Path(params.__file__))
    for name in ("h_eval", "compute_d", "refinement_errors"):
        assert name not in tl.__all__
        assert not any(hasattr(m, name) for m in MODULES), name


def test_no_module_imports_dataclasses():
    # The records are NamedTuples and slotted classes: a cold command builds
    # no dataclass.
    sources = sorted(Path(tl.__file__).parent.glob("*.py"))
    assert len(sources) > len(MODULES)
    for path in sources:
        assert "dataclasses" not in _imported_packages(path), path.name


def _private_reaches(path: Path, siblings: set[str]) -> set[str]:
    """Each ``module._name`` that a source file takes from a sibling module,
    by ``from .module import _name`` or by ``module._name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reaches = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reaches |= {f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in siblings and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            reaches.add(f"{node.value.id}.{node.attr}")
    return reaches


def test_the_private_names_taken_across_modules_are_the_listed_ones():
    # A module that takes a private name from a sibling shares its rule with
    # it; a new reach is a decision, and needs an edit of this list.
    expected = {
        "transform": {"measures._log_integral", "params._x_peak"},
        "asymptotics": {"errors._checked", "measures._geometric_grid", "transform._predictions"},
        "classical": {"errors._checked"},
        "targets": {"errors._checked"},
        "cli": {"measures._load_pairs"},
    }
    sources = sorted(Path(tl.__file__).parent.glob("*.py"))
    siblings = {path.stem for path in sources}
    found = {path.stem: _private_reaches(path, siblings) for path in sources}
    assert {name: reaches for name, reaches in found.items() if reaches} == expected


def _classes(path: Path):
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)]


def _body_names(cls: ast.ClassDef) -> set[str]:
    """The names a class body defines or assigns."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_the_construction_rule_of_a_checked_record_is_written_once():
    # errors._checked builds every checked record: no class writes its own
    # _make, and no record keeps a twin class of its fields, except EvalGrid,
    # which converts its input before the checks.
    sources = sorted(Path(tl.__file__).parent.glob("*.py"))
    checked = []
    for path in sources:
        for cls in _classes(path):
            assert "_make" not in _body_names(cls), f"{path.name}: {cls.name}"
            if cls.name.startswith("_") and cls.name.endswith("Fields"):
                assert cls.name == "_EvalGridFields", f"{path.name}: {cls.name}"
            if any(isinstance(d, ast.Name) and d.id == "_checked" for d in cls.decorator_list):
                checked.append(cls.name)
                assert "_check" in _body_names(cls), f"{path.name}: {cls.name}"
    assert sorted(checked) == sorted(
        ["Kohlbecker", "DeBruijn", "Kasahara", "PerturbedPower", "MeasureTarget", "EvalGrid"])


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)}


def _calls(node: ast.AST) -> set[str]:
    return {call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def test_the_panel_convention_and_the_bracket_are_written_once():
    # measures._left_edges alone slices the held locations into panel edges,
    # and the Kohlbecker and Kasahara brackets differ only in the arguments
    # they pass to the one bracket body.
    functions = _functions(Path(measures.__file__))
    slicing = {name for name, fn in functions.items() for node in ast.walk(fn)
               if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
               and node.value.attr == "_x" and isinstance(node.slice, ast.Slice)}
    assert slicing == {"_left_edges"}
    assert "_left_edges" in _calls(functions["_panel_bracket"])
    assert "_left_edges" in _calls(functions["kasahara_via_parts"])
    for name in ("kohlbecker_panel_bracket", "kasahara_panel_bracket"):
        body = functions[name].body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        assert len(body) == 1 and isinstance(body[0], ast.Return), name
        call = body[0].value
        assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), name
        assert call.func.id == "_panel_bracket", name


TESTS = Path(__file__).resolve().parent


def test_a_refinement_step_is_one_buffer():
    # _trapezoid_rows lays a block's fine rows in one buffer and sums the
    # coarse level off its odd slots: no separate summing pass, no second
    # region of coarse rows and no doubled row fields.
    functions = _functions(Path(transform.__file__))
    assert "_log_trapezoid" not in functions
    called = [node.func.attr for node in ast.walk(functions["_trapezoid_rows"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    assert called.count("empty") == 1 and "concatenate" not in called


def _test_sources():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(TESTS.rglob("*.py"))}


def test_the_exact_oracles_have_one_home():
    # exact.py alone writes the closed forms (the Bessel K_1 of b = -1) and
    # the transform's quadrature.  The one other quadrature checks the
    # closed form of a measure enclosure, not the transform.
    calls = set()
    for name, tree in _test_sources().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(
                        func, "id", None)
                    if called in ("besselk", "quad"):
                        calls.add((name, getattr(top, "name", None), called))
    assert calls == {
        ("exact.py", "log_f_closed", "besselk"),
        ("exact.py", "log_f_quad", "quad"),
        ("test_measures.py", "test_the_closed_form_of_the_kohlbecker_enclosure_is_the_integral",
         "quad"),
    }


def test_no_test_sets_the_global_mpmath_precision_or_gives_an_oracle_a_samples_s():
    # Precision is set with mp.workdps; an oracle takes psi, so that it can
    # see an error in the engine's psi -> s map.
    for name, tree in _test_sources().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assert not any(isinstance(t, ast.Attribute) and t.attr in ("dps", "prec")
                               for t in targets), f"{name}:{node.lineno}"
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "exact"):
                assert not any(isinstance(arg, ast.Attribute) and arg.attr == "s"
                               for arg in ast.walk(node)), f"{name}:{node.lineno}"
