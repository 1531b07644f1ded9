import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import qvdp


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(qvdp.__path__):
        mod = importlib.import_module(f"qvdp.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)


def test_numpy_is_the_only_runtime_dependency():
    # every import in the package, function-level ones included, is of the
    # standard library, numpy or qvdp itself; scipy serves only the tests
    tomllib = pytest.importorskip("tomllib")
    src = pathlib.Path(qvdp.__file__).parent
    found = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found - set(sys.stdlib_module_names) - {"qvdp"} == {"numpy"}
    pyproject = tomllib.loads((src.parents[1] / "pyproject.toml").read_text())
    names = [d.split(">")[0].split("=")[0].strip()
             for d in pyproject["project"]["dependencies"]]
    assert names == ["numpy"]


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name a module shares with its siblings is public: none imports an
    # _-prefixed one, whether from a relative or an absolute qvdp import
    src = pathlib.Path(qvdp.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "qvdp"):
                found += [(path.name, a.name) for a in node.names
                          if a.name.startswith("_")]
    assert found == []


# every name the package bound when it imported its submodules eagerly, by
# the submodule that defined it then
_PACKAGE_NAMES = {
    "model": "Params State",
    "equilibria": "EqLabel Equilibrium EquilibriumKind CriticalMus "
                  "critical_mus find_equilibria",
    "bifurcation": "Certificate CertificateKind CyclePrediction HopfData "
                   "MelnikovMethod MelnikovResult PitchforkKind "
                   "PitchforkReduction Region RegionLabel classify_region "
                   "homoclinic_curve hopf_curve hopf_normal_form "
                   "hopf_cycle_prediction melnikov nonexistence_certificate "
                   "pitchfork_reduction torus_frequency_estimate",
    "compactify": "InfinityEquilibrium InfinityLabel disk_project "
                  "field_chart_u field_chart_v infinity_equilibria "
                  "probe_infinity_kind",
    "integrate": "NonFinite NoConvergence SectionEvent "
                 "StepUnderflow Trajectory detect_crossings stroboscopic",
    "detect": "AttractorReport LimitCycle ManifoldEscape RotationEstimate "
              "SeparatrixSplit Verdict classify_forced find_limit_cycle "
              "rotation_number separatrix_split winding_number",
}


def _package_names():
    for module, names in _PACKAGE_NAMES.items():
        mod = importlib.import_module(f"qvdp.{module}")
        for name in names.split():
            yield name, mod


def test_package_names_resolve_to_their_submodule_objects():
    for name, mod in _package_names():
        ns = {}
        exec(f"from qvdp import {name}", ns)
        assert ns[name] is getattr(mod, name), name
        assert getattr(qvdp, name) is getattr(mod, name), name
        assert name in mod.__all__, name
        assert name in dir(qvdp), name


def test_star_import_gives_the_package_names():
    ns = {}
    exec("from qvdp import *", ns)
    del ns["__builtins__"]
    assert ns == {name: getattr(mod, name) for name, mod in _package_names()}


def test_package_names_are_looked_up_on_each_access(monkeypatch):
    # nothing resolved is stored on the package: a function rebound in its
    # submodule (as a tracer does) shows through, and so does its restoration
    from qvdp import detect
    original = detect.find_limit_cycle
    assert qvdp.find_limit_cycle is original
    assert "find_limit_cycle" not in vars(qvdp)
    monkeypatch.setattr(detect, "find_limit_cycle", len)
    assert qvdp.find_limit_cycle is len
    monkeypatch.undo()
    assert qvdp.find_limit_cycle is original
    # the submodule, once imported, is what its name gives
    integrate = importlib.import_module("qvdp.integrate")
    assert qvdp.integrate is integrate


def test_no_exported_name_is_a_submodule_name():
    # importing a submodule binds it on the package under its name, which
    # would hide an exported name it shared
    modules = {info.name for info in pkgutil.iter_modules(qvdp.__path__)}
    assert modules & set(qvdp.__all__) == set()
    integrate = importlib.import_module("qvdp.integrate")
    assert qvdp.integrate is integrate


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        qvdp.nope


def test_benchmark_tracer_names_resolve():
    # the tracer looks its targets up by name only when a traced run
    # installs it; read the tables from its source, so scipy, which it
    # imports, is not loaded here
    src = pathlib.Path(qvdp.__file__).parents[2] / "benchmarks" / "tracing.py"
    tables = {}
    for node in ast.parse(src.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("_SPAN_TARGETS", "_LEAF_TARGETS", "_RHS_FACTORIES"):
                tables[name] = ast.literal_eval(node.value)
    assert sorted(tables) == ["_LEAF_TARGETS", "_RHS_FACTORIES",
                              "_SPAN_TARGETS"]
    targets = [entry[:2] for table in tables.values() for entry in table]
    assert targets
    for mod, attr in targets:
        assert callable(getattr(importlib.import_module(mod), attr, None)), \
            (mod, attr)
