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
