import importlib
import pkgutil

import qvdp


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(qvdp.__path__):
        mod = importlib.import_module(f"qvdp.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
