import importlib
import importlib.util
from pathlib import Path

import lpsections

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_hook_sites_and_exports_resolve():
    # the benchmark's span tracer rebinds these (module, attr) sites by
    # name, and `from lpsections import *` reads __all__: deleting one of
    # these names breaks the trace or the star import
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    sites = [site for group in layers.HOOKS.values() for site in group]
    assert sites
    missing = [f"{mod}.{attr}" for mod, attr in sites
               if not hasattr(importlib.import_module(f"lpsections.{mod}"), attr)]
    assert missing == []
    assert [name for name in lpsections.__all__ if not hasattr(lpsections, name)] == []
