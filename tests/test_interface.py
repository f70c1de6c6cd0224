import ast
import importlib
import importlib.util
from pathlib import Path

import lpsections

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


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


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports and never reads; `__all__` entries count as
    reads (re-exports)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_import_is_used():
    # the only exception is a name the span tracer rebinds in a module
    # that does not call it itself
    rebound = {(mod, attr) for group in _load_layers().HOOKS.values() for mod, attr in group}
    unused = [f"{path.stem}.{name}" for path in sorted(Path(lpsections.__file__).parent.glob("*.py"))
              for name in sorted(_unused_imports(path)) if (path.stem, name) not in rebound]
    assert unused == []
