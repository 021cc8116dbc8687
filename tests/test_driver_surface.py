"""The driver surface in __ray_entry__.py resolves without a Ray session:
every ``from kgray... import X`` it makes (function-level imports
included) names a real attribute, and every oracle belongs to a query.
A query or oracle alias left pointing at deleted code otherwise shows up
only at driver time, as an ImportError or a KeyError."""
import ast
import importlib
from pathlib import Path

import pytest

ENTRY = Path(__file__).resolve().parent.parent / "__ray_entry__.py"


@pytest.fixture(scope="module", autouse=True)
def ray_session():
    # overrides the conftest session fixture: nothing here needs Ray
    yield


def _importable(module: str) -> bool:
    try:
        importlib.import_module(module)
        return True
    except ImportError:
        return False


def test_driver_imports_and_oracles_resolve():
    tree = ast.parse(ENTRY.read_text())
    imports = [
        (n.module, a.name)
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom)
        and (n.module or "").split(".")[0] == "kgray"
        for a in n.names
    ]
    assert imports
    unresolved = []
    for module, name in imports:
        mod = importlib.import_module(module) if _importable(module) else None
        # ``from pkg import sub`` falls back to the submodule, as Python does
        if not (hasattr(mod, name) or _importable(f"{module}.{name}")):
            unresolved.append(f"{module}.{name}")
    assert not unresolved, unresolved

    import __ray_entry__ as entry

    oracles = entry.oracle_sql()
    queries = entry.queries()
    assert set(oracles) <= set(queries), sorted(set(oracles) - set(queries))
    # the driver's correctness window (first 50 entries) is all
    # oracle-bearing
    assert all(k in oracles for k in list(queries)[:50])
