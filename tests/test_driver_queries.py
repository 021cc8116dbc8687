"""Every driver query runs on sf0.001.  Oracle-bearing queries must equal
their DuckDB oracle exactly (rows, columns, order-insensitive values);
the self-checking ones, which have no SQL twin, must return rows.  This
is ``scripts/check_oracle.py``'s sweep, one test per query, so a query
broken at run time (not only at import) fails tier-1."""
import importlib.util
from pathlib import Path

import pytest

SF = "/root/testdata/sf0.001"

_spec = importlib.util.spec_from_file_location(
    "check_oracle",
    Path(__file__).resolve().parent.parent / "scripts" / "check_oracle.py",
)
check_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_oracle)  # puts the repo root on sys.path

import __ray_entry__ as entry  # noqa: E402

QUERIES = entry.queries()
ORACLES = entry.oracle_sql()


@pytest.fixture(scope="module")
def duck():
    con = check_oracle.connect(SF)
    yield con
    con.close()


def _run(name):
    return check_oracle.canon(check_oracle.to_pandas(QUERIES[name](SF)))


@pytest.mark.parametrize("name", [q for q in QUERIES if q in ORACLES])
def test_query_matches_oracle(name, duck):
    mine = _run(name)
    theirs = check_oracle.canon(duck.execute(ORACLES[name]).fetchdf())
    why = check_oracle.mismatch(mine, theirs)
    assert why is None, (name, why)


@pytest.mark.parametrize("name", [q for q in QUERIES if q not in ORACLES])
def test_self_checking_query_returns_rows(name):
    out = _run(name)
    assert len(out) > 0 and len(out.columns) > 0, name
