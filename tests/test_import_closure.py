"""Importing the KG path loads no corpus-statistics, graph-analytics or
media module.  Every Ray worker that unpickles a KG stage imports
``kgray``, so whatever the package ``__init__`` re-exports is paid per
worker process."""
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

OUTSIDE_KG = [
    "kgray.stages.corpus_stats",
    "kgray.stages.pack",
    "kgray.stages.filters",
    "kgray.stages.text_analysis",
    "kgray.stages.scrub",
    "kgray.stages.graph_algos",
    "kgray.stages.multimodal",
    "kgray.sources.minimedia",
    "kgray.sources.minijpeg",
]


@pytest.fixture(scope="module", autouse=True)
def ray_session():
    # overrides the conftest session fixture: nothing here needs Ray
    yield


def test_kg_imports_load_no_module_outside_the_kg_path():
    code = (
        "import sys\n"
        "import kgray.pipelines.kg, kgray.pipelines.checkpoint, kgray.cli\n"
        "print('\\n'.join(sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True,
        text=True, check=True,
    ).stdout.split()
    assert "kgray.pipelines.kg" in out
    assert not set(OUTSIDE_KG) & set(out), sorted(set(OUTSIDE_KG) & set(out))
