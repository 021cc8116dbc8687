"""kgray — Ray-Data-native knowledge-graph construction engine.

Public API surface (mirrors the reference's exports, tKG/__init__.py:1-13,
re-expressed for Dataset pipelines).  Only the KG path is re-exported, so
``import kgray.<anything>`` (every Ray worker that unpickles a KG stage
does one) loads no corpus-statistics or graph-analytics module.
"""
from .pipelines.kg import (  # noqa: F401
    KGConfig,
    KGResult,
    run_extractions,
    run_graph_stages,
    run_kg_pipeline,
)
from .pipelines.checkpoint import (  # noqa: F401
    checkpoint_summary,
    run_checkpointed_extractions,
)
from .functions.bel import (  # noqa: F401
    annotation_url,
    split_statement,
    term_label,
    term_type,
)
from .functions.prompts import load_prompt  # noqa: F401
from .corpus import generate_documents, write_corpus  # noqa: F401

__all__ = [
    "KGConfig",
    "KGResult",
    "run_extractions",
    "run_graph_stages",
    "run_kg_pipeline",
    "run_checkpointed_extractions",
    "checkpoint_summary",
    "split_statement",
    "term_label",
    "term_type",
    "annotation_url",
    "load_prompt",
    "generate_documents",
    "write_corpus",
]
