"""Prompt-block loading (the reference's prompt configuration surface).

Reference semantics (get_interactions.py:9-35): a prompt file holds multiple
blocks delimited by ``# <identifier>`` marker lines; loading captures every
line after the marker containing the identifier until the next ``#`` line
(once at least one line was captured); a UTF-8 BOM is stripped.  Nine prompt
variants ship with the reference (data/prompt_file*.txt) — selection via
(prompt_file, prompt_identifier) is the user-extension hook (main.py:358-367).

In this engine the loaded prompt text is a constructor argument of the
extraction backend, part of the run's spec (one ``ray.put`` per run, read
once per worker process, never per batch).
"""
from __future__ import annotations

import os
from typing import Optional

DEFAULT_IDENTIFIER = "general prompt"

# Pinned contract for the reference's production prompt
# (textToKnowledgeGraph/prompt_file_v7.txt, selected by main.py:358-367):
# sha256 of the file bytes and of the extracted "general prompt" block.
# resolve_default_prompt verifies these when loading from an installed
# reference package, so real-LLM parity never silently depends on which
# prompt revision the environment happens to ship; the golden test
# (tests/test_prompts_metadata.py) asserts the same hashes against the
# reference checkout itself.
V7_FILE_SHA256 = (
    "1540e6ef911a924b1f6ffe46f218d155a8ebb2321c5ba96df57f3ff32581c993"
)
V7_BLOCK_SHA256 = (
    "fde6e558e53718de5866f19dfc0d29c2b2f023138a70a20793985f9dd461622b"
)
V7_BLOCK_LEN = 28393


def verify_v7(content: str) -> bool:
    """True when ``content`` is byte-identical to the pinned v7 prompt
    file this engine's real-LLM parity contract was validated against."""
    import hashlib

    return (
        hashlib.sha256(content.encode("utf-8")).hexdigest() == V7_FILE_SHA256
    )

# This engine's own default system prompt (not the reference's text): the
# contract mirrors bel_model.py's function-calling setup — emit only
# interactions grounded in the provided annotations, as JSON
# {"interactions": [{"bel_statement", "evidence"}]}.
_BUILTIN = """# general prompt
You extract biological interactions from scientific text as BEL statements.
Use ONLY entities present in the provided annotations, with their given
namespaces and identifiers. For each interaction found, produce a JSON
object with keys "bel_statement" (a BEL statement such as
p(HGNC:AKT1) increases act(p(HGNC:HSF1))) and "evidence" (the exact source
sentence). Return {"interactions": [...]}; return an empty list when the
text states no interaction. Do not emit duplicate interactions.
# minimal prompt
Extract (subject, relation, object) BEL statements from the text using only
annotated entities. Return {"interactions": [{"bel_statement", "evidence"}]}.
"""


def extract_block(content: str, identifier: str) -> str:
    """Capture the lines between ``# <identifier>`` and the next ``#`` line
    (reference scan loop, get_interactions.py:18-29, including its quirk of
    joining captured lines WITHOUT newlines)."""
    if content.startswith("﻿"):
        content = content.lstrip("﻿")
    captured = []
    capturing = False
    for line in content.splitlines():
        stripped = line.strip()
        if stripped.startswith("#") and identifier in line:
            capturing = True
            continue
        if capturing:
            if stripped.startswith("#") and captured:
                break
            captured.append(line)
    return "".join(captured)


def load_prompt(
    prompt_file: Optional[str] = None,
    identifier: str = DEFAULT_IDENTIFIER,
) -> str:
    """Load a prompt block from a file path, or from the builtin prompt set
    when no file is given."""
    if prompt_file is None:
        return extract_block(_BUILTIN, identifier)
    with open(os.fspath(prompt_file), encoding="utf-8") as f:
        return extract_block(f.read(), identifier)


def resolve_default_prompt(identifier: str = DEFAULT_IDENTIFIER) -> str:
    """The default system prompt for real-LLM backends, resolved in order:

    1. ``$KGRAY_PROMPT_FILE`` — an explicit prompt file path;
    2. the reference package's production prompt (``prompt_file_v7.txt``
       shipped inside an installed ``textToKnowledgeGraph``, the file
       main.py:358-367 selects by default) — so a user migrating from the
       reference gets byte-identical prompt text automatically;
    3. this engine's builtin block (contract-equivalent wording).
    """
    env = os.environ.get("KGRAY_PROMPT_FILE")
    if env:
        return load_prompt(env, identifier)
    try:  # pragma: no cover - reference package not installed in sandbox
        from importlib.resources import files

        content = (
            files("textToKnowledgeGraph")
            .joinpath("prompt_file_v7.txt")
            .read_text(encoding="utf-8")
        )
        if not verify_v7(content):
            import warnings

            warnings.warn(
                "installed reference prompt_file_v7.txt does not match "
                "the pinned contract hash (prompts.V7_FILE_SHA256); "
                "using it anyway — re-validate LLM parity",
                stacklevel=2,
            )
        return extract_block(content, identifier)
    except Exception:
        return extract_block(_BUILTIN, identifier)
