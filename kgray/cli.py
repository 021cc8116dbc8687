"""Command-line entry point.

Mirrors the reference console script's surface (main.py:307-473): document
routing via --pmc_ids / --pdf_paths / --txt_paths, prompt selection via
--prompt_file / --prompt_identifier, visual style via --style_path, network
naming via --custom_name — re-expressed over the Ray Data engine:

  * --pmc_ids reads pre-downloaded PubTator XML (``pmc<ID>.xml``) from
    --xml_dir instead of fetching from the PubTator API (this engine runs
    offline; the reference's download step, pub.py:7-26, is an HTTP GET of
    exactly these files).
  * --parquet ingests a documents table (doc_id, spans) directly — the
    100 TB path the reference has no equivalent for.
  * NDEx upload flags are accepted for interface parity but rejected with
    a clear message (external service, out of scope — main.py:100-106).

Outputs, per reference lifecycle (main.py:60-118): one directory per
document with ``cx2_network.cx`` plus engine-level ``edges``/``nodes``
parquet tables under --output_dir.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kgray",
        description=(
            "Process documents to extract BEL statements and generate CX2 "
            "networks (Ray Data engine)."
        ),
    )
    p.add_argument("--api_key", type=str, default=None,
                   help="API key for an OpenAI-compatible backend "
                        "(unused by the deterministic stub backend).")
    p.add_argument("--pmc_ids", nargs="*", default=[],
                   help="PMC IDs; requires --xml_dir with pmc<ID>.xml "
                        "PubTator exports.")
    p.add_argument("--xml_dir", type=str, default=None,
                   help="Directory holding pmc<ID>.xml files for --pmc_ids.")
    p.add_argument("--pdf_paths", nargs="*", default=[],
                   help="PDF paths (requires a pluggable PDF extractor; "
                        "the sandbox build raises NotImplementedError).")
    p.add_argument("--txt_paths", nargs="*", default=[],
                   help="Plain-text file paths.")
    p.add_argument("--parquet", type=str, default=None,
                   help="documents parquet (doc_id, spans) — bulk path.")
    p.add_argument("--ndex_email", type=str, default=None)
    p.add_argument("--ndex_password", type=str, default=None)
    p.add_argument("--upload_to_ndex", action="store_true")
    p.add_argument("--prompt_file", type=str, default=None,
                   help="Custom LLM prompt file (default: resolved v7 "
                        "block / builtin).")
    p.add_argument("--prompt_identifier", type=str, default="general prompt")
    p.add_argument("--style_path", type=str, default=None,
                   help="CX2 style JSON whose visual properties are merged "
                        "into every generated network.")
    p.add_argument("--custom_name", type=str, default=None,
                   help="Network name override for file inputs.")
    p.add_argument("--pmid_for_file", type=str, default=None,
                   help="PMID used to name networks built from file inputs "
                        "(reference main.py:374-385 naming hook).")
    p.add_argument("--backend", type=str, default="stub",
                   choices=["stub", "openai"],
                   help="Extraction backend (stub = deterministic, "
                        "no network/GPU).")
    p.add_argument("--model", type=str, default=None,
                   help="Model name for the openai backend.")
    p.add_argument("--output_dir", type=str, default="kgray_output")
    p.add_argument("--checkpoint_dir", type=str, default=None,
                   help="Enable per-stage checkpoint/resume: a re-run "
                        "with the same dir re-invokes nothing for "
                        "completed partitions (LLM, BEL parse, nodes, "
                        "CX2 all resume from parquet).")
    p.add_argument("--checkpoint_partitions", type=int, default=16,
                   help="Partition count for --checkpoint_dir (fixed per "
                        "checkpoint dir).")
    p.add_argument("--num_cpus", type=int, default=None,
                   help="ray.init num_cpus when this process owns the Ray "
                        "session (default: let Ray decide).")
    return p


def _documents_from_args(args) -> "object":
    import pyarrow as pa
    import ray.data

    from .sources.bioc import read_bioc_documents
    from .sources.textfile import raw_text_to_documents

    parts = []
    if args.parquet:
        parts.append(ray.data.read_parquet(args.parquet))
    if args.pmc_ids:
        if not args.xml_dir:
            raise SystemExit(
                "--pmc_ids requires --xml_dir with pmc<ID>.xml files "
                "(this engine runs offline; download them with the "
                "PubTator export API)."
            )
        rows = []
        for pmc in args.pmc_ids:
            path = os.path.join(args.xml_dir, f"pmc{pmc}.xml")
            if not os.path.exists(path):
                raise SystemExit(f"missing XML for {pmc}: {path}")
            with open(path, encoding="utf-8") as f:
                rows.append({"doc_id": pmc, "xml": f.read()})
        parts.append(
            read_bioc_documents(
                ray.data.from_arrow(
                    pa.table(
                        {
                            "doc_id": [r["doc_id"] for r in rows],
                            "xml": [r["xml"] for r in rows],
                        }
                    )
                )
            )
        )
    txt_like: List[str] = list(args.txt_paths) + list(args.pdf_paths)
    if txt_like:
        names, texts = [], []
        for path in txt_like:
            ext = os.path.splitext(path)[1].lower()
            if ext == ".pdf":
                from .sources.textfile import decode_payload

                with open(path, "rb") as f:
                    texts.append(decode_payload(f.read(), ext))
            else:
                with open(path, encoding="utf-8") as f:
                    texts.append(f.read())
            names.append(os.path.splitext(os.path.basename(path))[0])
        parts.append(
            ray.data.from_arrow(
                pa.table({"doc_id": names, "raw_text": texts})
            ).map_batches(raw_text_to_documents, batch_format="pyarrow")
        )
    if not parts:
        raise SystemExit(
            "no inputs: pass --parquet, --pmc_ids, --txt_paths or "
            "--pdf_paths"
        )
    ds = parts[0]
    for other in parts[1:]:
        ds = ds.union(other)
    return ds


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.upload_to_ndex or args.ndex_email or args.ndex_password:
        print(
            "NDEx upload is not supported by this engine (external "
            "service); write CX2 files locally and upload with ndex2.",
            file=sys.stderr,
        )
        return 2

    import ray

    if not ray.is_initialized():  # the driver may own the session already
        kwargs = {"include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)

    from .functions.prompts import load_prompt, resolve_default_prompt
    from .pipelines.kg import KGConfig, run_kg_pipeline
    from .stages.graph import build_document_graphs, load_visual_style

    prompt_text = (
        load_prompt(args.prompt_file, args.prompt_identifier)
        if args.prompt_file
        else resolve_default_prompt(args.prompt_identifier)
    )
    backend_kwargs = {}
    if args.backend == "openai":
        backend_kwargs["prompt_text"] = prompt_text
        if args.model:
            backend_kwargs["model"] = args.model
        if args.api_key:
            backend_kwargs["api_key"] = args.api_key
    cfg = KGConfig(backend=args.backend, backend_kwargs=backend_kwargs)

    docs = _documents_from_args(args)
    style = load_visual_style(args.style_path) if args.style_path else None
    if args.checkpoint_dir:
        from .pipelines.checkpoint import run_checkpointed_kg

        res, graphs = run_checkpointed_kg(
            docs,
            args.checkpoint_dir,
            num_partitions=args.checkpoint_partitions,
            cfg=cfg,
            style=style,
        )
    else:
        res = run_kg_pipeline(docs, cfg)
        graphs = build_document_graphs(
            res.edges, res.unary_nodes, res.annotation_urls, style=style
        )

    os.makedirs(args.output_dir, exist_ok=True)
    res.edges.write_parquet(os.path.join(args.output_dir, "edges"))
    res.nodes.write_parquet(os.path.join(args.output_dir, "nodes"))
    n = 0
    for row in graphs.iter_rows():
        doc_dir = os.path.join(args.output_dir, str(row["doc_id"]))
        os.makedirs(doc_dir, exist_ok=True)
        if args.custom_name:
            name = args.custom_name
        elif args.pmid_for_file:
            name = f"pmid{args.pmid_for_file}"
        else:
            name = str(row["doc_id"])
        with open(os.path.join(doc_dir, "cx2_network.cx"), "w") as f:
            f.write(row["cx2"])
        with open(os.path.join(doc_dir, "network.json"), "w") as f:
            json.dump(
                {"name": name, "n_nodes": row["n_nodes"],
                 "n_edges": row["n_edges"]}, f
            )
        n += 1
    print(f"wrote {n} document networks to {args.output_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
