"""CLI surface (reference main.py:307-473 re-expressed) + CX2 style merge."""
import json
import os

import pytest

from kgray.cli import build_parser, main
from kgray.stages.graph import apply_style, load_visual_style

REF_STYLE = "/root/reference/data/cx_style.json"

TEXT = (
    "AKT1 activates HSF1 in stressed cells. "
    "This paragraph is long enough to be admitted by the filters.\n\n"
    "TP53 inhibits MDM2 under genotoxic stress, a well-described loop "
    "in the tumor suppression literature.\n"
)


def _style_file(tmp_path):
    style = [
        {"visualEditorProperties": [{"properties": {"nodeSizeLocked": True}}]},
        {"visualProperties": [{"default": {"node": {"NODE_WIDTH": 40.0}}}]},
    ]
    p = tmp_path / "style.cx"
    p.write_text(json.dumps(style))
    return str(p)


def test_cli_txt_flow_with_style(tmp_path):
    txt = tmp_path / "paper1.txt"
    txt.write_text(TEXT)
    out_dir = tmp_path / "out"
    rc = main([
        "--txt_paths", str(txt),
        "--style_path", _style_file(tmp_path),
        "--custom_name", "mynet",
        "--output_dir", str(out_dir),
    ])
    assert rc == 0
    doc_dir = out_dir / "paper1"
    cx = json.loads((doc_dir / "cx2_network.cx").read_text())
    aspects = {k for a in cx if isinstance(a, dict) for k in a}
    assert {"nodes", "edges", "visualProperties",
            "visualEditorProperties"} <= aspects
    meta = json.loads((doc_dir / "network.json").read_text())
    assert meta["name"] == "mynet" and meta["n_edges"] >= 1
    # engine-level tables written
    assert os.path.isdir(out_dir / "edges") and os.path.isdir(out_dir / "nodes")


def test_cli_pmc_flow_from_xml_dir(tmp_path):
    xml = (
        "<collection><document><id>77</id>"
        '<passage><infon key="section_type">INTRO</infon><offset>0</offset>'
        "<text>AKT1 activates HSF1 in this long enough paragraph for "
        "admission.</text></passage></document></collection>"
    )
    (tmp_path / "pmcPMC77.xml").write_text(xml)
    out_dir = tmp_path / "out"
    rc = main([
        "--pmc_ids", "PMC77", "--xml_dir", str(tmp_path),
        "--output_dir", str(out_dir),
    ])
    assert rc == 0
    cx = json.loads((out_dir / "PMC77" / "cx2_network.cx").read_text())
    nodes = next(a["nodes"] for a in cx if isinstance(a, dict) and "nodes" in a)
    assert {n["v"]["label"] for n in nodes} == {"AKT1", "HSF1"}


def test_cli_rejects_ndex_and_missing_inputs(tmp_path, capsys):
    assert main(["--upload_to_ndex", "--txt_paths", "x.txt"]) == 2
    with pytest.raises(SystemExit):
        main(["--output_dir", str(tmp_path)])


def test_backend_choices_are_the_extractor_registry(capsys):
    """Every ``--backend`` choice names a backend ``BELExtractor`` builds
    by name, and a name outside the choices is refused by both."""
    from kgray.stages.extract import BELExtractor

    p = build_parser()
    action = next(a for a in p._actions if "--backend" in a.option_strings)
    assert action.choices == ["stub", "openai"]
    kwargs = {"openai": {"api_key": "unused",
                         "base_url": "http://localhost:9/v1"}}
    for name in action.choices:
        BELExtractor(name, **kwargs.get(name, {}))
    with pytest.raises(KeyError):
        BELExtractor("nonesuch")
    with pytest.raises(SystemExit):
        p.parse_args(["--backend", "nonesuch", "--txt_paths", "x.txt"])


def test_style_merge_reference_golden():
    if not os.path.exists(REF_STYLE):
        pytest.skip("reference style file not present")
    style = load_visual_style(REF_STYLE)
    assert "visualProperties" in style and "visualEditorProperties" in style
    cx2 = [
        {"CXVersion": "2.0", "hasFragments": False},
        {"metaData": []},
        {"nodes": []},
        {"edges": []},
        {"status": [{"success": True}]},
    ]
    styled = apply_style(cx2, style)
    assert "status" in styled[-1]  # status stays terminal
    keys = [k for a in styled for k in a]
    assert "visualProperties" in keys and "visualEditorProperties" in keys
    # defaults survived the round-trip (spot-check a known property)
    vp = next(a["visualProperties"] for a in styled if "visualProperties" in a)
    assert vp[0]["default"]["edge"]["EDGE_TARGET_ARROW_SHAPE"] == "triangle"


def test_parser_flags_match_reference_surface():
    p = build_parser()
    flags = {a.option_strings[0] for a in p._actions if a.option_strings}
    for ref_flag in ["--api_key", "--pmc_ids", "--pdf_paths", "--txt_paths",
                     "--ndex_email", "--ndex_password", "--upload_to_ndex",
                     "--prompt_file", "--prompt_identifier", "--style_path",
                     "--custom_name", "--pmid_for_file"]:
        assert ref_flag in flags, ref_flag
