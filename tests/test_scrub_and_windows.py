"""Semantics tests for the round-2 extension operators: PII scrubbing
(stages/scrub) and token-id encoding (stages/pack).

End-to-end oracle parity lives in __ray_entry__ (scripts/check_oracle.py);
these pin the kernels on controlled inputs — edge cases the uniform
synthetic corpus never produces.
"""
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# PII scrubbing
# ---------------------------------------------------------------------------

def _tbl(ids, texts):
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
    )


def test_pii_stats_and_redact_classes():
    from kgray.stages.scrub import pii_scrub

    out = pii_scrub(
        _tbl(
            [1, 2, 3, 4],
            [
                "mail a.b+c@sub.example.org and d@e.io end",
                "call 555-123-4567 or 555.123.4567",
                "host 192.168.0.1 gateway 10.0.0.254",
                "clean text with no pii at all",
            ],
        )
    ).to_pydict()
    assert out["n_email"] == [2, 0, 0, 0]
    assert out["n_phone"] == [0, 2, 0, 0]
    assert out["n_ipv4"] == [0, 0, 2, 0]
    assert out["redacted"] == [
        "mail <EMAIL> and <EMAIL> end",
        "call <PHONE> or <PHONE>",
        "host <IPV4> gateway <IPV4>",
        "clean text with no pii at all",
    ]


def test_pii_boundaries_not_overmatched():
    from kgray.stages.scrub import pii_scrub

    # 4-digit run breaks the IPv4 \b groups; 2-digit area code breaks
    # the phone shape; bare @ with no TLD is not an email
    out = pii_scrub(
        _tbl([1], ["v 1.2.3.4567 t 55-123-4567 m not@here w 1.2.3.4"])
    ).to_pydict()
    assert out["n_ipv4"] == [1]
    assert out["n_phone"] == [0]
    assert out["n_email"] == [0]
    assert out["redacted"] == ["v 1.2.3.4567 t 55-123-4567 m not@here w <IPV4>"]


def test_pii_injection_is_deterministic_and_detected():
    from kgray.stages.scrub import inject_synthetic_pii, pii_scrub

    t = _tbl([0, 12345], ["alpha", "beta"])
    a = pii_scrub(inject_synthetic_pii(t)).to_pydict()
    b = pii_scrub(inject_synthetic_pii(t)).to_pydict()
    assert a == b
    assert a["n_email"] == [1, 1]
    assert a["n_phone"] == [1, 1]
    assert a["n_ipv4"] == [1, 1]


# ---------------------------------------------------------------------------
# Vocabulary build / token-id encoding
# ---------------------------------------------------------------------------

def test_encode_token_ids_vocab_rank_and_oov(tmp_path):
    from kgray.stages.pack import build_vocab, encode_token_ids

    pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": ["b a a c b a", "z a b"],
        }
    ).to_parquet(tmp_path / "documents.parquet")
    v = build_vocab(str(tmp_path), vocab_size=2)
    # counts: a=4, b=3, c=1, z=1 → vocab a:0, b:1; c,z → OOV id 2
    assert v.token.tolist() == ["a", "b"]
    assert v.token_id.tolist() == [0, 1]
    out = (
        encode_token_ids(str(tmp_path), vocab_size=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[1].tolist() == ["1,0,0,2,1,0", 6, 1]
    assert out.loc[2].tolist() == ["2,0,1", 3, 1]
