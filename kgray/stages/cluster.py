"""Surface-form canonicalization: minhash blocking + connected components.

The reference canonicalizes nodes by exact BEL-term string (G1,
convert_to_cx2.py:74-111); the north-star extends this with clustering of
*variant surface forms* (case, punctuation, hyphenation) into one
canonical entity before id assignment.

Pipeline shape (distributed end to end except the component solve):
1. distinct names (keyed aggregate — no driver collection);
2. exact-normalization edges via ``groupby(norm)`` — each group emits
   (min_name, other) pairs, so exact variants always cluster even when
   LSH misses them;
3. minhash signatures over char 3-grams of the normalized form, banded
   LSH → candidate pairs (groupby on a coarse shard of (band, hash),
   vectorized self-merge, hot buckets capped at MAX_BUCKET — the same
   salt-the-hot-key guard dedup uses);
4. exact char-shingle Jaccard verification of candidates inside the same
   shard groups (names are self-contained: both sides of a pair are in
   the row, so no join is needed);
5. connected components: STRING-TYPED distributed min-label propagation
   (graph_algos.connected_components) over the verified pair edges — the
   component label IS the lexicographically smallest original form, i.e.
   the canonical — joined back onto the distinct-name set with one
   name-keyed left repartition join.  Nothing (names, edges, or the
   canonical map) is ever collected or broadcast from the driver; names
   in no edge are singleton clusters by default.

Output: Dataset (name, cluster_id, canonical) where canonical is the
lexicographically smallest ORIGINAL form in the cluster and cluster_id is
a stable 63-bit hash of the canonical form (deterministic across runs,
partitionings and cluster sizes — no global rank is computed).
"""
from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


from .dedup import MinHasher, _band_rows, _hash_token_array


def normalize_surface(s: str) -> str:
    return "".join(c for c in (s or "").casefold() if c.isalnum())


def _char_shingles(s: str, k: int = 3) -> List[str]:
    s = f"^{s}$"
    if len(s) <= k:
        return [s]
    return [s[i : i + k] for i in range(len(s) - k + 1)]


def _char_shingle_sets(names: List[str], k: int = 3) -> List[np.ndarray]:
    """Distinct hashed char-k-gram sets of the NORMALIZED forms, one
    vectorized hash pass for the whole batch."""
    shing = [_char_shingles(normalize_surface(n), k) for n in names]
    lens = np.fromiter((len(x) for x in shing), dtype=np.int64,
                       count=len(shing))
    flat = np.array([g for gs in shing for g in gs], dtype=object)
    th = _hash_token_array(flat)
    offs = np.concatenate(([0], np.cumsum(lens)))
    return [np.unique(th[offs[i]: offs[i + 1]]) for i in range(len(shing))]


def _jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 or len(b) == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


class _CharMinHasher(MinHasher):
    """MinHasher over char shingles of the normalized surface form."""

    def shingle_sets(self, texts: List[str]) -> List[np.ndarray]:
        return _char_shingle_sets(texts, self.k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch.column("name").to_pylist())
        vals = pa.array(sig.astype(np.int64).ravel(), pa.int64())
        offsets = pa.array(
            np.arange(0, (len(sig) + 1) * self.n, self.n, dtype=np.int32)
        )
        return batch.append_column(
            "minhash", pa.ListArray.from_arrays(offsets, vals)
        )


def cluster_id_of(canonical: str) -> int:
    """Stable 63-bit id of a canonical surface form."""
    return int(
        _hash_token_array(np.array([canonical], dtype=object))[0]
        & np.uint64(0x7FFFFFFFFFFFFFFF)
    )


MAX_BUCKET = 256


def cluster_surface_forms(
    names: "ray.data.Dataset",
    threshold: float = 0.6,
    num_hashes: int = 64,
    bands: int = 32,
) -> "ray.data.Dataset":
    """names dataset with column ``name`` → Dataset (name, cluster_id,
    canonical)."""
    from ..utils import coarse_grouped_map

    rows = num_hashes // bands
    # distinct via coarse keyed reduce: name cardinality is the surface
    # vocabulary — Ray's .aggregate() pays per-group Python at the reducer
    distinct = coarse_grouped_map(
        names.select_columns(["name"]),
        "name",
        lambda df: df.drop_duplicates("name"),
    )

    # --- exact-normalization edges: groupby(norm) emits (min, other) pairs
    def add_norm(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "norm",
            pa.array(
                [normalize_surface(n)
                 for n in batch.column("name").to_pylist()],
                pa.string(),
            ),
        )

    def norm_edges_partition(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized star edges (min-name → every other name sharing the
        # normalized form) across ALL norm groups of the partition at once
        g = g.sort_values(["norm", "name"])
        first = g.groupby("norm", sort=False)["name"].transform("first")
        m = g[g["name"] != first]
        out = pd.DataFrame(
            {"name_a": first[m.index].to_numpy(), "name_b": m["name"].to_numpy()}
        )
        return out if len(out) else pd.DataFrame(
            {"name_a": [], "name_b": []}, dtype=object
        )

    exact_edges = coarse_grouped_map(
        distinct.map_batches(add_norm, batch_format="pyarrow"),
        "norm",
        norm_edges_partition,
    )

    # --- LSH candidate pairs over char shingles of the normalized form
    sigs = distinct.map_batches(
        _CharMinHasher(num_hashes=num_hashes, shingle_k=3),
        batch_format="pyarrow",
    )

    def to_bands(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "doc_id": pa.array(
                    np.arange(batch.num_rows, dtype=np.int64)
                ),  # placeholder ordinal
                "minhash": batch.column("minhash"),
            }
        )
        b = _band_rows(t, bands, rows)
        return b.set_column(
            b.schema.get_field_index("doc_id"),
            "name",
            pa.array(
                np.repeat(
                    np.asarray(batch.column("name").to_pylist(), dtype=object),
                    bands,
                ),
                pa.string(),
            ),
        )

    band_tbl = sigs.map_batches(to_bands, batch_format="pyarrow")

    # Coarse shard of the bucket key (same pattern as dedup.shard_pairs):
    # thousands of buckets per pandas group, one vectorized self-merge,
    # hot buckets capped.  Verification happens in the same group — both
    # names of a pair are in the row, so no join hop is needed.
    def add_shard(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "shard",
            pc.cast(
                pc.bit_wise_and(batch.column("band_hash"), 255), pa.int32()
            ),
        )

    thr = threshold

    def shard_verified_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["band_id", "band_hash", "name"])
        sizes = g.groupby(["band_id", "band_hash"])["name"].transform("size")
        g = g[sizes <= MAX_BUCKET]
        m = g.merge(g, on=["band_id", "band_hash"])
        m = m[m.name_x < m.name_y]
        cand = m[["name_x", "name_y"]].drop_duplicates()
        if cand.empty:
            return pd.DataFrame({"name_a": [], "name_b": []}, dtype=object)
        uniq = pd.unique(cand[["name_x", "name_y"]].values.ravel())
        sets = dict(zip(uniq, _char_shingle_sets(list(uniq), 3)))
        keep = [
            _jaccard(sets[a], sets[b]) >= thr
            for a, b in zip(cand.name_x, cand.name_y)
        ]
        out = cand[np.asarray(keep, dtype=bool)].copy()
        out.columns = ["name_a", "name_b"]
        return out

    lsh_edges = (
        band_tbl.map_batches(add_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_verified_pairs, batch_format="pandas")
    )

    # --- connected components over the pair edges, auto-dispatched (the
    # shared dedup policy, stages/dedup.COMPONENTS_DRIVER_MAX_PAIRS):
    # edge graphs under the constant bound solve with driver union-find
    # over STRING nodes (broadcast canonical map); bigger graphs run the
    # string-typed distributed min-label propagation, whose component
    # label is the lexicographically smallest ORIGINAL form — the
    # canonical — joined back with one name-keyed left repartition join.
    # Names in no edge stay their own canonical on both paths.
    from . import dedup as dedup_mod
    from .graph_algos import connected_components
    from ..utils import plain_arrow, repartition_join

    # both sides Arrow: Ray cannot batch a union of pandas and Arrow blocks
    lsh_edges = lsh_edges.map_batches(
        plain_arrow, batch_format="pyarrow", batch_size=None
    )
    edges = exact_edges.union(lsh_edges).materialize()

    def _final(df: "pd.DataFrame") -> pa.Table:
        canonical = df.canonical.to_numpy(dtype=object)
        cids = (
            _hash_token_array(canonical) & np.uint64(0x7FFFFFFFFFFFFFFF)
        ).view(np.int64)
        return pa.table(
            {
                "name": pa.array(df.name.to_numpy(dtype=object), pa.string()),
                "cluster_id": pa.array(cids, pa.int64()),
                "canonical": pa.array(canonical, pa.string()),
            }
        )

    if edges.count() <= dedup_mod.COMPONENTS_DRIVER_MAX_PAIRS:
        canon_ref = ray.put(
            dedup_mod.pair_components(
                edges, left_col="name_a", right_col="name_b"
            )
        )

        def assign_small(df: "pd.DataFrame") -> pa.Table:
            if "name" not in df.columns or len(df) == 0:
                return pa.table(
                    {"name": pa.array([], pa.string()),
                     "cluster_id": pa.array([], pa.int64()),
                     "canonical": pa.array([], pa.string())}
                )
            cmap = ray.get(canon_ref)
            df = df.assign(
                canonical=[cmap.get(n, n) for n in df.name]
            )
            return _final(df)

        return distinct.map_batches(assign_small, batch_format="pandas")

    cc = connected_components(
        edges,
        node_type=pa.string(),
        left_col="name_a",
        right_col="name_b",
    )

    joined = repartition_join(
        distinct,
        cc,
        "name",
        "doc_id",
        {"name": pa.string()},
        {"doc_id": pa.string(), "rep_id": pa.string()},
        num_partitions=8,
        how="left",
    )

    def assign(df: "pd.DataFrame") -> pa.Table:
        if "name" not in df.columns or len(df) == 0:
            return pa.table(
                {"name": pa.array([], pa.string()),
                 "cluster_id": pa.array([], pa.int64()),
                 "canonical": pa.array([], pa.string())}
            )
        df = df.assign(canonical=df.rep_id.where(df.rep_id.notna(), df.name))
        return _final(df)

    return joined.map_batches(assign, batch_format="pandas")


def levenshtein_batch(a, b) -> "np.ndarray":
    """Exact edit distance for N string pairs at once, vectorized across
    the pair axis: the DP runs max_len_a × max_len_b VECTOR steps over
    (N,)-arrays instead of N independent Python DPs — for the short
    names fuzzy joins block on (≤ ~20 chars) that is ~400 numpy ops
    total regardless of N.  Unit insert/delete/substitute costs over
    unicode codepoints, byte-identical to DuckDB's levenshtein()."""
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    la = np.array([len(x) for x in a], dtype=np.int64)
    lb = np.array([len(x) for x in b], dtype=np.int64)
    ma, mb = int(la.max()), int(lb.max())
    A = np.zeros((n, max(ma, 1)), dtype=np.int64)
    B = np.zeros((n, max(mb, 1)), dtype=np.int64)
    for i, x in enumerate(a):
        if x:
            A[i, : len(x)] = [ord(c) for c in x]
    for i, x in enumerate(b):
        if x:
            B[i, : len(x)] = [ord(c) for c in x]
    res = np.zeros(n, dtype=np.int64)
    prev = np.tile(np.arange(mb + 1, dtype=np.int64), (n, 1))
    done = la == 0
    res[done] = lb[done]
    for i in range(1, ma + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        for j in range(1, mb + 1):
            cost = (A[:, i - 1] != B[:, j - 1]).astype(np.int64)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost,
            )
        hit = la == i
        if hit.any():
            res[hit] = cur[hit, lb[hit]]
        prev = cur
    return res


def fuzzy_name_pairs(
    ds: "ray.data.Dataset",
    block_cols,
    name_col: str,
    max_dist: int = 2,
) -> "ray.data.Dataset":
    """Blocked fuzzy self-join: DISTINCT name pairs (a < b) within each
    blocking-key group whose edit distance is in [1, max_dist] — the
    catalog-reconciliation / near-duplicate-title primitive.

    Blocking IS the scale contract: candidate pairs are |block|² within
    a block and zero across blocks, so the block key must bound group
    size (here a composite key; at web scale add a length band or a
    first-character band to the key).  One keyed shuffle on the block
    key; within each coarse partition the pair generation and the
    edit-distance kernel (levenshtein_batch) are fully vectorized.

    Output: block_cols + (name_a, name_b, dist).
    """
    from ..utils import coarse_grouped_map

    blocks = [block_cols] if isinstance(block_cols, str) else list(block_cols)

    def pairs_partition(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, g in df.groupby(blocks, sort=False):
            names = np.sort(g[name_col].unique())
            m = len(names)
            if m < 2:
                continue
            ia, ib = np.triu_indices(m, k=1)
            d = levenshtein_batch(
                [names[i] for i in ia], [names[j] for j in ib]
            )
            keep = (d >= 1) & (d <= max_dist)
            if not keep.any():
                continue
            kf = pd.DataFrame(
                {
                    "name_a": names[ia[keep]],
                    "name_b": names[ib[keep]],
                    "dist": d[keep],
                }
            )
            kv = key if isinstance(key, tuple) else (key,)
            for c, v in zip(blocks, kv):
                kf[c] = v
            out.append(kf[blocks + ["name_a", "name_b", "dist"]])
        if not out:
            empty = df[blocks].iloc[:0].copy()
            empty["name_a"] = pd.Series([], dtype=str)
            empty["name_b"] = pd.Series([], dtype=str)
            empty["dist"] = pd.Series([], dtype=np.int64)
            return empty
        return pd.concat(out, ignore_index=True)

    return coarse_grouped_map(ds, blocks, pairs_partition,
                              num_partitions=16)
