"""Index manifest: checkpoint / resume / lineage state.

Layout on disk (all writes atomic: temp file + ``os.replace``, manifest
finalized last — mirroring the reference's atomic snapshot-swap
semantics, reference: src/ai_service/layers/embeddings/indexing/
watchlist_index_service.py:319-457)::

    index_dir/
      manifest.json                  # finalized build: params + stats + lineage
      dictionary.parquet/            # term → df, cf  (the vocabulary)
      docmap.parquet/                # doc_id → conv_id, turn_idx
      segments/part=K/postings.parquet   # encoded posting lists
      segments/part=K/meta.json          # per-partition lineage (written LAST —
                                         # its presence implies the data file is complete)

A build is resumable because each partition's segment file + meta.json
land atomically and independently; a re-run scans ``segments/*/meta.json``
and skips completed partitions (FIXTURES.md §4 semantics).

Index identity — the manifest fields two builds must share for resume,
merge and federation to be exact — is three groups, compared with
:func:`identity_diff`: ``SCORING`` (k1, b), ``ANALYZER`` (every field
that changes tokenization) and ``LAYOUT`` (partitions, hot-term
salting, block size, positions: where a posting lands and what it
holds). Resume and merge compare all three, federation SCORING +
ANALYZER. The other fields are corpus stats (n_docs, avgdl,
total_tokens, n_terms) or lineage/state (version, status, hot_terms,
parts, input_path).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any

from hybrid_sanctions_search_engine_ray.config import AnalyzerConfig, EngineConfig


def atomic_write_json(path: str, obj: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(obj, f, indent=1, default=str)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_publish_file(tmp_path: str, final_path: str) -> None:
    os.makedirs(os.path.dirname(final_path), exist_ok=True)
    os.replace(tmp_path, final_path)


# newest manifest format this code reads; a newer index is refused
MANIFEST_VERSION = 1

# the index identity groups (IndexManifest field names)
SCORING = ("k1", "b")
ANALYZER = ("analyzer_mode", "remove_stopwords", "stem", "dedup_tokens",
            "min_token_len", "max_token_len", "lang_split_case", "lang_col")
LAYOUT = ("num_partitions", "hot_term_salt_buckets", "hot_term_salt_shift",
          "block_size", "store_positions")


@dataclass
class IndexManifest:
    version: int = MANIFEST_VERSION
    status: str = "building"           # building | complete
    # corpus stats (Pass A)
    n_docs: int = 0
    avgdl: float = 0.0
    total_tokens: int = 0
    n_terms: int = 0
    # identity (SCORING, ANALYZER, LAYOUT above; immutable per index)
    k1: float = 1.2
    b: float = 0.75
    block_size: int = 128
    num_partitions: int = 64
    analyzer_mode: str = "simple"
    remove_stopwords: bool = False
    stem: str = ""
    dedup_tokens: bool = False
    # the rest of the ANALYZER group (older manifests default to these)
    min_token_len: int = 1
    max_token_len: int = 64
    lang_split_case: bool = False
    lang_col: str | None = None
    store_positions: bool = False
    # skew handling
    hot_terms: list[str] = field(default_factory=list)
    hot_term_salt_buckets: int = 1
    # decides a hot-term posting's salt, hence its partition; manifests
    # written before it was persisted read as EngineConfig's default
    hot_term_salt_shift: int = 12
    # lineage: part → {n_terms, n_rows, n_postings, checksum, elapsed_s, input}
    parts: dict[str, dict] = field(default_factory=dict)
    input_path: str = ""

    @classmethod
    def from_config(cls, cfg: EngineConfig, store_positions: bool = False,
                    **lineage) -> "IndexManifest":
        """A fresh build's manifest; ``lineage`` sets hot_terms/input_path."""
        a = cfg.analyzer
        return cls(
            k1=cfg.k1, b=cfg.b,
            analyzer_mode=a.mode, remove_stopwords=a.remove_stopwords, stem=a.stem,
            dedup_tokens=a.dedup_tokens, min_token_len=a.min_token_len,
            max_token_len=a.max_token_len, lang_split_case=a.lang_split_case,
            lang_col=a.lang_col,
            num_partitions=cfg.num_partitions,
            hot_term_salt_buckets=cfg.hot_term_salt_buckets,
            hot_term_salt_shift=cfg.hot_term_salt_shift,
            block_size=cfg.block_size, store_positions=store_positions,
            **lineage,
        )

    def engine_config(self) -> EngineConfig:
        """The inverse of :meth:`from_config` (``store_positions`` is a
        build argument, not a config field)."""
        return EngineConfig(
            k1=self.k1, b=self.b, block_size=self.block_size,
            num_partitions=self.num_partitions,
            hot_term_salt_buckets=self.hot_term_salt_buckets,
            hot_term_salt_shift=self.hot_term_salt_shift,
            analyzer=analyzer_from_manifest(self),
        )

    def save(self, index_dir: str) -> None:
        atomic_write_json(os.path.join(index_dir, "manifest.json"), asdict(self))

    @classmethod
    def load(cls, index_dir: str) -> "IndexManifest":
        with open(os.path.join(index_dir, "manifest.json")) as f:
            d = json.load(f)
        if d.get("version", MANIFEST_VERSION) > MANIFEST_VERSION:
            raise ValueError(
                f"index at {index_dir} has manifest version {d['version']}, newer than "
                f"version {MANIFEST_VERSION} that this code reads")
        m = cls()
        for k, v in d.items():
            if hasattr(m, k):
                setattr(m, k, v)
        return m


# name of a partition's posting segment file inside its segment_dir
SEGMENT_FILE = "postings.parquet"


def segment_dir(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, "segments", f"part={part:05d}")


def segment_file(index_dir: str, part: int) -> str:
    return os.path.join(segment_dir(index_dir, part), SEGMENT_FILE)


def completed_parts(index_dir: str) -> dict[int, dict]:
    """Scan per-partition meta.json files — the resume source of truth."""
    seg_root = os.path.join(index_dir, "segments")
    done: dict[int, dict] = {}
    if not os.path.isdir(seg_root):
        return done
    for name in os.listdir(seg_root):
        if not name.startswith("part="):
            continue
        meta_path = os.path.join(seg_root, name, "meta.json")
        data_path = os.path.join(seg_root, name, SEGMENT_FILE)
        if os.path.exists(meta_path) and os.path.exists(data_path):
            with open(meta_path) as f:
                done[int(name.split("=")[1])] = json.load(f)
    return done


def analyzer_from_manifest(m: "IndexManifest") -> AnalyzerConfig:
    """Reconstruct the FULL build analyzer from a manifest — every
    persisted field, not just mode/stopwords/stem (partial
    reconstruction silently diverged query/delta tokenization from the
    build — code-review r05 finding). ``name_field`` is set for
    "_names" stemmers so readers don't re-fire the build-time consent
    warning."""
    return AnalyzerConfig(
        mode=m.analyzer_mode,
        remove_stopwords=m.remove_stopwords,
        stem=m.stem,
        dedup_tokens=m.dedup_tokens,
        min_token_len=m.min_token_len,
        max_token_len=m.max_token_len,
        lang_split_case=m.lang_split_case,
        lang_col=m.lang_col,
        name_field=m.stem.endswith("_names"),
    )


def identity_diff(saved: IndexManifest, other: IndexManifest, fields: tuple,
                  labels: tuple = ("saved", "cfg")) -> list[str]:
    """The named differences between two manifests over ``fields`` (one
    or more identity groups), e.g. ``"k1: saved=1.2 cfg=2.0"``."""
    a, b = labels
    return [f"{n}: {a}={getattr(saved, n)!r} {b}={getattr(other, n)!r}"
            for n in fields if getattr(saved, n) != getattr(other, n)]


def exact_n_terms(parts: dict[str, dict]) -> int:
    """Distinct terms over partition metas: a non-hot term lives in one
    partition, so Σ per-part ``n_terms`` overcounts only salted hot
    terms — subtract their extra placements, read from each part's
    ``hot_terms_present``."""
    placements = Counter(t for p in parts.values() for t in p.get("hot_terms_present", []))
    return (sum(int(p.get("n_terms", 0)) for p in parts.values())
            - sum(h - 1 for h in placements.values()))


def docmap_columns(index_dir: str) -> list[str]:
    """The columns an index's docmap stores (``text`` only when built
    with stored documents)."""
    import pyarrow.dataset as pads

    return pads.dataset(os.path.join(index_dir, "docmap.parquet")).schema.names
