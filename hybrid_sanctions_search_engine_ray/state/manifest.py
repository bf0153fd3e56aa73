"""Index manifest: checkpoint / resume / lineage state.

Layout on disk (manifest finalized last — mirroring the reference's
atomic snapshot-swap semantics, reference: src/ai_service/layers/
embeddings/indexing/watchlist_index_service.py:319-457)::

    index_dir/
      manifest.json                  # finalized build: params + stats + lineage
      dictionary.parquet/            # term → df, cf  (optional: write_dictionary)
      docmap.parquet/                # doc_id → conv_id, turn_idx
      segments/part=K/postings.parquet   # encoded posting lists
      segments/part=K/meta.json          # the partition record

The partition record is the unit of resume. ``stages/postings.
publish_partition`` is its only writer: it replaces ``postings.parquet``
atomically, derives every count from the table it wrote, and writes
``meta.json`` LAST, so a meta's presence implies a complete segment. The
segment's reader sits beside that writer: ``stages/postings.
read_partition``, ``decode_segment`` and ``read_segments`` are the only
code that opens and decodes a segment (``IndexReader.load_postings`` keeps
its own open; see ROADMAP #2). The record's keys: ``part``,
``n_terms`` (distinct terms), ``n_rows``, ``n_postings`` (Σ n_docs),
``bytes``, ``checksum_head_crc32`` (crc32 of the file's
first MiB), ``hot_terms_present`` (the salted hot terms it holds — the
only terms that can span partitions), plus the writer's lineage keys
(build: ``elapsed_s``, ``n_docs_partial``, ``tokens_partial``,
``input``; merge ``input``; repartition ``layout``; pruning
``pruned_top_n``). :func:`part_summaries` is its only reader into the
manifest: ``manifest.parts`` holds the :data:`PART_SUMMARY` keys of each
completed meta, read back from disk. A re-run scans the metas and skips
completed partitions (FIXTURES.md §4 semantics).

Every docmap (built, merged, repartitioned or copied) is published by
:func:`publish_dir`: written into ``docmap.parquet.tmp``, then renamed
over any old one, so an existing ``docmap.parquet`` is always complete
and a resume only checks that it exists. The one exception is the
build's sorted corpus checkpoint, written in place and completed by its
``_COMPLETE.json``.

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
import shutil
import tempfile
import zlib
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


def publish_dir(final: str, write) -> None:
    """Publish the directory ``final`` atomically. ``write`` fills
    ``final + ".tmp"``: a callable is given that path, a string names a
    directory to copy there. Any old ``final`` is then removed and the
    tmp renamed over it, so an existing ``final`` is always complete."""
    final = os.path.normpath(final)  # a trailing "/" would nest the tmp inside final
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if callable(write):
        write(tmp)
    else:
        shutil.copytree(write, tmp)
    os.makedirs(tmp, exist_ok=True)  # an empty write still publishes
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


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
    # lineage: part → its meta.json's PART_SUMMARY keys (part_summaries)
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


def segment_dir(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, "segments", f"part={part:05d}")


def head_crc32(path: str) -> int:
    """crc32 of a file's first MiB: the partition record's cheap
    integrity fingerprint, verified by snapshot and restore."""
    with open(path, "rb") as f:
        return zlib.crc32(f.read(1 << 20))


def part_meta(index_dir: str, part: int) -> dict:
    """A partition's ``meta.json`` record, ``{}`` when it has none."""
    path = os.path.join(segment_dir(index_dir, part), "meta.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def completed_parts(index_dir: str) -> dict[int, dict]:
    """Scan per-partition meta.json files — the resume source of truth."""
    # imported here: the segment format's module imports this one
    from hybrid_sanctions_search_engine_ray.stages.postings import segment_file

    seg_root = os.path.join(index_dir, "segments")
    if not os.path.isdir(seg_root):
        return {}
    parts = [int(n.split("=")[1]) for n in os.listdir(seg_root) if n.startswith("part=")]
    return {p: meta for p in parts
            if (meta := part_meta(index_dir, p)) and os.path.exists(segment_file(index_dir, p))}


# the partition-record keys the manifest carries per part
PART_SUMMARY = ("n_terms", "n_rows", "n_postings", "elapsed_s", "hot_terms_present")


def part_summaries(index_dir: str, num_partitions: int) -> dict[str, dict]:
    """``manifest.parts``: each completed meta of partitions
    ``0..num_partitions-1`` projected onto the :data:`PART_SUMMARY` keys
    it holds."""
    return {str(p): {k: meta[k] for k in PART_SUMMARY if k in meta}
            for p, meta in sorted(completed_parts(index_dir).items()) if p < num_partitions}


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
