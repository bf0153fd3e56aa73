"""Engine configuration.

Mirrors the reference's config surface (reference:
src/ai_service/layers/search/config.py:69-150, config/settings.py) as a
single frozen dataclass; BM25 parameters are the Elasticsearch defaults
the reference implicitly uses (no ``similarity`` override anywhere in
templates/elasticsearch/*.json — see BASELINE.md): k1=1.2, b=0.75,
idf = ln(1 + (N - df + 0.5) / (df + 0.5)).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any


@dataclass(frozen=True)
class AnalyzerConfig:
    """Tokenization / normalization chain configuration.

    ``mode="simple"``: lowercase + split on runs of non-alphanumerics —
    exactly expressible as DuckDB SQL
    (``regexp_split_to_array(lower(text), '[^\\p{L}\\p{N}]+')``), used by
    the oracle-checked queries.

    ``mode="full"``: the reference's composed chain (reference:
    src/ai_service/layers/patterns/high_recall_ac_generator.py:139-181
    ``normalize_for_ac`` + src/ai_service/layers/normalization/
    processors/token_processor.py:32-185 ``strip_noise_and_tokenize``):
    NFKC → apostrophe/hyphen unification → transliteration map
    (ё→е, ß→ss) → homoglyph fold to dominant script → casefold →
    punctuation strip preserving ``.-'`` → whitespace split →
    compound-initial split (А.С.Пушкин → [а., с., пушкин]) →
    date-pattern exclusion → optional stop-word removal.

    ``mode="char3"``: character 3-grams of the simple tokens (distinct
    per doc) — the reference's ``char_ngram_analyzer`` subfield.

    ``mode="shingle"``: simple tokens plus space-joined word 2- and
    3-shingles (reference ``shingle_analyzer``: min 2, max 3,
    output_unigrams=true — templates/elasticsearch/
    elasticsearch_component_template.json:20-29,47-52); gives the
    lexical tier phrase-proximity recall without positions.
    """

    mode: str = "simple"  # "simple" | "full" | "char3" | "edge" | "shingle"
    remove_stopwords: bool = False
    # duplicate-token removal (SURVEY §2 D5; reference:
    # normalization_factory.py:940-998): first occurrence kept under
    # casefold comparison, single-letter (initial-form) tokens exempt.
    # Incompatible with positional indexing (positions of dropped
    # occurrences are undefined — same caveat as an ES dedup filter).
    dedup_tokens: bool = False
    # suffix-stripping stemmer applied per token ("" = off; "ru" =
    # Snowball russian; "uk" = Ukrainian Porter-style — the lightweight
    # stand-ins for the reference's pymorphy ru+uk morphology layer,
    # functions/stemmer.py; "ru_names"/"uk_names" add the suppletive
    # diminutive→canonical given-name conflation on top, for fields
    # holding person names only)
    stem: str = ""
    # declares this analyzer configured for a PERSON-NAME field. The
    # "_names" stemmers conflate diminutive stems that collide with
    # common nouns (жен(а)→Евгений, кол→Николай — see
    # functions/stemmer.py), which destroys recall on general text; the
    # reference applies them only inside its name-matching layer.
    # build_analyzer warns when a "_names" stemmer is configured without
    # this flag so the misconfiguration fails loudly (ADVICE r04).
    name_field: bool = False
    # full mode only: reproduce the reference's language-split case rule
    # (lower() for strings containing Cyrillic, casefold() otherwise —
    # normalize_for_ac, high_recall_ac_generator.py:174-181). Default
    # off: uniform casefold() (documented recall-friendly deviation).
    lang_split_case: bool = False
    # full mode + lang_split_case only: route the case rule by a
    # DETECTED-LANGUAGE COLUMN instead of per-string script detection —
    # the faithful rendering of the reference's request-level language
    # parameter (normalize_for_ac receives the detected language of the
    # request, high_recall_ac_generator.py:174-181; our M3 langid stage
    # produces the column). When set, batches passed to the analyzer
    # stage must carry this column; rows whose value is "ru"/"uk" take
    # the lower() branch, every other value takes casefold(). None =
    # per-string script detection (the documented approximation).
    lang_col: str | None = None
    min_token_len: int = 1
    max_token_len: int = 64


@dataclass(frozen=True)
class EngineConfig:
    # BM25 (Elasticsearch defaults; BASELINE.md "BM25 parameters")
    k1: float = 1.2
    b: float = 0.75
    # top-k default (reference: layers/search/contracts.py:62 — default 50;
    # the cap of 1000 is pipelines/query.MAX_TOP_K)
    top_k: int = 50

    # Index layout
    num_partitions: int = 64          # term-hash partitions (≈2-4× cores; scale with cluster)
    block_size: int = 128             # docs per WAND block inside a posting
    max_postings_per_segment: int = 1 << 20   # sub-segment split threshold (skew; SURVEY §4.2)

    # Skew handling: terms whose estimated df exceeds this fraction of N
    # get doc-salted sub-partitions during the shuffle (SURVEY §7 step 9).
    hot_term_df_ratio: float = 0.05
    hot_term_salt_buckets: int = 8
    # consecutive doc-id blocks of 2^shift share a salt (keeps deltas small)
    hot_term_salt_shift: int = 12

    # Execution sizing
    analyze_batch_size: int = 8192
    # corpora whose on-disk bytes fit comfortably in the object store are
    # pinned in memory during the build (3 consumers, zero re-read);
    # larger corpora stream from disk (nothing corpus-sized pinned)
    in_memory_build_bytes: int = 256 << 20
    # shuffle mode for the postings exchange: "plain" rows through
    # groupby(part), or "packed" map-side-serialized payload blobs
    shuffle_mode: str = "packed"
    score_batch_size: int = 64        # queries per scorer-actor batch
    scorer_concurrency: int = 4

    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)

    def with_(self, **kw: Any) -> "EngineConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = EngineConfig()
