"""Factor complexity and low-complexity decompositions of infinite words.

The package builds indexed windows of classic infinite words (Thue-Morse,
Sturmian words, block-product words), computes per-length factor counts, and
splits every factor as a product of two small per-length sets, either through
repetition markers, through word-specific structure, or greedily under an
explicit budget.
"""

import os

# numpy's OpenBLAS starts a thread pool when numpy is imported; factorlang does
# no linear algebra, so one thread saves that start-up. A value set by the
# user still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .automaton import SuffixAutomaton
from .decompose import (
    CoverReport,
    Decomposition,
    LeveledLanguage,
    MarkerOccurrences,
    SplitRecord,
    build_decomposition,
    build_st,
    compositions_count,
    greedy_two_sets,
    product_complexity_bound,
    split_factor,
    split_records_to_csv,
    split_sets_bound,
    sturmian_split_sets,
    thue_morse_split_sets,
    verify_cover,
)
from .errors import (
    FactorLangError,
    PreconditionError,
    VerificationError,
    WordSpecError,
)
from .experiments import (
    GrowthFit,
    ProductBoundReport,
    growth_fit,
    product_bound_audit,
    resolve_model,
    staircase_pair_count,
    witness_pair_count,
)
from .factors import (
    ComplexityProfile,
    FactorIndex,
    build_factor_index,
    stabilized_profile,
)
from .periodicity import (
    MarkerSet,
    build_all_markers,
    build_markers,
    classify_occurrence,
    markers_to_jsonl,
    minimal_period,
    require_linear_window,
    verify_marker_property,
)
from .words import (
    Morphism,
    WordSource,
    abk_product,
    fibonacci_word,
    fixed_point,
    parse_word_spec,
    pq_block_product,
    sturmian_characteristic,
    thue_morse,
    ultimately_periodic,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexityProfile",
    "CoverReport",
    "Decomposition",
    "FactorIndex",
    "FactorLangError",
    "GrowthFit",
    "LeveledLanguage",
    "MarkerOccurrences",
    "MarkerSet",
    "Morphism",
    "PreconditionError",
    "ProductBoundReport",
    "SplitRecord",
    "SuffixAutomaton",
    "VerificationError",
    "WordSource",
    "WordSpecError",
    "abk_product",
    "build_all_markers",
    "build_decomposition",
    "build_factor_index",
    "build_markers",
    "build_st",
    "classify_occurrence",
    "compositions_count",
    "fibonacci_word",
    "fixed_point",
    "greedy_two_sets",
    "growth_fit",
    "markers_to_jsonl",
    "minimal_period",
    "parse_word_spec",
    "pq_block_product",
    "product_bound_audit",
    "product_complexity_bound",
    "require_linear_window",
    "resolve_model",
    "split_factor",
    "split_records_to_csv",
    "split_sets_bound",
    "stabilized_profile",
    "staircase_pair_count",
    "sturmian_characteristic",
    "sturmian_split_sets",
    "thue_morse",
    "thue_morse_split_sets",
    "ultimately_periodic",
    "verify_cover",
    "verify_marker_property",
    "witness_pair_count",
]
