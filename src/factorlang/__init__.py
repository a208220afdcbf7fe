"""Factor complexity and low-complexity decompositions of infinite words.

The package builds indexed windows of classic infinite words (Thue-Morse,
Sturmian words, block-product words), computes per-length factor counts, and
splits every factor as a product of two small per-length sets, either through
repetition markers, through word-specific structure, or greedily under an
explicit budget.

``import factorlang`` loads none of the modules behind the names of
``__all__``: each name is imported from its home module on first use
(PEP 562). Only ``automaton``, ``factors``, ``periodicity`` and
``decompose`` import numpy, so code that reads ``words``, ``errors`` and
``experiments`` alone, the counting experiments among it, runs without it.
"""

import os

# numpy's OpenBLAS starts a thread pool when numpy is imported, which the
# modules that use it do after this line; factorlang does no linear algebra,
# so one thread saves that start-up. A value set by the user still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib

# the public names by home module, each imported on first use
_HOMES = {
    "automaton": ("SuffixAutomaton",),
    "decompose": (
        "CoverReport",
        "Decomposition",
        "LeveledLanguage",
        "SplitRecords",
        "build_decomposition",
        "build_st",
        "greedy_two_sets",
        "split_records_to_csv",
        "split_sets_bound",
        "sturmian_split_sets",
        "thue_morse_split_sets",
        "verify_cover",
    ),
    "errors": (
        "FactorLangError",
        "PreconditionError",
        "VerificationError",
        "WordSpecError",
    ),
    "experiments": (
        "GrowthFit",
        "ProductBoundReport",
        "compositions_count",
        "growth_fit",
        "product_bound_audit",
        "product_complexity_bound",
        "resolve_model",
        "staircase_pair_count",
        "witness_pair_count",
    ),
    "factors": (
        "ComplexityProfile",
        "FactorIndex",
        "build_factor_index",
        "stabilized_profile",
    ),
    "periodicity": (
        "MarkerSet",
        "build_all_markers",
        "build_markers",
        "classify_occurrence",
        "markers_to_jsonl",
        "minimal_period",
        "require_linear_window",
        "verify_marker_property",
    ),
    "words": (
        "Morphism",
        "WordSource",
        "abk_product",
        "fibonacci_word",
        "fixed_point",
        "parse_word_spec",
        "pq_block_product",
        "sturmian_characteristic",
        "thue_morse",
        "ultimately_periodic",
    ),
}

# public name -> home module
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
