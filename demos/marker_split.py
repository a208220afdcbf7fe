# Marker-based decomposition for any linear-complexity word.
#
# The general route does not need morphism structure. It builds, for each
# order r, a set of length-2^r markers (right special factors) such that
# every factor of length D * 2^r contains one. Splitting at the leftmost
# marker of the largest usable order, classified by how the occurrence sits
# inside its periodic context, yields sets S and T whose per-length size is
# bounded by a constant computed from the word's own slope.

import numpy as np

from factorlang import (
    PreconditionError,
    build_all_markers,
    build_factor_index,
    build_st,
    parse_word_spec,
    split_sets_bound,
    verify_cover,
)
from factorlang.decompose import OCCURRENCE_CLASSES

for spec in ["tm", "fib"]:
    index = build_factor_index(parse_word_spec(spec), n_max=128)
    markers = build_all_markers(index)
    d = next(iter(markers.values())).D
    orders = sorted(markers)
    print(f"{spec}: D = {d}, orders {orders[0]}..{orders[-1]}")
    for r in orders:
        print(f"  order {r}: {sorted(markers[r].markers)}")

    s_lang, t_lang, rule = build_st(index, markers)
    report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
    c, _ = index.slope_constants()
    r_max = max(len(m.markers) for m in markers.values())
    bound = split_sets_bound(r_max, c, d)
    print(f"  coverage {report.coverage:.3f} over {report.total} factors")
    print(f"  per-length max: S = {s_lang.per_length_max()}, "
          f"T = {t_lang.per_length_max()}, bound {bound:.1f}")

    # one split in detail: the record of the factor window[60:60 + 5D], cut
    # at its first occurrence by the rule, which cuts a row of starts of one
    # length; the records are integer columns holding positions, not words
    window = index.window
    v = window[60:60 + 5 * d]
    start = window.find(v)
    record = rule(np.array([start]), len(v))
    cut = record.cut[0]
    print(f"  {v!r}\n"
          f"    = {window[start:cut]!r} + {window[cut:start + len(v)]!r} "
          f"(order {record.order[0]}, occurrence {OCCURRENCE_CLASSES[record.classes[0]]})")
    print()

# The marker property only exists for linear-complexity words. The abk word
# is quadratic, so its window holds more factors than the window's first
# half, and the builder refuses before building any marker instead of
# emitting sets whose bound would be meaningless.
index = build_factor_index(parse_word_spec("abk"), n_max=128)
try:
    build_all_markers(index)
except PreconditionError as exc:
    print(f"abk refused: {exc}")
