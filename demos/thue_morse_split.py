# Splitting every Thue-Morse factor across two thin sets.
#
# The doubling morphism 0 -> 01, 1 -> 10 generates the word in rounds, and
# each round tiles the word with the two length-2^r blocks. Cutting a factor
# at the tile boundary of highest order inside its first occurrence leaves a
# suffix of some block on the left and a prefix of one on the right. Taking
# S1 = suffixes of the blocks and S2 = prefixes of the blocks therefore
# covers every factor as one product S1 * S2, and both sets hold exactly two
# words per length.

import numpy as np

from factorlang import build_factor_index, thue_morse, thue_morse_split_sets, verify_cover

N_MAX = 64

index = build_factor_index(thue_morse(), n_max=N_MAX)
s1, s2, rule = thue_morse_split_sets(index)

print("per-length cardinalities (they never move):")
for m in [1, 2, 3, 8, 31, 64]:
    print(f"  length {m}: |S1| = {s1.cardinality(m)}, |S2| = {s2.cardinality(m)}")

print()
print("sample cuts at first occurrences (boundary position is absolute in the window):")
window = index.window
samples = ["11", "0110", "10010110", min(index.factors_of_length(21))]
# the rule cuts a row of starts of one length and returns its records as
# columns; here each row holds one start
for v in samples:
    (start, cut, end, order, position, _), = rule(np.array([window.find(v)]), len(v)).tuples()
    print(f"  {v!r} -> {window[start:cut]!r} + {window[cut:end]!r}"
          f"  (order {order}, boundary at {position})")

report = verify_cover(index.window, index.row, index.n_max, s1, s2)
print()
print(f"coverage of all factors up to length {N_MAX}: {report.coverage:.6f}")
print(f"factors checked: {report.total}")
