# Greedy decomposition of an arbitrary leveled language.
#
# When the accumulative count g(n) stays under K*n, a straightforward greedy
# pass already produces a two-set decomposition with at most 2K+1 words per
# length in each set: walk the words in length order and, for each one, take
# the leftmost cut whose two halves are cheapest to insert, refusing any
# insertion that would push a set past its per-length cap.

from factorlang import (
    LeveledLanguage,
    PreconditionError,
    build_decomposition,
    build_factor_index,
    greedy_two_sets,
    thue_morse,
)

# Thue-Morse prefixes form a language with exactly one word per length, so
# g(n) = n and the budget slope is K = 1. The greedy route of
# build_decomposition splits the prefixes of the window up to n_max and
# records the leftmost cut of each, one row per length, shortest first.
index = build_factor_index(thue_morse(), n_max=64)
dec = build_decomposition(index, "greedy", budget=1)
s_lang, t_lang = dec.s_lang, dec.t_lang

print("tm prefixes up to 64, budget slope 1:")
print(f"  per-length max: S = {s_lang.per_length_max()},"
      f" T = {t_lang.per_length_max()} (cap would be 3)")
print(f"  |S| = {s_lang.total()}, |T| = {t_lang.total()}")

window = index.window
rows = list(dec.rows())
for n in (6, 41):
    (start, cut, end, *_), = rows[n - 1].tuples()
    print(f"  {window[start:end]!r} = {window[start:cut]!r} + {window[cut:end]!r}")

# The same pass on a language that genuinely needs more than two factors per
# product cannot succeed, and says so. All binary words up to length 6 have
# g(n) growing like 2^n, far past any linear budget.
dense = LeveledLanguage()
for n in range(1, 7):
    for i in range(2 ** n):
        dense.add(format(i, f"0{n}b"))

try:
    greedy_two_sets(dense, 1)
except PreconditionError as exc:
    print(f"\ndense language refused: {exc}")
