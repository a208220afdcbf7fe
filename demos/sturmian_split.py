# The Sturmian route: two-word-per-length sets from special factors.
#
# A Sturmian word has exactly one right special and one left special factor
# per length. S1 collects the one-letter right extensions of the right
# special factors, S2 the one-letter left extensions of the left special
# ones; together with the short factors that is already enough to write any
# factor as a product of one word from each set.

from factorlang import (
    PreconditionError,
    build_decomposition,
    build_factor_index,
    parse_word_spec,
    sturmian_split_sets,
    verify_cover,
)

# build_decomposition runs the route: the sets, one split record per factor
# and the cover report of verify_cover.
index = build_factor_index(parse_word_spec("fib"), n_max=64)
dec = build_decomposition(index, "sturmian")
s1, s2 = dec.s_lang, dec.t_lang

print("fib, n_max 64:")
for n in [1, 2, 5, 21, 64]:
    print(f"  length {n}: |S1| = {s1.cardinality(n)}, |S2| = {s2.cardinality(n)}")
print(f"  S1 at length 2: {sorted(w for w in s1.words() if len(w) == 2)}")

print(f"  coverage: {dec.report.coverage:.6f} over {dec.report.total} factors")

# Each record holds the factor's leftmost cut certifying membership in S1 * S2.
v = index.source.prefix(40)[7:29]
rec = next(r for r in dec.records if r.v == v)
print(f"  {rec.v!r} = {rec.s!r} + {rec.t!r}")

# The construction checks the Sturmian signature before trusting it, so a
# word with the wrong complexity is rejected instead of silently producing
# sets that cannot work.
try:
    sturmian_split_sets(build_factor_index(parse_word_spec("tm"), n_max=32))
except PreconditionError as exc:
    print(f"\ntm rejected: {exc}")

# Any directive sequence gives another Sturmian word; the sets are just as
# thin even though the word itself looks quite different.
other = build_factor_index(parse_word_spec("sturm:2,(1)"), n_max=32)
o1, o2 = sturmian_split_sets(other)
print(f"\nsturm:2,(1) prefix: {other.source.prefix(20)}")
print(f"coverage: {verify_cover(other, o1, o2).coverage:.6f}")
