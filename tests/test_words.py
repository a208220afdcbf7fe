"""Word sources: fixed prefixes, recursions, and the word-spec mini-language."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlang import (
    Morphism,
    PreconditionError,
    WordSpecError,
    abk_product,
    fibonacci_word,
    fixed_point,
    parse_word_spec,
    pq_block_product,
    sturmian_characteristic,
    thue_morse,
    ultimately_periodic,
    words,
)
from oracles import letter_by_letter_fixed_point, whole_block_pq, whole_block_sturmian

TM_64 = "0110100110010110100101100110100110010110011010010110100110010110"


def test_thue_morse_prefix():
    assert thue_morse().prefix(8) == "01101001"
    assert thue_morse().prefix(64) == TM_64


def test_thue_morse_is_doubling_fixed_point():
    tm = thue_morse()
    w = tm.prefix(512)
    doubled = "".join("01" if c == "0" else "10" for c in w)
    assert doubled[:512] == w


def test_fibonacci_prefix():
    assert fibonacci_word().prefix(8) == "01001010"
    assert fibonacci_word().prefix(13) == "0100101001001"


def test_fibonacci_golden_morphism():
    # also the fixed point of 0 -> 01, 1 -> 0
    fib = fixed_point(Morphism({"0": "01", "1": "0"}, "0"))
    assert fib.prefix(200) == fibonacci_word().prefix(200)


def test_sturmian_directive_two_start():
    w = sturmian_characteristic(preperiod=(2,), period=(1,))
    assert w.prefix(7) == "0010001"


def test_sturmian_rejects_zero_entry():
    with pytest.raises(PreconditionError, match="invalid-directive"):
        sturmian_characteristic(preperiod=(1, 0), period=(1,))
    with pytest.raises(PreconditionError, match="invalid-directive"):
        sturmian_characteristic(period=(0,))


def test_abk_prefix():
    assert abk_product().prefix(9) == "ababbabbb"


def test_abk_matches_erased_fixed_point():
    # erasing the leading c from the fixed point of c -> cab, a -> ab, b -> b
    cab = fixed_point(Morphism({"c": "cab", "a": "ab", "b": "b"}, "c"))
    n = 10 ** 5
    assert cab.prefix(n + 1)[1:] == abk_product().prefix(n)


def test_cab_morphism_start():
    cab = fixed_point(Morphism({"c": "cab", "a": "ab", "b": "b"}, "c"))
    assert cab.prefix(6) == "cababb"


def test_pq_prefix_and_blocks():
    pq = pq_block_product()
    assert pq.prefix(8) == "abaabaab"
    # f(4) = 2, so the block with four a's and two b's occurs
    assert "aaaabb" in pq.prefix(400)


@pytest.mark.parametrize("f_name", ["isqrt", "id", "ilog2"])
@pytest.mark.parametrize("k_name", ["p", "2p", "const:1", "const:2", "const:3"])
def test_pq_named_growth_meets_the_sampler_preconditions(f_name, k_name):
    # f(1) >= 1, f(p) <= p and f non-decreasing; k(p, q) non-decreasing along
    # the block order: in q within a stage, and across p -> p + 1
    f, _ = words._resolve_f(f_name)
    k, _ = words._resolve_k(k_name)
    assert f(1) >= 1
    for p in range(1, 65):
        assert f(p) <= p and f(p) <= f(p + 1)
        assert all(k(p, q) <= k(p, q + 1) for q in range(1, f(p)))
        assert k(p, f(p)) <= k(p + 1, 1)


def test_pq_constant_repetition_spec():
    pq = pq_block_product(kpq="const:1")
    assert pq.prefix(3) == "aba"  # (ab)(aab)... each block once


@pytest.mark.parametrize("spec", ["pq:f=isqrt,k=const:10000000", "sturm:10000000",
                                  "sturm:1,(10000000)"])
def test_short_prefix_of_a_large_repetition_builds_no_whole_block(spec):
    # a whole block of these words holds 10^7 letters or more
    source = parse_word_spec(spec)
    tracemalloc.start()
    try:
        assert len(source.prefix(12)) == 12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


GROW_AND_SHRINK = [300, 1, 17, 120, 299, 2, 64, 250, 3, 300, 150]


@pytest.mark.parametrize("pre,per", [((), (1,)), ((), (2, 1)), ((), (3,)), ((1,), (4, 2)),
                                     ((2, 5), (1, 3)), ((), (7,))])
def test_sturmian_prefixes_match_whole_blocks(pre, per):
    want = whole_block_sturmian(pre, per, 300)
    for n in range(1, 301):
        assert sturmian_characteristic(pre, per).prefix(n) == want[:n]
    # growing and shrinking requests on one source
    source = sturmian_characteristic(pre, per)
    got = [source.prefix(n) for n in GROW_AND_SHRINK]
    assert got == [want[:n] for n in GROW_AND_SHRINK]


@pytest.mark.parametrize("f_name", ["isqrt", "id", "ilog2"])
@pytest.mark.parametrize("k_name", ["p", "2p", "const:1", "const:3", "const:7"])
def test_pq_prefixes_match_whole_blocks(f_name, k_name):
    f, _ = words._resolve_f(f_name)
    k, _ = words._resolve_k(k_name)
    want = whole_block_pq(f, k, 300)
    for n in range(1, 301):
        assert pq_block_product(f_name, k_name).prefix(n) == want[:n]
    source = pq_block_product(f_name, k_name)
    got = [source.prefix(n) for n in GROW_AND_SHRINK]
    assert got == [want[:n] for n in GROW_AND_SHRINK]


def test_ultimately_periodic():
    up = ultimately_periodic("01", "10")
    assert up.prefix(10) == "0110101010"
    assert ultimately_periodic("", "0").prefix(3) == "000"
    with pytest.raises(PreconditionError, match="empty-period"):
        ultimately_periodic("01", "")


def test_morphism_must_be_prolongable():
    with pytest.raises(PreconditionError, match="not-prolongable"):
        fixed_point(Morphism({"0": "0"}, "0"))
    with pytest.raises(PreconditionError, match="not-prolongable"):
        fixed_point(Morphism({"0": "10", "1": "01"}, "0"))


def test_morphism_images_stay_in_alphabet():
    with pytest.raises(PreconditionError, match="bad-morphism"):
        Morphism({"0": "01", "1": "2"}, "0")


def test_prefix_consistency_and_cap(monkeypatch):
    tm = thue_morse()
    assert tm.prefix(100).startswith(tm.prefix(40))
    monkeypatch.setattr(words, "PREFIX_CAP", 64)
    with pytest.raises(PreconditionError, match="resource-limit"):
        thue_morse().prefix(65)
    with pytest.raises(PreconditionError, match="out-of-range"):
        tm.prefix(-1)


@pytest.mark.parametrize("spec", ["tm", "fib", "abk", "sturm:2,(1)",
                                  "morphic:0->01,1->10@0", "ultper:01|10",
                                  "pq:f=isqrt,k=p"])
def test_parse_word_spec_passes_prefix_cap(monkeypatch, spec):
    monkeypatch.setattr(words, "PREFIX_CAP", 10)
    source = parse_word_spec(spec)
    assert len(source.prefix(10)) == 10
    with pytest.raises(PreconditionError, match="resource-limit"):
        source.prefix(11)


@pytest.mark.parametrize("spec,head", [
    ("tm", "01101001"),
    ("fib", "01001010"),
    ("sturm:(1)", "01001010"),
    ("sturm:2,(1)", "00100010"),
    ("morphic:0->01,1->10@0", "01101001"),
    ("ultper:01|10", "01101010"),
    ("abk", "ababbabb"),
    ("pq:f=isqrt,k=p", "abaabaab"),
])
def test_parse_word_spec_prefixes(spec, head):
    assert parse_word_spec(spec).prefix(8) == head


@pytest.mark.parametrize("text,token", [
    ("nosuch:1", "nosuch"),
    ("sturm:1,x", "'x'"),
    ("sturm:", "empty"),
    ("sturm:1,(2", "unclosed"),
    ("morphic:0->01,1->10", "@"),
    ("morphic:0=01@0", "0=01"),
    ("ultper:01", "|"),
    ("pq:f=cube,k=p", "cube"),
    ("pq:k=q*q,f=isqrt", "q*q"),
])
def test_parse_word_spec_names_bad_token(text, token):
    with pytest.raises(WordSpecError) as err:
        parse_word_spec(text)
    assert token in str(err.value)


def test_parse_word_spec_round_trip():
    for text in ["tm", "fib", "sturm:2,1,(3,4)", "morphic:0->01,1->10@0",
                 "ultper:01|10", "abk", "pq:f=isqrt,k=p"]:
        source = parse_word_spec(text)
        again = parse_word_spec(source.spec)
        assert again.spec == source.spec
        assert again.prefix(64) == source.prefix(64)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=300))
def test_morphic_prefix_is_fixed(n):
    tm = thue_morse()
    sigma = Morphism({"0": "01", "1": "10"}, "0")
    w = tm.prefix(n)
    image = "".join(sigma.images[c] for c in w)
    assert image.startswith(w) or len(w) < 2
    # sigma(prefix) is itself a prefix of the word
    assert tm.prefix(2 * n) == image


@settings(max_examples=20)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
       st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
def test_sturmian_directive_determinism(pre, per):
    a = sturmian_characteristic(tuple(pre), tuple(per)).prefix(120)
    b = sturmian_characteristic(tuple(pre), tuple(per)).prefix(120)
    assert a == b


@pytest.mark.parametrize("images,start", [
    ({"0": "01", "1": "10"}, "0"),
    ({"0": "01", "1": "00"}, "0"),
    ({"c": "cab", "a": "ab", "b": "b"}, "c"),
    ({"0": "001", "1": "0"}, "0"),
])
def test_fixed_point_matches_letter_by_letter_oracle(images, start):
    morphism = Morphism(images, start)
    want = letter_by_letter_fixed_point(images, start, 10 ** 5)
    for n in [*range(1, 301), 10 ** 5]:
        assert fixed_point(morphism).prefix(n) == want[:n]
    # growing and shrinking requests on one source
    source = fixed_point(morphism)
    for n in (1, 2, 3, 17, 300, 299, 4096, 10 ** 5, 5):
        assert source.prefix(n) == want[:n]
