"""Generators for prefixes of the infinite words under study.

A :class:`WordSource` is an immutable recipe for one infinite word together
with a grow-only prefix cache, so ``prefix`` is a pure function of the
construction parameters. Words are plain Python strings over a small
alphabet of single characters ('0'/'1' for the binary substitutive words,
'a'/'b' for the block-product words).

Sources can also be described by a compact spec string (``tm``, ``fib``,
``sturm:2,(1)``, ``morphic:0->01,1->10@0``, ``ultper:01|10``, ``abk``,
``pq:f=isqrt,k=p``); :func:`parse_word_spec` turns one into a source and
``source.spec`` is the canonical round-trip form.

Every source refuses a prefix longer than :data:`PREFIX_CAP` letters with
``resource-limit``; the cap is read when a prefix is requested, so a test can
lower it with ``monkeypatch.setattr(words, "PREFIX_CAP", ...)``. The default
factor length cap, :data:`DEFAULT_N_MAX`, and the default window of
:data:`DEFAULT_STABILIZATION_FACTOR` letters per unit of it live here too, so
the command line reads them without importing the numpy layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import PreconditionError, WordSpecError

PREFIX_CAP = 2 ** 24
DEFAULT_N_MAX = 128
DEFAULT_STABILIZATION_FACTOR = 50


@dataclass(frozen=True)
class Morphism:
    """A letter-to-word substitution over a fixed alphabet.

    ``images`` maps each letter (a one-character string) to its image word.
    ``start`` is the letter the fixed point grows from; its image must begin
    with the letter itself and be at least two letters long, and no image may
    be empty, so iterating the morphism extends a strictly growing prefix.
    """

    images: dict[str, str]
    start: str

    def __post_init__(self):
        for letter, image in self.images.items():
            if len(letter) != 1:
                raise PreconditionError(
                    "bad-morphism", f"letters must be single characters, got {letter!r}")
            if image == "":
                raise PreconditionError(
                    "not-prolongable", f"image of {letter!r} is empty")
            for b in image:
                if b not in self.images:
                    raise PreconditionError(
                        "bad-morphism",
                        f"image letter {b!r} has no image of its own")
        if self.start not in self.images:
            raise PreconditionError(
                "bad-morphism", f"start letter {self.start!r} has no image")
        head = self.images[self.start]
        if len(head) < 2 or not head.startswith(self.start):
            raise PreconditionError(
                "not-prolongable",
                f"image of start letter must begin with it and have length >= 2,"
                f" got {self.start!r} -> {head!r}")


class WordSource:
    """One infinite word with lazy, cached prefix generation.

    ``grow(n)`` must return a prefix of the word of length at least ``n`` and
    be consistent across calls (each result a prefix of any longer one). The
    cache only ever extends, so concurrent readers are safe.
    """

    def __init__(self, spec: str, grow: Callable[[int], str]):
        self.spec = spec
        self._grow = grow
        self._cache = ""

    def __repr__(self) -> str:
        return f"WordSource({self.spec!r})"

    def check_length(self, n: int):
        """Refuse a prefix length outside 0..PREFIX_CAP, as ``prefix`` does."""
        if n < 0:
            raise PreconditionError("out-of-range", f"prefix length must be >= 0, got {n}")
        if n > PREFIX_CAP:
            raise PreconditionError(
                "resource-limit",
                f"prefix length {n} exceeds the configured cap {PREFIX_CAP}")

    def prefix(self, n: int) -> str:
        """First ``n`` letters of the word."""
        self.check_length(n)
        if len(self._cache) < n:
            got = self._grow(n)
            if len(got) < n or (self._cache and not got.startswith(self._cache)):
                raise PreconditionError(
                    "bad-generator", f"generator for {self.spec} is inconsistent")
            self._cache = got
        return self._cache[:n]


def fixed_point(morphism: Morphism, _spec: str | None = None) -> WordSource:
    """Fixed point of a prolongable morphism, starting from its start letter.

    Generation reads the word a block at a time and appends the images of
    the block's letters, in order, as one string made by ``str.translate``,
    so no object is made per letter. A block lies within one appended
    piece and holds at most the letters still missing divided by the
    longest image, rounded up, so the prefix overshoots the request by less
    than one image and the temporaries stay near one window. The work
    stays linear in the requested length even when the morphism grows
    slowly (for instance c->cab, a->ab, b->b), where each block is short.
    """
    images = morphism.images
    widest = max(map(len, images.values()))
    table = str.maketrans(images)

    def grow(n: int) -> str:
        # the unread letters start at parts[c][o]; the image of the start
        # letter begins with that letter, so its second letter is the first
        parts = [images[morphism.start]]
        total, c, o = len(parts[0]), 0, 1
        while total < n:
            # ceil((n - total) / widest) letters add fewer than n - total + widest
            block = parts[c][o:o + -(-(n - total) // widest)]
            o += len(block)
            if o == len(parts[c]):
                c, o = c + 1, 0
            parts.append(block.translate(table))
            total += len(parts[-1])
        return "".join(parts)

    if _spec is None:
        rules = ",".join(f"{a}->{img}" for a, img in sorted(morphism.images.items()))
        _spec = f"morphic:{rules}@{morphism.start}"
    return WordSource(_spec, grow)


def thue_morse() -> WordSource:
    """The Thue-Morse word 01101001... (fixed point of 0->01, 1->10)."""
    return fixed_point(Morphism({"0": "01", "1": "10"}, "0"), _spec="tm")


def sturmian_characteristic(preperiod=(), period=(1,), _spec: str | None = None) -> WordSource:
    """Characteristic Sturmian word for an eventually periodic directive.

    The directive entries a_1, a_2, ... (all positive) drive the standard-word
    recursion s_{-1} = "1", s_0 = "0", s_{j+1} = s_j^{a_{j+1}} s_{j-1}; every
    s_j is a prefix of the next, and the word is their common extension. The
    all-ones directive gives the Fibonacci word 01001010... A request of n
    letters stops at the first s_j with a_{j+1} copies as long as n, and
    returns as few copies of s_j as make n letters, so a large entry costs
    no more than the letters asked for.
    """
    pre = tuple(int(a) for a in preperiod)
    per = tuple(int(a) for a in period)
    if not per:
        raise PreconditionError("invalid-directive", "directive period must be non-empty")
    for a in pre + per:
        if a < 1:
            raise PreconditionError(
                "invalid-directive", f"directive entries must be >= 1, got {a}")

    def entry(j: int) -> int:
        if j < len(pre):
            return pre[j]
        return per[(j - len(pre)) % len(per)]

    def grow(n: int) -> str:
        s_prev, s_cur = "1", "0"
        j = 0
        while len(s_cur) < n:
            if len(s_cur) * entry(j) >= n:
                # ceil(n / |s_j|) <= a copies: a prefix of s_{j+1} = s_j^a s_{j-1}
                return s_cur * -(-n // len(s_cur))
            s_prev, s_cur = s_cur, s_cur * entry(j) + s_prev
            j += 1
        return s_cur

    if _spec is None:
        head = ",".join(str(a) for a in pre)
        tail = "(" + ",".join(str(a) for a in per) + ")"
        _spec = "sturm:" + (head + "," + tail if head else tail)
    return WordSource(_spec, grow)


def fibonacci_word() -> WordSource:
    """The Fibonacci word 01001010..., the all-ones directive Sturmian word."""
    return sturmian_characteristic((), (1,), _spec="fib")


def ultimately_periodic(preperiod: str, period: str) -> WordSource:
    """The word preperiod . period . period . ... with a non-empty period."""
    if period == "":
        raise PreconditionError("empty-period", "period must be non-empty")

    def grow(n: int) -> str:
        if n <= len(preperiod):
            return preperiod
        reps = (n - len(preperiod)) // len(period) + 1
        return preperiod + period * reps

    return WordSource(f"ultper:{preperiod}|{period}", grow)


def abk_product() -> WordSource:
    """The concatenation of the blocks a b^k for k = 1, 2, 3, ...

    The same word is obtained by erasing the leading c from the fixed point
    of c->cab, a->ab, b->b; its complexity grows quadratically.
    """

    def grow(n: int) -> str:
        parts = []
        total = 0
        k = 1
        while total < n:
            parts.append("a" + "b" * k)
            total += k + 1
            k += 1
        return "".join(parts)

    return WordSource("abk", grow)


_F_SPECS: dict[str, Callable[[int], int]] = {
    "isqrt": math.isqrt,
    "id": lambda n: n,
    "ilog2": lambda n: n.bit_length(),
}

_K_SPECS: dict[str, Callable[[int, int], int]] = {
    "p": lambda p, q: p,
    "2p": lambda p, q: 2 * p,
}


def _resolve_f(spec):
    if spec in _F_SPECS:
        return _F_SPECS[spec], spec
    raise WordSpecError("bad-word-spec", f"unknown run-count function {spec!r}")


def _resolve_k(spec):
    if spec in _K_SPECS:
        return _K_SPECS[spec], spec
    if spec.startswith("const:"):
        try:
            c = int(spec.split(":", 1)[1])
        except ValueError:
            raise WordSpecError("bad-word-spec", f"bad repetition constant in {spec!r}")
        if c < 1:
            raise PreconditionError("invalid-growth", f"repetition count must be >= 1, got {c}")
        return (lambda p, q: c), spec
    raise WordSpecError("bad-word-spec", f"unknown repetition function {spec!r}")


def pq_block_product(f="isqrt", kpq="p") -> WordSource:
    """The concatenation over p = 1, 2, ... and q = 1..f(p) of (a^p b^q)^k(p,q).

    ``f`` bounds the b-run lengths used at stage p and ``kpq`` gives the
    repetition count of each block, both by name (f: isqrt, id, ilog2; k: p,
    2p, const:<m>). Every named f has f(1) >= 1, f(p) <= p and is
    non-decreasing, and every named k is non-decreasing along the block
    order, which the construction presumes. A block is repeated no more
    often than the letters still missing need, so a large repetition
    constant costs no more than the letters asked for.
    """
    f_fn, f_name = _resolve_f(f)
    k_fn, k_name = _resolve_k(kpq)

    def grow(n: int) -> str:
        parts = []
        total = 0
        p = 1
        while total < n:
            for q in range(1, f_fn(p) + 1):
                block = ("a" * p + "b" * q) * min(k_fn(p, q), -(-(n - total) // (p + q)))
                parts.append(block)
                total += len(block)
                if total >= n:
                    break
            p += 1
        return "".join(parts)

    return WordSource(f"pq:f={f_name},k={k_name}", grow)


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise WordSpecError("bad-word-spec", f"bad {what} {token!r}: not an integer")


def _parse_directive(body: str):
    """Parse ``a1,a2,...,(b1,b2,...)``; a bare list is treated as the period."""
    body = body.strip()
    if not body:
        raise WordSpecError("bad-word-spec", "empty directive")
    if "(" in body:
        head, _, tail = body.partition("(")
        if not tail.endswith(")"):
            raise WordSpecError("bad-word-spec", f"unclosed period group in {body!r}")
        head = head.rstrip(",")
        pre = [_parse_int(t, "directive entry") for t in head.split(",") if t] if head else []
        per_body = tail[:-1]
        per = [_parse_int(t, "directive entry") for t in per_body.split(",") if t]
        if not per:
            raise WordSpecError("bad-word-spec", f"empty period group in {body!r}")
        return tuple(pre), tuple(per)
    entries = [_parse_int(t, "directive entry") for t in body.split(",") if t]
    if not entries:
        raise WordSpecError("bad-word-spec", "empty directive")
    return (), tuple(entries)


def _parse_morphic(body: str) -> WordSource:
    rules_part, at, start = body.rpartition("@")
    if not at:
        raise WordSpecError("bad-word-spec", "morphic spec needs @<start letter>")
    if len(start) != 1:
        raise WordSpecError("bad-word-spec", f"start must be one letter, got {start!r}")
    images = {}
    for rule in rules_part.split(","):
        left, arrow, right = rule.partition("->")
        if not arrow or len(left) != 1 or not right:
            raise WordSpecError("bad-word-spec", f"bad morphism rule {rule!r}")
        if left in images:
            raise WordSpecError("bad-word-spec", f"duplicate rule for letter {left!r}")
        images[left] = right
    return fixed_point(Morphism(images, start))


def _parse_pq(body: str) -> WordSource:
    f_spec, k_spec = "isqrt", "p"
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise WordSpecError("bad-word-spec", f"bad pq option {item!r}")
            if key == "f":
                f_spec = value
            elif key == "k":
                k_spec = value
            else:
                raise WordSpecError("bad-word-spec", f"unknown pq option {key!r}")
    return pq_block_product(f_spec, k_spec)


def parse_word_spec(text: str) -> WordSource:
    """Build a word source from its spec string."""
    text = text.strip()
    kind, colon, body = text.partition(":")
    if kind == "tm" and not colon:
        return thue_morse()
    if kind == "fib" and not colon:
        return fibonacci_word()
    if kind == "abk" and not colon:
        return abk_product()
    if kind == "sturm":
        pre, per = _parse_directive(body)
        return sturmian_characteristic(pre, per)
    if kind == "morphic":
        return _parse_morphic(body)
    if kind == "ultper":
        head, bar, tail = body.partition("|")
        if not bar:
            raise WordSpecError("bad-word-spec", "ultper spec needs <preperiod>|<period>")
        return ultimately_periodic(head, tail)
    if kind == "pq":
        return _parse_pq(body)
    raise WordSpecError("bad-word-spec", f"unknown word kind {kind!r}")
