"""Reference computations that the benchmark checks factorlang's outputs against.

Nothing here imports factorlang. The words are regenerated from their
definitions, complexity comes from closed forms (Thue-Morse, Fibonacci) or a
sliding window over the same prefix (abk, pq), and the counting experiments
are recounted from their definitions. ``self_test`` checks the closed forms
and the sliding-window count by brute force on small inputs, so a wrong
oracle cannot pass a wrong program; ``run.py`` calls it before every run.

Run ``python3 bench/oracles.py`` to run the self-test alone.
"""

from __future__ import annotations

import math


# -- words ----------------------------------------------------------------------


def thue_morse(n: int) -> str:
    """t_i is the parity of the number of ones in the binary form of i."""
    return "".join("01"[bin(i).count("1") & 1] for i in range(n))


def fibonacci(n: int) -> str:
    """Fixed point of 0 -> 01, 1 -> 0."""
    w = "0"
    while len(w) < n:
        w = "".join("01" if ch == "0" else "0" for ch in w)
    return w[:n]


def abk(n: int) -> str:
    """The blocks a b^k for k = 1, 2, 3, ... in a row."""
    parts, total, k = [], 0, 1
    while total < n:
        parts.append("a" + "b" * k)
        total += k + 1
        k += 1
    return "".join(parts)[:n]


def pq_isqrt_p(n: int) -> str:
    """The blocks (a^p b^q)^p for p = 1, 2, ... and q = 1 .. isqrt(p)."""
    parts, total, p = [], 0, 1
    while total < n:
        for q in range(1, math.isqrt(p) + 1):
            parts.append(("a" * p + "b" * q) * p)
            total += len(parts[-1])
        p += 1
    return "".join(parts)[:n]


WORDS = {"tm": thue_morse, "fib": fibonacci, "abk": abk,
         "pq:f=isqrt,k=p": pq_isqrt_p}


# -- complexity -----------------------------------------------------------------


def tm_complexity(n: int) -> int:
    """Closed form of Brlek and of de Luca-Varricchio for the Thue-Morse word.

    For n >= 3 write n - 1 = 2^r + q with 0 < q <= 2^r; then p(n) is
    3 * 2^r + 4q when 2q <= 2^r and 4 * 2^r + 2q otherwise.
    """
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2 ** r
    return 3 * 2 ** r + 4 * q if 2 * q <= 2 ** r else 4 * 2 ** r + 2 * q


def fib_complexity(n: int) -> int:
    return n + 1


CLOSED_FORMS = {"tm": tm_complexity, "fib": fib_complexity}


def sliding_complexity(word: str, n: int) -> int:
    """Number of distinct length-n windows of ``word``.

    Windows are kept as 64-bit string hashes so that memory stays at one
    integer per distinct factor; a collision could only lower the count.
    """
    return len({hash(word[i:i + n]) for i in range(len(word) - n + 1)})


def split_sets_bound(r: int, c: int, d: int) -> float:
    """The marker route's per-length bound R (log2 D + 2)(1 + 4C(2D + 1))."""
    return r * (math.log2(d) + 2) * (1 + 4 * c * (2 * d + 1))


# -- counting experiments -------------------------------------------------------


def staircase_pairs(n: int) -> int:
    """Pairs (k, l), k >= 3, l * l >= n, whose word a b^l a ... b^(l+k-1) a
    has at most n letters. That word has k(2l + k + 1)/2 + 1 letters, so
    for each k the admissible l form one interval."""
    l_min = math.isqrt(n - 1) + 1 if n > 1 else 1
    total, k = 0, 3
    while k * (2 * l_min + k + 1) // 2 + 1 <= n:
        l_max = (2 * (n - 1) - k * (k + 1)) // (2 * k)
        total += l_max - l_min + 1
        k += 1
    return total


def witness_pairs(n: int, k: int) -> int:
    """Pairs (p, q), 1 <= q <= isqrt(p), repetition count p >= 2k - 1 and
    (p + q)(2k - 1) < n - 2, that is p + q <= (n - 3) // (2k - 1)."""
    need = 2 * k - 1
    top = (n - 3) // need
    return sum(min(math.isqrt(p), top - p) for p in range(need, top))


# -- self-test ------------------------------------------------------------------


def _exact_count(word: str, n: int) -> int:
    return len({word[i:i + n] for i in range(len(word) - n + 1)})


def _staircase_brute(n: int) -> int:
    total = 0
    for k in range(3, n + 1):
        for l in range(1, n + 1):
            w = "a" + "".join("b" * (l + j) + "a" for j in range(k))
            if len(w) <= n and l * l >= n:
                total += 1
    return total


def _witness_brute(n: int, k: int) -> int:
    need = 2 * k - 1
    return sum(1 for p in range(1, n) for q in range(1, math.isqrt(p) + 1)
               if p >= need and (p + q) * need < n - 2)


class OracleError(Exception):
    pass


def _expect(ok: bool, what):
    if not ok:
        raise OracleError(f"oracle disagrees with brute force: {what}")


def self_test():
    """Raise OracleError when an oracle disagrees with brute force."""
    _expect(thue_morse(16) == "0110100110010110", "generator")
    _expect(fibonacci(13) == "0100101001001", "generator")
    _expect(abk(9) == "ababbabbb", "generator")
    _expect(pq_isqrt_p(21) == "ab" + "aab" * 2 + "aaab" * 3 + "a", "generator")
    tm, fib = thue_morse(1 << 12), fibonacci(3000)
    for n in range(1, 49):
        _expect(tm_complexity(n) == _exact_count(tm, n), ("tm", n))
        _expect(fib_complexity(n) == _exact_count(fib, n), ("fib", n))
    for word in (abk(3000), pq_isqrt_p(3000), tm[:3000]):
        for n in (1, 2, 3, 7, 31, 100):
            _expect(sliding_complexity(word, n) == _exact_count(word, n), n)
    for n in (1, 2, 9, 30, 64, 100):
        _expect(staircase_pairs(n) == _staircase_brute(n), ("staircase", n))
    for n, k in ((3, 1), (4, 1), (50, 2), (200, 3), (400, 3), (1000, 3)):
        _expect(witness_pairs(n, k) == _witness_brute(n, k), ("witness", n, k))


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
