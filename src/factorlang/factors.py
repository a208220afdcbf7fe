"""Factor statistics of a finite window of an infinite word.

A :class:`FactorIndex` fixes a window (a prefix of the source of length
``n_work``) and a length cap ``n_max``, and answers per-length questions
about the distinct factors of the window: how many there are, which of them
are right or left special, where a factor first occurs. The distinct
first-occurrence starts are sorted once by the words they start; each
length's row of first occurrences, :meth:`FactorIndex.row`, is one filter of
that order, already in word order, and is the one way factors are
enumerated: every route, the cover check and splits.csv read rows, one
length at a time. All results are statements about the window;
``stabilized_profile`` justifies reading the profile as a property of the
infinite word by checking that doubling the window leaves it unchanged, with
one automaton over the window and a walk of the doubled window through it.
The default length cap and window size come from :mod:`factorlang.words`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .automaton import SuffixAutomaton, length_counts
from .errors import PreconditionError
from .words import DEFAULT_N_MAX, DEFAULT_STABILIZATION_FACTOR, WordSource


@dataclass(frozen=True)
class ComplexityProfile:
    """Complexity counts of one window, stamped with where they came from.

    ``p[i]`` is the number of distinct factors of length i+1 and ``g[i]`` the
    cumulative count over lengths 1..i+1.
    """

    source_spec: str
    n_work: int
    n_max: int
    p: tuple[int, ...]
    g: tuple[int, ...]

    @classmethod
    def from_counts(cls, source_spec: str, n_work: int,
                    p: np.ndarray) -> ComplexityProfile:
        """The profile of per-length counts ``p`` (index 0 = length 1)."""
        return cls(source_spec=source_spec, n_work=n_work, n_max=len(p),
                   p=tuple(int(x) for x in p), g=tuple(int(x) for x in np.cumsum(p)))

    def to_csv(self) -> str:
        lines = ["n,p,g"]
        for i, (pn, gn) in enumerate(zip(self.p, self.g)):
            lines.append(f"{i + 1},{pn},{gn}")
        return "\n".join(lines) + "\n"


class FactorIndex:
    """Queries over the distinct factors of ``window`` up to length ``n_max``.

    Everything comes from one suffix automaton over the window, and from its
    ``floor`` array alone, the one part of it the index keeps: the letter at
    ``pos`` adds the factors that first end there, with the lengths
    floor[pos] + 1 .. pos + 1. The automaton is built only as far as factors
    of length up to ``n_max`` are new, and ``floor`` is exact wherever it is
    below ``n_max``, which is all that is read of it. Counts are read from
    ``floor`` directly. Factors are enumerated by length, one row at a time:
    the first-occurrence starts of the length-n factors in word order, one
    filter on ``floor`` of one sorted array of the distinct first-occurrence
    starts, built on first use. ``factors_of_length`` reads the length-n row
    and the special factors of length n the length-(n + 1) row. No array of
    every length's starts is built or kept: rows hold integers, never factor
    strings, each is computed when it is read, and runs that only count
    factors read none.
    """

    def __init__(self, source: WordSource, window: str, n_max: int):
        self.source_spec = source.spec
        self.window = window
        self.n_work = len(window)
        self.n_max = n_max
        self._floor = SuffixAutomaton(window, n_max=n_max).floor
        self._p = length_counts(self._floor, n_max)
        self._g = np.cumsum(self._p)
        self._order: np.ndarray | None = None

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """The letters of the window, sorted."""
        return tuple(sorted(set(self.window)))

    # -- complexity ----------------------------------------------------------

    def _check_range(self, n: int, hi: int | None = None):
        hi = self.n_max if hi is None else hi
        if not 1 <= n <= hi:
            raise PreconditionError(
                "out-of-range", f"length {n} outside the indexed range 1..{hi}")

    def complexity(self, n: int) -> int:
        """Number of distinct factors of length ``n`` in the window."""
        self._check_range(n)
        return int(self._p[n - 1])

    def accumulative(self, n: int) -> int:
        """Total number of distinct factors of lengths 1..``n``."""
        self._check_range(n)
        return int(self._g[n - 1])

    def slope_constants(self) -> tuple[int, int]:
        """Smallest integer slopes (C, K) with p(n) <= C*n and g(n) <= K*n
        over the whole indexed range, so both constants are stamped by it."""
        return _slopes(self._p, self._g)

    def profile(self) -> ComplexityProfile:
        return ComplexityProfile.from_counts(self.source_spec, self.n_work, self._p)

    def detect_eventual_periodicity(self) -> int | None:
        """Smallest n with p(n+1) = p(n) within the indexed range, or None.

        A plateau in the complexity profile is the classical certificate that
        the window behaves like an ultimately periodic word; aperiodic words
        have strictly increasing complexity.
        """
        for n in range(1, self.n_max):
            if self._p[n] == self._p[n - 1]:
                return n
        return None

    def half_window_growth(self) -> int | None:
        """Smallest n with more factors of length n in the window than in its
        first half, or None.

        Both counts come from the one automaton's ``floor``, which counts the
        factors of every prefix of the window. In a window long enough for
        the linear words studied here, every factor of length up to n_max
        occurs in the first half already; a quadratic word's counts keep
        growing with the window.
        """
        half = length_counts(self._floor, self.n_max, prefix=self.n_work // 2)
        grown = np.nonzero(half != self._p)[0]
        return int(grown[0]) + 1 if len(grown) else None

    # -- factor enumeration --------------------------------------------------

    def row(self, n: int) -> np.ndarray:
        """The first-occurrence starts of the length-``n`` factors, in word
        order, as a new int64 array: the sorted distinct starts i with
        i + n <= n_work and floor[i + n - 1] < n, those whose length-n word
        first ends at i + n - 1. ``floor`` is exact below n_max, and reads
        n_max where the automaton walked, so both tests are exact. A length
        outside 1..n_max is refused as ``out-of-range``.

        The sorted starts are built on first use and kept. The letter at
        ``pos`` adds the factors that first end there, of the lengths
        floor[pos] + 1 .. min(pos + 1, n_max), so it adds the starts
        max(0, pos + 1 - n_max) .. pos - floor[pos], none when
        floor[pos] >= n_max. A difference array as long as the last such
        position + 2 marks the union of those ranges, the distinct starts.
        Two distinct words of one length n <= n_max differ within their
        first n letters, so ``window[i:i + n_max]`` orders the words starting
        at i exactly at every length, and the distinct starts are sorted once
        by that key. Only they are sorted, not every position up to the last
        one: where most positions start no new factor, as in the block
        product, they are a small part of it.
        """
        self._check_range(n)
        floor, n_max = self._floor, self.n_max
        if self._order is None:
            pos = np.flatnonzero(floor < n_max)
            size = int(pos.max(initial=-1)) + 2
            marks = np.cumsum(np.bincount(np.maximum(pos + 1 - n_max, 0), minlength=size)
                              - np.bincount(pos - floor[pos] + 1, minlength=size))
            distinct = np.flatnonzero(marks[:-1]).tolist()
            text = self.window
            distinct.sort(key=lambda i: text[i:i + n_max])
            self._order = np.array(distinct, dtype=np.int64)
        end = self._order + (n - 1)
        # a clipped end lies past the window, and the first test drops it
        return self._order[(end < self.n_work) & (floor.take(end, mode="clip") < n)]

    def factors_of_length(self, n: int) -> set[str]:
        """The distinct factors of length ``n``."""
        text = self.window
        return {text[i:i + n] for i in self.row(n).tolist()}

    # -- special factors -----------------------------------------------------

    def right_special(self, n: int) -> set[str]:
        """Factors of length ``n`` with at least two right extensions: the
        length-n prefixes shared by two or more factors of length n + 1.

        Queries stop one short of ``n_max`` because specialness of a factor
        of length n is read off extensions of length n+1.
        """
        self._check_range(n, self.n_max - 1)
        return self._shared_by_extensions(n, 0)

    def left_special(self, n: int) -> set[str]:
        """Factors of length ``n`` with at least two left extensions: the
        length-n suffixes shared by two or more factors of length n + 1."""
        self._check_range(n, self.n_max - 1)
        return self._shared_by_extensions(n, 1)

    def _shared_by_extensions(self, n: int, shift: int) -> set[str]:
        """The length-``n`` words at offset ``shift`` in two or more of the
        length-(n + 1) factors, read from the row of that length; sorted,
        equal words are neighbours."""
        text = self.window
        words = sorted(text[i:i + n] for i in (self.row(n + 1) + shift).tolist())
        return {a for a, b in zip(words, words[1:]) if a == b}


def _slopes(p: np.ndarray, g: np.ndarray) -> tuple[int, int]:
    """Smallest integer slopes (C, K) with p(n) <= C*n and g(n) <= K*n for
    n = 1..len(p)."""
    ns = np.arange(1, len(p) + 1)
    return int(np.max(-(-p // ns))), int(np.max(-(-g // ns)))


def _window_length(n_work: int | None, n_max: int) -> int:
    """The window length a request names, after the checks on ``n_max`` and
    on the window's size."""
    if n_max < 1:
        raise PreconditionError("out-of-range", f"n_max must be >= 1, got {n_max}")
    if n_work is None:
        n_work = DEFAULT_STABILIZATION_FACTOR * n_max
    if n_work < 2 * n_max:
        raise PreconditionError(
            "window-too-small",
            f"window of {n_work} letters cannot support n_max = {n_max}"
            f" (need at least {2 * n_max})")
    return n_work


def build_factor_index(source: WordSource, n_work: int | None = None,
                       n_max: int = DEFAULT_N_MAX) -> FactorIndex:
    """Index the length-``n_work`` prefix of ``source`` up to factor length ``n_max``.

    ``n_work`` defaults to ``DEFAULT_STABILIZATION_FACTOR * n_max``. Windows
    shorter than ``2 * n_max`` are rejected, since then even a single factor
    of maximal length cannot have two occurrences.
    """
    n_work = _window_length(n_work, n_max)
    return FactorIndex(source, source.prefix(n_work), n_max)


def stabilized_profile(source: WordSource, n_work: int | None = None,
                       n_max: int = DEFAULT_N_MAX) -> tuple[ComplexityProfile, bool]:
    """The complexity profile of the length-``n_work`` window, and whether
    doubling the window leaves it unchanged.

    The window is checked and defaulted as in :func:`build_factor_index`,
    and the prefix cap at ``n_work`` before the one at ``2 * n_work``, so an
    inadmissible request is refused before any letter is generated. The
    profile comes from the suffix automaton over the window, as in
    :class:`FactorIndex`, built as far as factors of length up to ``n_max``
    are new. The doubled window D has the same counts up to ``n_max``
    exactly when each of its length-``n_max`` factors occurs in the window
    W, since every shorter factor of D is a prefix of one of them or a
    suffix of the last; the factors inside W do, so the check walks
    ``D[n_work - n_max + 1:]`` through the automaton, at its own cap
    ``n_max``, and stops at the first factor that does not occur.
    """
    n_work = _window_length(n_work, n_max)
    source.check_length(n_work)
    doubled = source.prefix(2 * n_work)
    sam = SuffixAutomaton(doubled[:n_work], n_max=n_max)
    profile = ComplexityProfile.from_counts(source.spec, n_work, length_counts(sam.floor, n_max))
    return profile, sam.first_unmatched(doubled[n_work - n_max + 1:]) is None

