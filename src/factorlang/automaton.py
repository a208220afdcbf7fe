"""Suffix automaton over a text window, specialized for factor statistics.

The automaton recognizes the factors of the part of the window it has built
(see below). Construction is the classic online algorithm (Blumer et al.,
1985): a text of N letters has at most 2N - 1 states, so the build writes
into Python lists preallocated to that size (list indexing is faster than
numpy scalar access in the loop). Transitions are one dense list per
alphabet letter, which is compact for the two- or three-letter alphabets
used here.

Most of the build's memory is the boxed Python ints its lists hold, not the
list slots, so the build allocates as few ints as it can. The letter at
``pos`` makes the state ``pos + 1``, whose maxlen is its own id: one int
serves both. Clones are numbered from N + 1 up, and a clone's maxlen f is
stored as the int of the position state f, which has maxlen f. On abk and
pq nearly every letter makes a clone, so each letter keeps two new ints
(the position state's and the clone's id), not four. The build traces about
130 bytes a letter on abk and pq and about 117 on tm (tracemalloc, 2·10^5
letters).

The build is online, so it records, for every position, ``floor[pos]``: the
length of the longest suffix of ``text[:pos + 1]`` that occurred before. The
letter at ``pos`` adds exactly the factors of lengths ``floor[pos] + 1 ..
pos + 1``, the factors that first end there. So ``floor`` gives the
complexity profile of every prefix of the text, and the first occurrence of
every factor, from the one build.

Every reader of ``floor`` asks only whether it is below some n <= n_max, and
on the linear words studied here every factor of length up to n_max first
occurs early in the window. So the build takes a length cap ``n_max`` and
stops building once short factors stop being new: it builds blocks of
max(4096, n_max) letters, and after a block whose every ``floor`` is
>= n_max it walks the rest of the text through the automaton it has, as
:meth:`SuffixAutomaton.first_unmatched` walks a text, at about a third of
the cost of a build step a letter on abk. Where every length-n_max factor
of the rest occurs in the built part, the build stops, and ``floor`` reads
n_max there; where the walk misses, the build resumes through the miss,
and the next walk waits for twice as many clean blocks. The clean-block
test is one numpy minimum a block, outside the loop. With n_max >= N the
first block is the whole text, and every letter is built.

The build keeps ``floor``, unboxed in an ``array('q')``, ``n_states``, the
number of states built, its text and how far it has built, and, in one
private slot, the build's transition lists, suffix links and maxlens as
they stand. With those, ``first_unmatched`` runs another text through the
automaton, which is how a window's profile is checked against a longer
text without a build over the longer text; a caller that walks nothing
deletes the slot.
"""

from __future__ import annotations

from array import array

import numpy as np

# positions per histogram chunk in length_counts
_CHUNK = 1 << 16

# the least number of letters the build adds between two clean-block tests
_BLOCK = 4096


class SuffixAutomaton:
    """The suffix automaton of ``text``, built as far as the factors of
    lengths up to ``n_max`` need.

    ``floor[pos]`` is exact wherever it is below ``n_max``; at positions the
    build walked and did not build it reads ``n_max``, and the true value is
    at least that. So ``length_counts`` up to ``n_max``, of every prefix,
    reads the same as over a whole build. Its length-``n`` factors are those
    of ``text`` for every n <= n_max; ``first_unmatched`` finishes the build
    before it reports a longer factor as missing.
    """

    __slots__ = ("n_states", "floor", "_text", "_built", "_last", "_walk")

    def __init__(self, text: str, n_max: int):
        alphabet = sorted(set(text))
        size = max(2 * len(text), 1)
        floor = array("q", bytes(8 * len(text)))
        trans_of = dict(zip(alphabet, ([-1] * size for _ in alphabet)))
        self.n_states = 1
        self.floor = np.frombuffer(floor, dtype=np.int64)
        self._text, self._built, self._last = text, 0, 0
        self._walk = trans_of, [-1] * size, [0] * size, floor

        block, needed, clean = max(_BLOCK, n_max), 1, 0
        while self._built < len(text):
            start = self._built
            self._build(min(start + block, len(text)))
            clean = clean + 1 if self.floor[start:self._built].min() >= n_max else 0
            if clean < needed or self._built == len(text):
                continue
            # walk the rest from n_max - 1 letters back, so that the walk
            # checks the length-n_max factor ending at each unbuilt position
            walked = self._built - n_max + 1
            miss = self._first_miss(text[walked:], n_max)
            if miss is None:
                self.floor[self._built:] = n_max
                break
            self._build(walked + miss + 1)
            needed, clean = 2 * needed, 0

    def _build(self, stop: int):
        """Extend the automaton by the letters from ``_built`` up to ``stop``."""
        trans_of, link, maxlen, floor = self._walk
        trans = list(trans_of.values())
        start, last = self._built, self._last
        # the letter at pos makes the state pos + 1, whose maxlen is its id;
        # clones are numbered from N + 1 up, and n_states is the next one
        n_states = len(self._text) + self.n_states - start
        text = self._text[start:stop]
        for cur, tc in enumerate(map(trans_of.__getitem__, text), start + 1):
            maxlen[cur] = cur
            p = last
            while p != -1 and tc[p] == -1:
                tc[p] = cur
                p = link[p]
            if p == -1:
                link[cur] = 0
            else:
                q = tc[p]
                f = maxlen[p] + 1
                floor[cur - 1] = f
                if f == maxlen[q]:
                    link[cur] = q
                else:
                    clone = n_states
                    n_states += 1
                    # f <= cur, and the state f has maxlen f: store that int
                    maxlen[clone] = maxlen[f]
                    link[clone] = link[q]
                    for t in trans:
                        t[clone] = t[q]
                    while p != -1 and tc[p] == q:
                        tc[p] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        self.n_states = n_states - len(self._text) + stop
        self._last, self._built = last, stop

    def first_unmatched(self, text: str, n: int) -> int | None:
        """The end position of the first length-``n`` factor of ``text`` that
        is not a factor of the automaton's text, or None if there is none.

        The walk follows transitions and, where a letter has none, suffix
        links, keeping the length of the longest suffix of what it has read
        that is a factor, capped at ``n``; it stops where that length is
        below ``n`` after ``n`` letters or more. A letter the automaton's
        text lacks matches nothing. Where the walk misses on a part-built
        automaton, the build is finished first, and the walk goes on from
        the missed factor's start.
        """
        miss = self._first_miss(text, n)
        if miss is None or self._built == len(self._text):
            return miss
        self._build(len(self._text))
        rest = self._first_miss(text[miss - n + 1:], n)
        return None if rest is None else miss - n + 1 + rest

    def _first_miss(self, text: str, n: int) -> int | None:
        """:meth:`first_unmatched` on the automaton as built so far."""
        trans_of, link, maxlen, _ = self._walk
        state = length = 0
        for pos, tc in enumerate(map(trans_of.get, text)):
            if tc is None:
                state = length = 0
            else:
                nxt = tc[state]
                while nxt == -1 and state:
                    state = link[state]
                    nxt = tc[state]
                    length = maxlen[state]
                if nxt == -1:
                    length = 0
                elif length < n:
                    state = nxt
                    length += 1
                elif maxlen[link[nxt]] >= n:
                    # the capped length-n suffix is not in nxt, which starts
                    # at length n + 1, but in its suffix link
                    state = link[nxt]
                else:
                    state = nxt
            if length < n and pos >= n - 1:
                return pos
        return None

    def length_counts(self, n_max: int, prefix: int | None = None) -> np.ndarray:
        """Number of distinct factors per length 1..n_max (index 0 = length 1)
        of ``text[:prefix]`` (default: the whole text).

        The letter at ``pos`` adds the lengths floor[pos]+1 .. pos+1, so it
        adds length n exactly when floor[pos] <= n - 1 and pos >= n - 1. Of
        the m = ``prefix`` positions counted, the first min(m, n - 1) pass
        the first test, since floor[pos] <= pos, and fail the second: p(n)
        is the number of positions with floor[pos] <= n - 1, the running sum
        of a histogram of min(floor, n_max), less min(m, n - 1). The
        histogram is taken in chunks, so that no temporary is as long as the
        text: a build that may still walk keeps its transition lists alive
        beside ``floor``.
        """
        m = len(self.floor) if prefix is None else prefix
        below = np.zeros(n_max + 1, dtype=np.int64)
        for start in range(0, m, _CHUNK):
            chunk = self.floor[start:min(start + _CHUNK, m)]
            below += np.bincount(np.minimum(chunk, n_max), minlength=n_max + 1)
        return np.cumsum(below)[:n_max] - np.minimum(np.arange(n_max), m)
