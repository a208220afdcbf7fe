"""Suffix automaton over a text window, specialized for factor statistics.

The automaton recognizes exactly the factors of the window. Each state is an
equivalence class of factors sharing the same set of ending positions, so a
state covers a contiguous interval of factor lengths [minlen, maxlen], all
its factors have the same set of right-extension letters (the out-going
transition letters), and they share the first (leftmost) ending position.
Those three facts drive every per-length statistic downstream.

States are integers into parallel arrays; transitions are one dense array per
alphabet letter, which is compact for the two- or three-letter alphabets used
here. Construction is the classic online algorithm. A text of N letters has
at most 2N - 1 states (Blumer et al., 1985), so the build writes into Python
lists preallocated to that size (list indexing is faster than numpy scalar
access in the loop); afterwards each list is trimmed, turned into a numpy
array and freed before the next one, so the lists and the arrays of the whole
automaton are never in memory together.

The build is online, so it also records, for every position, ``floor[pos]``:
the length of the longest suffix of ``text[:pos + 1]`` that occurred before.
The letter at ``pos`` adds exactly the factors of lengths
``floor[pos] + 1 .. pos + 1``, which gives the complexity profile of every
prefix of the text from the one build.
"""

from __future__ import annotations

import numpy as np


def _to_array(values: list, n: int) -> np.ndarray:
    """The first ``n`` entries of ``values`` as an array; empties the list."""
    del values[n:]
    out = np.array(values, dtype=np.int64)
    values.clear()
    return out


class SuffixAutomaton:

    __slots__ = ("text", "alphabet", "n_states", "maxlen", "minlen", "link",
                 "first_end", "outdeg", "trans", "floor", "_letter_index")

    def __init__(self, text: str):
        self.text = text
        self.alphabet = tuple(sorted(set(text)))
        letter_index = {ch: i for i, ch in enumerate(self.alphabet)}
        self._letter_index = letter_index

        size = max(2 * len(text), 1)
        maxlen = [0] * size
        link = [-1] * size
        first_end = [-1] * size
        trans = [[-1] * size for _ in self.alphabet]
        floor = [0] * len(text)
        trans_of = {ch: trans[i] for ch, i in letter_index.items()}
        n_states = 1
        last = 0
        for pos, tc in enumerate(map(trans_of.__getitem__, text)):
            cur = n_states
            n_states += 1
            maxlen[cur] = pos + 1
            first_end[cur] = pos
            p = last
            while p != -1 and tc[p] == -1:
                tc[p] = cur
                p = link[p]
            if p == -1:
                link[cur] = 0
            else:
                q = tc[p]
                f = maxlen[p] + 1
                floor[pos] = f
                if f == maxlen[q]:
                    link[cur] = q
                else:
                    clone = n_states
                    n_states += 1
                    maxlen[clone] = f
                    link[clone] = link[q]
                    first_end[clone] = first_end[q]
                    for t in trans:
                        t[clone] = t[q]
                    while p != -1 and tc[p] == q:
                        tc[p] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur

        self.n_states = n_states
        self.floor = _to_array(floor, len(text))
        self.maxlen = _to_array(maxlen, n_states)
        self.link = _to_array(link, n_states)
        self.first_end = _to_array(first_end, n_states)
        self.trans = [_to_array(t, n_states) for t in trans]
        minlen = np.empty(n_states, dtype=np.int64)
        minlen[0] = 0
        minlen[1:] = self.maxlen[self.link[1:]] + 1
        self.minlen = minlen
        outdeg = np.zeros(n_states, dtype=np.int64)
        for t in self.trans:
            outdeg += t != -1
        self.outdeg = outdeg

    def state_of(self, word: str) -> int | None:
        """State holding ``word``, or None when it is not a factor."""
        s = 0
        li = self._letter_index
        trans = self.trans
        for ch in word:
            c = li.get(ch)
            if c is None:
                return None
            s = int(trans[c][s])
            if s == -1:
                return None
        return s

    def first_occurrence(self, word: str) -> int | None:
        """Start of the leftmost occurrence of ``word``, or None."""
        s = self.state_of(word)
        if s is None:
            return None
        if s == 0:
            return 0
        return int(self.first_end[s]) - len(word) + 1

    def length_counts(self, n_max: int, prefix: int | None = None) -> np.ndarray:
        """Number of distinct factors per length 1..n_max (index 0 = length 1)
        of ``text[:prefix]`` (default: the whole text).

        The letter at ``pos`` adds the lengths floor[pos]+1 .. pos+1, clipped
        at n_max; one difference array over the positions before ``prefix``
        sums them.
        """
        m = len(self.text) if prefix is None else prefix
        lo = self.floor[:m] + 1
        hi = np.minimum(np.arange(1, m + 1), n_max)
        keep = lo <= hi
        diff = (np.bincount(lo[keep], minlength=n_max + 2)
                - np.bincount(hi[keep] + 1, minlength=n_max + 2))
        return np.cumsum(diff)[1:n_max + 1]
