"""Suffix automaton over a text window, specialized for factor statistics.

The automaton recognizes exactly the factors of the window. Each state is an
equivalence class of factors sharing the same set of ending positions, so a
state covers a contiguous interval of factor lengths [minlen, maxlen], all
its factors have the same set of right-extension letters (the out-going
transition letters), and they share the first (leftmost) ending position.
Those three facts drive every per-length statistic downstream.

States are integers into parallel arrays. During the build, transitions are
one dense list per alphabet letter, which is compact for the two- or
three-letter alphabets used here; once built, only each state's number of
out-going letters (``outdeg``) is kept. Construction is the classic online
algorithm. A text of N letters has at most 2N - 1 states (Blumer et al.,
1985), so the build writes into Python lists preallocated to that size (list
indexing is faster than numpy scalar access in the loop). The full build then
trims each list, turns it into a numpy array and frees it before the next
one, so the lists and the arrays of the whole automaton are never in memory
together. A state's first end is
maxlen - 1 unless it is a clone, so the loop records it for clones alone.

The build is online, so it also records, for every position, ``floor[pos]``:
the length of the longest suffix of ``text[:pos + 1]`` that occurred before.
The letter at ``pos`` adds exactly the factors of lengths
``floor[pos] + 1 .. pos + 1``, which gives the complexity profile of every
prefix of the text from the one build. The count-only build
(``count_only=True``) runs the same loop but keeps only ``floor``, unboxed in
an ``array('q')``, and ``n_states``: no first ends, no state arrays.
"""

from __future__ import annotations

from array import array

import numpy as np


def _to_array(values: list, n: int) -> np.ndarray:
    """The first ``n`` entries of ``values`` as an array; empties the list."""
    del values[n:]
    out = np.array(values, dtype=np.int64)
    values.clear()
    return out


class SuffixAutomaton:

    __slots__ = ("n_states", "maxlen", "minlen", "link", "first_end", "outdeg",
                 "floor")

    def __init__(self, text: str, count_only: bool = False):
        alphabet = sorted(set(text))
        size = max(2 * len(text), 1)
        maxlen = [0] * size
        link = [-1] * size
        first_end = None if count_only else [-1] * size
        trans = [[-1] * size for _ in alphabet]
        floor = array("q", bytes(8 * len(text)))
        trans_of = dict(zip(alphabet, trans))
        n_states = 1
        last = 0
        for pos, tc in enumerate(map(trans_of.__getitem__, text)):
            cur = n_states
            n_states += 1
            maxlen[cur] = pos + 1
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
                    if first_end is not None:
                        e = first_end[q]
                        first_end[clone] = maxlen[q] - 1 if e == -1 else e
                    for t in trans:
                        t[clone] = t[q]
                    while p != -1 and tc[p] == q:
                        tc[p] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur

        self.n_states = n_states
        self.floor = np.frombuffer(floor, dtype=np.int64)
        if count_only:
            return
        outdeg = np.zeros(n_states, dtype=np.int64)
        for t in trans:
            outdeg += _to_array(t, n_states) != -1
        self.outdeg = outdeg
        self.maxlen = _to_array(maxlen, n_states)
        self.link = _to_array(link, n_states)
        first_end = _to_array(first_end, n_states)
        self.first_end = np.where(first_end == -1, self.maxlen - 1, first_end)
        minlen = np.empty(n_states, dtype=np.int64)
        minlen[0] = 0
        minlen[1:] = self.maxlen[self.link[1:]] + 1
        self.minlen = minlen

    def length_counts(self, n_max: int, prefix: int | None = None) -> np.ndarray:
        """Number of distinct factors per length 1..n_max (index 0 = length 1)
        of ``text[:prefix]`` (default: the whole text).

        The letter at ``pos`` adds the lengths floor[pos]+1 .. pos+1, clipped
        at n_max; one difference array over the positions before ``prefix``
        sums them.
        """
        m = len(self.floor) if prefix is None else prefix
        lo = self.floor[:m] + 1
        hi = np.minimum(np.arange(1, m + 1), n_max)
        keep = lo <= hi
        diff = (np.bincount(lo[keep], minlength=n_max + 2)
                - np.bincount(hi[keep] + 1, minlength=n_max + 2))
        return np.cumsum(diff)[1:n_max + 1]
