"""Slow, direct forms of fast library functions, shared by the test modules."""

import itertools

import numpy as np

from factorlang import (
    PreconditionError,
    SplitRecords,
    VerificationError,
)
from factorlang.decompose import OCCURRENCE_CLASSES


def find_occurrences(window: str, word: str) -> list[int]:
    """All start positions of ``word`` in ``window``, in order, by repeated
    ``str.find``; the empty word occurs at every boundary 0..len(window)."""
    out = []
    start = window.find(word)
    while start != -1:
        out.append(start)
        start = window.find(word, start + 1)
    return out


def slicing_witness_split(window, start, n, s_lang, t_lang) -> tuple:
    """Oracle for the cuts of verify_cover: the leftmost cut of
    ``window[start:start+n]`` with both parts in the given sets, found by
    trying every cut from the left. Returned as a record tuple in the order
    of ``SplitRecords.tuples()``, (start, cut, end, order, position, class
    code), with no order, position or class."""
    v = window[start:start + n]
    for c in range(n + 1):
        if v[:c] in s_lang and v[c:] in t_lang:
            return (start, start + c, start + n, -1, -1, 0)
    raise VerificationError("coverage-incomplete", f"no split found for {v!r}")


def record_rows(records) -> list[SplitRecords]:
    """The rows of a list of record tuples, in the order of
    ``SplitRecords.tuples()``: one :class:`SplitRecords` per run of records
    of one length (end - start), in the order given, each column read one
    record at a time."""
    rows = []
    for _, run in itertools.groupby(records, key=lambda r: r[2] - r[0]):
        run = list(run)
        rows.append(SplitRecords(*([r[j] for r in run] for j in range(6))))
    return rows


def per_record_splits_csv(window, records):
    """Oracle for split_records_to_csv: the lines of splits.csv written from
    one record tuple at a time, as the writer did before the records were
    columns."""
    yield "v,s,t,k,pos,class\n"
    for start, cut, end, order, position, code in records:
        k = "" if order < 0 else str(order)
        pos = "" if position < 0 else str(position)
        yield (f"{window[start:end]},{window[start:cut]},{window[cut:end]},"
               f"{k},{pos},{OCCURRENCE_CLASSES[code] or ''}\n")


def letter_by_letter_fixed_point(images: dict, start: str, n: int) -> str:
    """Oracle for words.fixed_point: the first n letters of the fixed point,
    appending one letter's image at a time."""
    buf = list(images[start])
    i = 1
    while len(buf) < n:
        buf.extend(images[buf[i]])
        i += 1
    return "".join(buf[:n])


def whole_block_sturmian(pre: tuple, per: tuple, n: int) -> str:
    """Oracle for words.sturmian_characteristic: the first n letters of the
    standard words s_{j+1} = s_j^a s_{j-1}, each built whole."""
    s_prev, s_cur, j = "1", "0", 0
    while len(s_cur) < n:
        a = pre[j] if j < len(pre) else per[(j - len(pre)) % len(per)]
        s_prev, s_cur, j = s_cur, s_cur * a + s_prev, j + 1
    return s_cur[:n]


def whole_block_pq(f, k, n: int) -> str:
    """Oracle for words.pq_block_product: the first n letters of the blocks
    (a^p b^q)^k(p, q), each built whole, k given as a function of (p, q)."""
    text, p = "", 1
    while len(text) < n:
        for q in range(1, f(p) + 1):
            text += ("a" * p + "b" * q) * k(p, q)
        p += 1
    return text[:n]


def staircase_word(k: int, l: int) -> str:
    """The word a b^l a b^(l+1) ... a b^(l+k-1) a with k growing b-runs.

    Its length is k * (l + (k + 1) / 2) + 1, which the construction makes
    integral for every k and l.
    """
    if k < 1 or l < 1:
        raise PreconditionError("out-of-range", f"need k >= 1 and l >= 1, got {k}, {l}")
    parts = ["a"]
    for j in range(k):
        parts.append("b" * (l + j) + "a")
    return "".join(parts)


def staircase_word_length(k: int, l: int) -> int:
    return k * (2 * l + k + 1) // 2 + 1


def staircase_pair_count_bruteforce(n: int) -> int:
    """Oracle for staircase_pair_count: direct enumeration with no cutoff
    on k."""
    total = 0
    k = 3
    while staircase_word_length(k, 1) <= n:
        l = 1
        while staircase_word_length(k, l) <= n:
            if l * l >= n:
                total += 1
            l += 1
        k += 1
    return total


def doubled_build_profile(source, n_work, n_max):
    """Oracle for stabilized_profile: the counts of the window and of the
    doubled window, each read off the states of a reference automaton.
    Returns the window's counts and whether the two profiles agree."""
    p = interval_length_counts(StateAutomaton(source.prefix(n_work)), n_max)
    doubled = interval_length_counts(StateAutomaton(source.prefix(2 * n_work)), n_max)
    return p, bool(np.array_equal(p, doubled))


class StateAutomaton:
    """Reference suffix automaton (Blumer et al., 1985) that keeps its state
    arrays, sharing no code with factorlang's automaton.

    Transitions are one dict per state. Each state is a class of factors with
    the same ending positions: it holds one factor of every length in
    [minlen, maxlen], all first ending at ``first_end``, with ``outdeg``
    out-going letters. ``floor[pos]`` is maxlen of the suffix link of the
    state made at ``pos``, taken when that state is made: the length of the
    longest suffix of ``text[:pos + 1]`` that occurred before.
    """

    def __init__(self, text: str):
        nxt, link, maxlen, first_end = [{}], [-1], [0], [-1]
        floor = []
        last = 0
        for pos, c in enumerate(text):
            cur = len(maxlen)
            nxt.append({})
            link.append(0)
            maxlen.append(pos + 1)
            first_end.append(pos)
            p = last
            while p != -1 and c not in nxt[p]:
                nxt[p][c] = cur
                p = link[p]
            if p != -1:
                q = nxt[p][c]
                if maxlen[p] + 1 == maxlen[q]:
                    link[cur] = q
                else:
                    clone = len(maxlen)
                    nxt.append(dict(nxt[q]))
                    link.append(link[q])
                    maxlen.append(maxlen[p] + 1)
                    first_end.append(first_end[q])
                    while p != -1 and nxt[p].get(c) == q:
                        nxt[p][c] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            floor.append(maxlen[link[cur]])
            last = cur
        self.n_states = len(maxlen)
        self.maxlen = np.array(maxlen, dtype=np.int64)
        self.link = np.array(link, dtype=np.int64)
        self.first_end = np.array(first_end, dtype=np.int64)
        self.outdeg = np.array([len(t) for t in nxt], dtype=np.int64)
        self.minlen = np.concatenate(([0], self.maxlen[self.link[1:]] + 1))
        self.floor = np.array(floor, dtype=np.int64)



def interval_length_counts(sam: StateAutomaton, n_max: int) -> np.ndarray:
    """Per-length counts of the whole text read off the states: each
    non-initial state holds one factor for every length in its
    [minlen, maxlen] interval, clipped at n_max."""
    lo = sam.minlen[1:]
    hi = np.minimum(sam.maxlen[1:], n_max)
    keep = lo <= hi
    diff = np.zeros(n_max + 2, dtype=np.int64)
    np.add.at(diff, lo[keep], 1)
    np.subtract.at(diff, hi[keep] + 1, 1)
    return np.cumsum(diff)[1:n_max + 1]


def interval_rows(text, n_max):
    """Oracle for FactorIndex.row: the starts of every state's factors of
    length n <= n_max, first_end - n + 1 for n in [minlen, maxlen], sorted by
    word within each length. Returns one list per length 1..n_max."""
    sam = StateAutomaton(text)
    rows = [[] for _ in range(n_max + 1)]
    for lo, hi, end in zip(sam.minlen[1:].tolist(), sam.maxlen[1:].tolist(),
                           sam.first_end[1:].tolist()):
        for n in range(lo, min(hi, n_max) + 1):
            rows[n].append(end - n + 1)
    return [sorted(rows[n], key=lambda i: text[i:i + n]) for n in range(1, n_max + 1)]


def interval_special(text, n_max):
    """Oracle for right_special and left_special: the pair of dicts n ->
    set of special factors of length n, for n = 1..n_max - 1, read off the
    states of a reference automaton. A state with two or more out-going
    letters makes every factor it holds right special. A factor has as many
    left extensions as its state has children in the suffix-link tree when
    it is the longest word of that state, and one otherwise, so the longest
    words of the states with two or more children are the left special
    factors."""
    sam = StateAutomaton(text)
    children = np.bincount(sam.link[1:], minlength=sam.n_states).tolist()
    right = {n: set() for n in range(1, n_max)}
    left = {n: set() for n in range(1, n_max)}
    states = zip(sam.minlen.tolist(), sam.maxlen.tolist(), sam.first_end.tolist(),
                 sam.outdeg.tolist(), children)
    next(states)  # the initial state holds the empty word only
    for lo, hi, end, outdeg, kids in states:
        if outdeg >= 2:
            for n in range(lo, min(hi, n_max - 1) + 1):
                right[n].add(text[end - n + 1:end + 1])
        if kids >= 2 and hi < n_max:
            left[hi].add(text[end - hi + 1:end + 1])
    return right, left


def prefix_doubling_profile(text, n_max):
    """Oracle for the automaton's counts at scale, sharing no code with it:
    p(n) for n = 1..n_max from suffix ranks and adjacent LCPs.

    ``ranks[k][i]`` ranks ``text[i:i + 2**k]`` (cut short at the end of the
    text, a shorter word ranking first) by prefix doubling (Manber and
    Myers, 1993), up to the first 2**k >= n_max; rank 0 marks positions past
    the end, and the ranks are int32 to halve the memory. Sorting the
    suffixes by the last ranks puts the suffixes that share a prefix of
    length n <= n_max next to each other. Each adjacent LCP, capped at
    2**k, is found by binary lifting over the rank arrays. Then p(n) is the
    number of suffixes of length >= n less the number of adjacent pairs with
    LCP >= n.
    """
    n = len(text)
    if n == 0:
        return np.zeros(n_max, dtype=np.int64)
    levels = (n_max - 1).bit_length()
    pad = 1 << levels
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    rank = np.zeros(n + pad, dtype=np.int32)
    rank[:n] = np.unique(codes, return_inverse=True)[1] + 1
    ranks = [rank]
    for k in range(levels):
        key = rank[:n] * np.int64(n + 1) + rank[1 << k:n + (1 << k)]
        rank = np.zeros(n + pad, dtype=np.int32)
        rank[:n] = np.unique(key, return_inverse=True)[1] + 1
        ranks.append(rank)
    order = np.argsort(rank[:n], kind="stable")
    a, b = order[:-1], order[1:]
    lcp = np.where(rank[a] == rank[b], pad, 0)
    for k in reversed(range(levels)):
        open_ = lcp < pad
        ia, ib, l = a[open_], b[open_], lcp[open_]
        lcp[open_] = l + (ranks[k][ia + l] == ranks[k][ib + l]) * (1 << k)
    pairs = np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)
    at_least = np.cumsum(pairs[::-1])[::-1]
    lengths = np.arange(1, n_max + 1)
    return np.maximum(n - lengths + 1, 0) - at_least[1:]
