"""Decompositions of factor languages into products of two small languages.

Four routes produce a pair of languages (S, T) whose product covers every
indexed factor while each keeps a bounded number of words per length:

* :func:`build_st` cuts every long factor at the midpoint of a marker
  occurrence chosen inside its first occurrence (the general construction
  for linear-complexity words): each order has one table of its marker
  occurrences, each classified once, and each row of factors is cut with
  one binary search per order, by the same row rule that later gives the
  records;
* :func:`thue_morse_split_sets` uses suffixes and prefixes of the iterated
  doubling morphism, cutting at the boundary of maximal 2-adic valuation;
* :func:`sturmian_split_sets` extends the unique right and left special
  factors of a Sturmian window;
* :func:`greedy_two_sets` processes an arbitrary language in length order,
  inserting the two halves of the cheapest split under a per-length budget.

:func:`verify_cover` re-checks any claimed decomposition by membership alone,
independently of how the sets were produced. It reads one cut mask per word
from per-start and per-end membership masks, and reports, besides the
uncovered words, each word's leftmost cut, the mask's lowest set bit. One
loop over the lengths fills and reads the masks: at each length a Karp-Rabin
hash of the window's words, grown by one letter, proposes the positions
where a word of S or T of that length may occur; membership in the set
decides each of them, so a hash collision costs time and never changes the
report, and the words of that length are checked once their bits are set.
The four routes are listed once, in :data:`ROUTES`, keyed by method name;
:data:`METHODS` is its keys. An entry runs its route on a factor index and
gives a :class:`Decomposition` without a cover report: the sets, the route's
claim (the most words of one length S or T may hold), the row function the
cover check reads (``index.row``, or the start 0 at every length for
greedy), the route's row rule or None for the cuts the check reports, the
route's figures and its markers. :func:`build_decomposition` is the one
entry point that runs a route, by name, and returns that record with its
cover report, on one path for every route: one :func:`verify_cover` call
over the entry's rows, then the refusal of an uncovered word and of sets
above the claim. ``experiment lemma1`` reads the sets of the same entries
and no cover check.

Factors are enumerated one length at a time. The marker, tm and Sturmian
routes cut the window positions that :meth:`FactorIndex.row` gives: the
first-occurrence starts of the length-n factors, in word order. The greedy
route cuts the prefixes, the start 0 at every length, so a split record is
a span of the window, start <= cut <= end, and never holds a word. A route
gives its records one length at a time: its row rule, ``rule(row, n)``, cuts
the length-n starts ``row`` into a :class:`SplitRecords`, start, cut, end,
order and position as int64 arrays and the occurrence class as a small
code. No route builds an object per record, nor an array that spans every
length. The marker rule reads the occurrence tables that :func:`build_st`
built, the tm rule is one numpy expression over the row, and the Sturmian
and greedy rules read that length's cuts in the cover report.
:meth:`Decomposition.rows` cuts each row only when it is read. The words v,
s and t are sliced from the window where a set needs them, and for
splits.csv in :func:`split_records_to_csv` alone, one line at a time.

The counting bound of a product of languages needs no decomposition and is
in :mod:`factorlang.experiments`, which imports no numpy.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreconditionError, VerificationError
from .factors import FactorIndex
from .periodicity import MarkerSet, build_all_markers, classify_occurrence


class LeveledLanguage:
    """A finite language organized by word length.

    ``by_length[n]`` holds the words of length n; the empty word is the one
    word of length 0, so ``LeveledLanguage([""])`` is {ε}. Iteration is
    sorted by (length, word) to keep every downstream artifact
    deterministic.
    """

    def __init__(self, words=()):
        self.by_length: dict[int, set[str]] = {}
        for w in words:
            self.add(w)

    def add(self, word: str):
        self.by_length.setdefault(len(word), set()).add(word)

    def __contains__(self, word: str) -> bool:
        bucket = self.by_length.get(len(word))
        return bucket is not None and word in bucket

    def cardinality(self, n: int) -> int:
        return len(self.by_length.get(n, ()))

    def per_length_max(self) -> int:
        """The most words of one length, the empty word aside."""
        return max((len(ws) for n, ws in self.by_length.items() if n), default=0)

    def words(self):
        """All words sorted by (length, word), the empty word first."""
        for n in sorted(self.by_length):
            yield from sorted(self.by_length[n])

    def total(self) -> int:
        return sum(len(ws) for ws in self.by_length.values())

    def to_jsonl(self, set_name: str) -> str:
        lines = [json.dumps({"len": len(w), "word": w, "set": set_name},
                            sort_keys=True)
                 for w in self.words()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, set_name: str) -> "LeveledLanguage":
        """Load the rows that :meth:`to_jsonl` wrote for the set ``set_name``.

        A row of another set is refused, so swapped S and T files are named
        as such instead of surfacing later as uncovered factors.
        """
        lang = cls()
        for i, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                word, ln, name = row["word"], row["len"], row["set"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise PreconditionError("bad-set-file", f"line {i}: {exc}")
            if name != set_name:
                raise PreconditionError(
                    "bad-set-file", f"line {i}: row of set {name!r}, expected {set_name!r}")
            if not isinstance(word, str) or type(ln) is not int or ln != len(word):
                raise PreconditionError(
                    "bad-set-file", f"line {i}: len field disagrees with word")
            lang.add(word)
        return lang


# the occurrence class of a record by its code in SplitRecords.classes; code 0
# is a record with no class
OCCURRENCE_CLASSES = (None, "internal", "initial", "final", "initial+final")
_CLASS_CODE = {label: code for code, label in enumerate(OCCURRENCE_CLASSES)}


class SplitRecords:
    """The split records of one row, one per word, as integer columns.

    Record i cuts the factor ``v = window[start[i]:end[i]]`` into
    ``s = window[start[i]:cut[i]]`` and ``t = window[cut[i]:end[i]]``.
    ``start``, ``cut``, ``end``, ``order`` and ``position`` are int64 arrays,
    -1 standing for an order or position the record does not carry, and
    ``classes`` holds codes into :data:`OCCURRENCE_CLASSES`. A scalar given
    for ``cut``, ``end``, ``order``, ``position`` or ``classes`` is broadcast
    to every record without a copy. Any record with its cut outside
    [start, end] is refused as ``bad-split``. A route's row rule gives one
    per length, so no column is longer than one row.

    For marker splits, ``order`` is the marker order, ``position`` the window
    position of the chosen marker occurrence and the class its label from
    :func:`classify_occurrence`, as splits.csv writes it; short factors that
    go into S wholesale carry their first occurrence position and no order or
    class. The doubling-morphism route stores the 2-adic valuation of the cut
    boundary as ``order`` and the 1-based boundary position as ``position``.
    The Sturmian and greedy records carry the cut alone.
    """

    __slots__ = ("start", "cut", "end", "order", "position", "classes")

    def __init__(self, start, cut, end, order=-1, position=-1, classes=0):
        self.start = np.asarray(start, dtype=np.int64)
        self.cut, self.end, self.order, self.position, self.classes = (
            np.broadcast_to(np.asarray(column, dtype=dtype), self.start.shape)
            for column, dtype in ((cut, np.int64), (end, np.int64), (order, np.int64),
                                  (position, np.int64), (classes, np.int8)))
        bad = np.flatnonzero((self.cut < self.start) | (self.cut > self.end))
        if bad.size:
            i = bad[0]
            raise PreconditionError(
                "bad-split",
                f"cut {self.cut[i]} outside the span [{self.start[i]}, {self.end[i]}]")

    def __len__(self) -> int:
        return len(self.start)

    def tuples(self):
        """The records as tuples of Python ints (start, cut, end, order,
        position, class code)."""
        return zip(*(column.tolist() for column in (
            self.start, self.cut, self.end, self.order, self.position, self.classes)))


SPLIT_CSV_HEADER = "v,s,t,k,pos,class"


def split_records_to_csv(window: str, rows):
    """Yield the lines of splits.csv, one per record after the header, from
    the :class:`SplitRecords` of ``rows`` in turn, slicing each record's v, s
    and t from ``window``. No list as long as the file is built, and a row
    given by a generator is cut only when its lines are reached."""
    labels = [label or "" for label in OCCURRENCE_CLASSES]
    yield SPLIT_CSV_HEADER + "\n"
    for records in rows:
        for start, cut, end, order, position, code in records.tuples():
            yield (f"{window[start:end]},{window[start:cut]},{window[cut:end]},"
                   f"{'' if order < 0 else order},{'' if position < 0 else position},"
                   f"{labels[code]}\n")


def _check_spans(window: str, starts: np.ndarray, ends: np.ndarray):
    """Refuse the first span ``[start, end)`` that reaches outside
    ``window``."""
    outside = (starts < 0) | (ends > len(window))
    if outside.any():
        i = int(np.argmax(outside))
        raise PreconditionError("out-of-range", f"span [{starts[i]}, {ends[i]}) outside"
                                f" the window of {len(window)} letters")


# -- marker construction ------------------------------------------------------


def _marker_table(index: FactorIndex, markers, length: int, reach: int):
    """The occurrences of the ``markers`` of one order, all of ``length``
    letters, that end by ``reach``, as four arrays sorted by start:

    * the window start of each occurrence;
    * its class code into :data:`OCCURRENCE_CLASSES`, from one
      :func:`classify_occurrence` call, 0 where the window cannot classify it;
    * the index of the first occurrence of the same marker at or after it
      that is classified and not internal;
    * the index of the first occurrence of the same marker at or after it
      that is classified.

    Markers of one order share a length, so no two start at one position.
    The number of occurrences stands for "none" in the last two arrays, and
    indexes one closing row: its start is ``reach``, where no marker inside
    a span ending by ``reach`` can start, and its class code is 0. One
    backward scan fills the pointers of every marker.
    """
    window = index.window
    found = []
    for m in markers:
        i = window.find(m, 0, reach)
        while i != -1:
            found.append((i, m))
            i = window.find(m, i + 1, reach)
    found.sort()
    count = len(found)
    rows = [(reach, 0, count, count)]
    # the next extreme and the next classified occurrence of each marker
    after = {m: (count, count) for m in markers}
    for j in range(count - 1, -1, -1):
        i, m = found[j]
        try:
            code = _CLASS_CODE[classify_occurrence(window, i, length)]
        except PreconditionError:
            code = 0
        extreme, classified = after[m]
        # the codes above internal's are the extreme classes
        after[m] = (j if code > _CLASS_CODE["internal"] else extreme, j if code else classified)
        rows.append((i, code) + after[m])
    return tuple(np.array(column[::-1], dtype=np.int64) for column in zip(*rows))


def _marker_cuts(window: str, tables: dict, d: int, starts: np.ndarray, n: int):
    """Cut each factor ``window[i:i + n]``, i in ``starts``, at the midpoint
    of a chosen marker occurrence; return the cuts, the orders, the
    positions of the occurrences and their class codes, as int64 arrays.

    The order is the largest one with a marker occurring inside the span;
    within that order the marker with the leftmost occurrence is chosen.
    Among the occurrences of that marker inside the span, an extreme one
    (initial or final) is preferred, the first of them; if all are internal
    the first classified occurrence is used, and if none can be classified
    the first occurrence, with class code 0. The cut falls at the middle of
    the marker, so s ends with its left half and t starts with its right
    half. A span holding no marker of any order gets the order -1, and -1
    as its cut and position.

    ``tables`` holds one :func:`_marker_table` per order, keyed by order,
    built for a reach that no span passes. Each order takes one binary
    search of the row's starts in its occurrences, and the table's pointers
    give the chosen occurrence. A length below 2D is refused as
    ``precondition-violation``, a span outside the window as
    ``out-of-range``.
    """
    if n < 2 * d:
        raise PreconditionError(
            "precondition-violation", f"marker splitting needs |v| >= {2 * d}, got {n}")
    _check_spans(window, starts, starts + n)
    cut, order, position = np.full((3, len(starts)), -1, dtype=np.int64)
    codes = np.zeros_like(cut)
    rest = np.arange(len(starts))
    for k in sorted(tables, reverse=True):
        # every span has its order: the lower orders would cut none
        if not rest.size:
            break
        occ, code, extreme, classified = tables[k]
        bound = starts[rest] + n - 2 ** k
        at = np.searchsorted(occ, starts[rest])
        hit = occ[at] <= bound
        at, bound, rows, rest = at[hit], bound[hit], rest[hit], rest[~hit]
        pick = np.where(occ[extreme[at]] <= bound, extreme[at],
                        np.where(occ[classified[at]] <= bound, classified[at], at))
        order[rows] = k
        position[rows] = occ[pick]
        cut[rows] = occ[pick] + 2 ** (k - 1)
        codes[rows] = code[pick]
    return cut, order, position, codes


def split_sets_bound(R: int, C: int, D: int) -> float:
    """Per-length cardinality bound R(log2 D + 2)(1 + 4C(2D + 1))."""
    return R * (math.log2(D) + 2) * (1 + 4 * C * (2 * D + 1))


def _marker_rule(window: str, tables: dict, d: int, starts: np.ndarray,
                 n: int) -> SplitRecords:
    """The marker records of the length-``n`` factors at ``starts``: rows
    shorter than 2D go into S wholesale, cut at their end and carrying their
    start as the position; longer ones are cut by :func:`_marker_cuts` over
    ``tables``. The first factor in row order that holds no marker of any
    order is refused as ``no-marker-found``."""
    if n < 2 * d:
        return SplitRecords(starts, starts + n, starts + n, position=starts)
    cut, order, position, codes = _marker_cuts(window, tables, d, starts, n)
    missing = np.flatnonzero(order < 0)
    if missing.size:
        i = int(starts[missing[0]])
        raise VerificationError(
            "no-marker-found", f"no marker of any order occurs in"
            f" {window[i:i + n]!r} (undersized window?)")
    return SplitRecords(starts, cut, starts + n, order, position, codes)


def build_st(index: FactorIndex, markers: dict[int, MarkerSet]):
    """Split every indexed factor into S and T via marker midpoints.

    Builds one :func:`_marker_table` per order, once, for the reach that one
    read of the rows finds, and the rule ``rule(row, n)``, which gives the
    :class:`SplitRecords` of the length-n starts ``row`` from those tables by
    :func:`_marker_rule`: factors shorter than 2D go into S wholesale,
    paired with the empty word, and the rest are cut at their first
    occurrence. S and T are filled from ``rule(index.row(n), n)``, one
    :meth:`FactorIndex.row` at a time, so the first factor in row order that
    holds no marker is refused here as ``no-marker-found``. Returns
    (S, T, rule): the loop here keeps the words of S and T and no record,
    and the rule cuts a row again when its records are read.
    """
    if not markers:
        raise PreconditionError("no-marker-orders", "empty marker family")
    d = next(iter(markers.values())).D
    window, lengths = index.window, range(1, index.n_max + 1)
    reach = max(int(index.row(n).max(initial=-n)) + n for n in lengths)
    tables = {k: _marker_table(index, ms.markers, 2 ** k, reach)
              for k, ms in markers.items()}
    rule = functools.partial(_marker_rule, window, tables, d)
    s_words, t_words = set(), {""}
    for n in lengths:
        records = rule(index.row(n), n)
        spans = list(zip(records.start.tolist(), records.cut.tolist()))
        s_words.update(window[i:c] for i, c in spans)
        t_words.update(window[c:i + n] for i, c in spans)
    return LeveledLanguage(s_words), LeveledLanguage(t_words), rule


# -- independent coverage check ----------------------------------------------


@dataclass
class CoverReport:
    """What :func:`verify_cover` found: the number of words checked, the
    uncovered ones in row order, and the leftmost cut of each word, -1 for an
    uncovered word: ``cuts[n - 1]`` holds those of the length-n row, in row
    order, as an ``array('q')``."""

    total: int
    uncovered: list[str]
    cuts: list[array]

    @property
    def covered(self) -> int:
        return self.total - len(self.uncovered)

    @property
    def coverage(self) -> float:
        return 1.0 if self.total == 0 else self.covered / self.total


# The Karp-Rabin hash of the cover check: a word w has the hash
# sum w[k] * BASE^(len(w) - 1 - k) modulo MOD, over its code points, so the
# hash of w + a is hash(w) * BASE + a. MOD is below 2^31, so a product of two
# residues fits in int64. The hash only proposes candidates; membership
# decides each one.
_HASH_MOD = 2 ** 31 - 1
_HASH_BASE = 1_000_003


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text`` as int64, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32).astype(np.int64)


def verify_cover(window: str, row: Callable[[int], np.ndarray], hi: int,
                 s_lang: LeveledLanguage, t_lang: LeveledLanguage) -> CoverReport:
    """Check by membership that every word ``window[i:i+n]``, i in
    ``row(n)``, n = 1..hi, is a word of S times T.

    ``row(n)`` gives the starts of the length-n words as an int64 array, as
    :meth:`FactorIndex.row` does, and the same starts on every call: the
    check reads each row three times and keeps none. A negative ``hi`` is
    refused as ``out-of-range``.

    This deliberately ignores any split records: a word counts as covered
    when some cut puts its left part in S and its right part in T. The cut
    mask of the word at (i, n) has bit c set when ``window[i:i+c]`` is in S
    and ``window[i+c:i+n]`` is in T; its lowest set bit is the word's
    leftmost cut. The membership tests are made per start and per end, not
    per word and cut:

    * for each start i, a mask with bit c set when ``w[i:i+c]`` is in S;
    * for each end j, a mask with bit ``hi - l`` set when ``w[j-l:j]`` is in
      T;

    both no longer than the longest row word starting (ending) there. The
    mask of (i, n) is the start mask of i ANDed with the end mask of i + n
    shifted down by hi - n.

    A first read of the rows refuses a span outside the window as
    ``out-of-range`` and finds the reach, the largest end of any row word;
    a second finds the longest row word from each start and to each end, in
    arrays as long as the reach. One loop over the lengths n = 1..hi then
    fills the masks and reads them. Its step n rolls a Karp-Rabin hash of
    every length-n word of ``window[:reach]`` by one letter; sets bit n of
    the start masks and bit hi - n of the end masks; and then reads the
    masks of the length-n row, whose bits all come from lengths up to n. The
    hashes only propose where a word of S or T may lie: a binary search in
    the sorted hashes of that length's words of S (T) picks the candidates,
    and ``slice in s_lang`` (``t_lang``) decides each one. Equal words have
    equal hashes, so no member is missed, and a collision fails its
    membership test, so the report is the one that membership alone gives.
    """
    if hi < 0:
        raise PreconditionError("out-of-range", f"the top length must be >= 0, got {hi}")
    lengths = range(1, hi + 1)
    reach = 0
    for n in lengths:
        starts = row(n)
        _check_spans(window, starts, starts + n)
        reach = max(reach, int(starts.max(initial=-n)) + n)
    longest_from = np.zeros(reach + 1, dtype=np.int64)
    longest_to = np.zeros(reach + 1, dtype=np.int64)
    for n in lengths:
        # n rises, so the last length written at a position is its longest
        starts = row(n)
        longest_from[starts] = n
        longest_to[starts + n] = n
    mod, base = _HASH_MOD, _HASH_BASE % _HASH_MOD
    powers = np.array([pow(base, k, mod) for k in range(hi)], dtype=np.int64)
    letters = _code_points(window[:reach])
    # hashes[p] is the hash of window[p:p+n], after step n
    hashes = np.zeros(reach + 1, dtype=np.int64)
    from_start = [int("" in s_lang)] * (reach + 1)
    to_end = [("" in t_lang) << hi] * (reach + 1)
    sides = ((s_lang, longest_from, from_start, False), (t_lang, longest_to, to_end, True))
    uncovered = []
    cuts = []
    for n in lengths:
        hashes = (hashes[:-1] * base + letters[n - 1:]) % mod
        for lang, longest, side, from_end in sides:
            words = lang.by_length.get(n)
            if not words:
                continue
            at = np.flatnonzero(longest >= n)
            begin = at - n if from_end else at
            codes = _code_points("".join(words)).reshape(len(words), n)
            wanted = np.sort((codes * powers[n - 1::-1] % mod).sum(axis=1) % mod)
            found = hashes[begin]
            hit = np.searchsorted(wanted, found)
            candidate = wanted[np.minimum(hit, len(wanted) - 1)] == found
            bit = 1 << (hi - n if from_end else n)
            for p, b in zip(at[candidate].tolist(), begin[candidate].tolist()):
                if window[b:b + n] in lang:
                    side[p] |= bit
        starts = row(n).tolist()
        masks = [from_start[i] & (to_end[i + n] >> (hi - n)) for i in starts]
        uncovered.extend(window[i:i + n] for i, m in zip(starts, masks) if not m)
        # the lowest set bit; a zero mask gives -1
        cuts.append(array("q", [(m & -m).bit_length() - 1 for m in masks]))
    return CoverReport(total=sum(map(len, cuts)), uncovered=uncovered, cuts=cuts)


# -- doubling-morphism route ---------------------------------------------------


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each positive value of ``x``, exact up to 2^53:
    the exponent e that ``np.frexp`` gives has 2^(e-1) <= x < 2^e, and below
    2^53 the conversion to float64 is exact."""
    return np.frexp(x)[1].astype(np.int64)


def _thue_morse_records(window: str, n_max: int, starts: np.ndarray,
                        n: int) -> SplitRecords:
    """Cut every span (start, n) of ``window``, start in ``starts``, at the
    boundary of maximal 2-adic valuation in [lo, hi], lo = start + 1 and
    hi = start + max(n - 1, 1).

    Two boundaries sharing the maximal valuation would have a
    higher-valuation multiple strictly between them, so the boundary is
    unique. It is the largest multiple of 2^k in the range, where k is the
    highest bit in which lo - 1 and hi differ: hi has that bit set, and
    clearing the bits below it keeps the value above lo - 1. A length
    outside 1..n_max, or a span outside the window, is refused as
    ``out-of-range``.
    """
    if not 1 <= n <= n_max:
        raise PreconditionError(
            "out-of-range", f"the tm cut is defined for lengths 1..{n_max}, got {n}")
    _check_spans(window, starts, starts + n)
    # a single letter has the one boundary start + 1, which leaves t empty
    hi = starts + max(n - 1, 1)
    k = _bit_length(hi ^ starts) - 1
    boundary = (hi >> k) << k
    return SplitRecords(starts, boundary, starts + n, k, boundary)


def thue_morse_split_sets(index: FactorIndex):
    """Suffix and prefix sets of the doubling-morphism iterates, with a cut rule.

    S1 holds every suffix (and S2 every prefix) of the r-fold images of both
    letters under 0->01, 1->10, for the least r >= 1 with 2^r >= n_max,
    which gives exactly two words per length; the images are the Thue-Morse
    prefix of 2^r letters, built by doubling ``"0"`` as u + complement(u),
    and its complement. The returned ``rule(row, n)`` gives the
    :class:`SplitRecords` that cut each factor ``window[start:start + n]``,
    start in ``row``, at the boundary of maximal 2-adic valuation inside that
    span, keeping both parts non-empty when n >= 2; the valuation makes the
    left part a suffix, and the right part a prefix, of some iterate.

    The route holds for the Thue-Morse word only, whatever spec names it, so
    the window is checked against the recursion that defines that word: it
    starts with ``0``, t[2i] = t[i], and t[2i + 1] is the other letter.
    """
    n_max, window = index.n_max, index.window
    t = _code_points(window)
    size = len(t)
    if (t[:1] != ord("0")).any() or (t[::2] != t[:(size + 1) // 2]).any() \
            or (t[1::2] != ord("0") + ord("1") - t[:size // 2]).any():
        raise PreconditionError(
            "method-mismatch",
            "the doubling-morphism route is specific to the tm word")
    complement = str.maketrans("01", "10")
    block = "0"
    while len(block) < max(2, n_max):
        block += block.translate(complement)
    coblock = block.translate(complement)
    s1 = LeveledLanguage([""])
    s2 = LeveledLanguage([""])
    for m in range(1, n_max + 1):
        s1.add(block[-m:])
        s1.add(coblock[-m:])
        s2.add(block[:m])
        s2.add(coblock[:m])

    return s1, s2, functools.partial(_thue_morse_records, window, n_max)


# -- Sturmian route -------------------------------------------------------------


def sturmian_split_sets(index: FactorIndex):
    """Right-special extensions and left-special extensions of a Sturmian window.

    Requires complexity exactly n + 1 across the indexed range, which forces a
    binary alphabet and a unique special factor of each length per side; any
    other window is refused as ``not-sturmian``. S1 collects both one-letter
    extensions of each right special factor, S2 both one-letter left
    extensions of each left special factor, plus the empty word on both sides.
    """
    for n in range(1, index.n_max + 1):
        if index.complexity(n) != n + 1:
            raise PreconditionError(
                "not-sturmian",
                f"p({n}) = {index.complexity(n)}, expected {n + 1}")
    alphabet = index.alphabet
    s1 = LeveledLanguage([""])
    s2 = LeveledLanguage([""])
    for length in range(1, index.n_max + 1):
        if length == 1:
            rs_set = ls_set = {""}
        else:
            rs_set = index.right_special(length - 1)
            ls_set = index.left_special(length - 1)
        if len(rs_set) != 1 or len(ls_set) != 1:
            raise PreconditionError(
                "not-sturmian",
                f"expected one special factor of length {length - 1} per side,"
                f" got {len(rs_set)} right and {len(ls_set)} left")
        rs, ls = next(iter(rs_set)), next(iter(ls_set))
        for a in alphabet:
            s1.add(rs + a)
            s2.add(a + ls)
    return s1, s2


# -- greedy route ---------------------------------------------------------------


def greedy_two_sets(lang: LeveledLanguage, budget_slope: int):
    """Split every word of ``lang`` in length order under a per-length budget.

    Each word v admits len(v) + 1 factorizations v = s + t. The cheapest one
    is taken (fewest missing parts, leftmost cut on ties), and a missing part
    is inserted only while its length holds at most 2 * budget_slope words,
    so neither set holds more than 2 * budget_slope + 1 words per length.
    Feasibility for every word is guaranteed when the accumulative count of
    ``lang`` stays within budget_slope * n; a word with no affordable split
    certifies that the input broke that promise.
    """
    if budget_slope < 1:
        raise PreconditionError(
            "out-of-range", f"budget slope must be >= 1, got {budget_slope}")
    cap = 2 * budget_slope
    s_lang = LeveledLanguage()
    t_lang = LeveledLanguage()

    def insert_cost(part: str, lang_side: LeveledLanguage):
        if part in lang_side:
            return 0
        if lang_side.cardinality(len(part)) <= cap:
            return 1
        return None

    for v in lang.words():
        best_cut = None
        best_cost = None
        for c in range(len(v) + 1):
            s, t = v[:c], v[c:]
            cost_s = insert_cost(s, s_lang)
            if cost_s is None:
                continue
            cost_t = insert_cost(t, t_lang)
            if cost_t is None:
                continue
            cost = cost_s + cost_t
            if best_cost is None or cost < best_cost:
                best_cut, best_cost = c, cost
                if cost == 0:
                    break
        if best_cut is None:
            raise PreconditionError(
                "no-feasible-split",
                f"no affordable factorization for {v!r}; the accumulative"
                f" count must exceed {budget_slope} * n somewhere")
        s_lang.add(v[:best_cut])
        t_lang.add(v[best_cut:])
    return s_lang, t_lang


# -- the table of the four routes ------------------------------------------------


def _leftmost_rule(cuts: list[array], starts: np.ndarray, n: int) -> SplitRecords:
    """The records of the length-``n`` row ``starts``, cut at the leftmost
    cuts that ``cuts``, a cover report's, holds for that row."""
    return SplitRecords(starts, starts + np.frombuffer(cuts[n - 1], dtype=np.int64),
                        starts + n)


@dataclass(frozen=True)
class Decomposition:
    """What one route built on one index: the sets; ``claim``, the most
    words of one length that S or T may hold; ``row``, the row function
    ``row(n)`` that gives the starts of the length-n words the cover check
    reads; ``cut``, the route's row rule ``cut(row, n)``, which gives the
    :class:`SplitRecords` of the length-n starts ``row``, or None for the
    row's leftmost cuts in the cover report; the route's own figures
    (``extras``); the marker family of the marker route, None on the
    others; and the cover report, None until :func:`build_decomposition`
    has checked the sets. :meth:`rows` reads the records."""

    s_lang: LeveledLanguage
    t_lang: LeveledLanguage
    claim: float
    row: Callable[[int], np.ndarray]
    cut: Callable[[np.ndarray, int], SplitRecords] | None = None
    extras: dict = field(default_factory=dict)
    markers: dict[int, MarkerSet] | None = None
    report: CoverReport | None = None

    def rows(self):
        """The split records, one :class:`SplitRecords` per length from 1
        up to the top length the report checked, one record per covered word
        in row order, as a generator: a row is read and cut when it is
        reached, and each call starts again from length 1."""
        cut = self.cut or functools.partial(_leftmost_rule, self.report.cuts)
        return (cut(self.row(n), n) for n in range(1, len(self.report.cuts) + 1))


def _marker_route(index: FactorIndex, budget: int) -> Decomposition:
    markers = build_all_markers(index)
    s_lang, t_lang, rule = build_st(index, markers)
    c, k = index.slope_constants()
    d = next(iter(markers.values())).D
    r = max(len(ms.markers) for ms in markers.values())
    extras = {"C": c, "K": k, "D": d, "R": r, "orders": sorted(markers),
              "bound": split_sets_bound(r, c, d)}
    return Decomposition(s_lang, t_lang, extras["bound"], index.row, rule, extras, markers)


def _greedy_route(index: FactorIndex, budget: int) -> Decomposition:
    prefixes = LeveledLanguage(index.window[:n] for n in range(1, index.n_max + 1))
    s_lang, t_lang = greedy_two_sets(prefixes, budget)
    # the prefixes: the start 0 at every length
    return Decomposition(s_lang, t_lang, 2 * budget + 1,
                         lambda n: np.zeros(1, dtype=np.int64), extras={"budget": budget})


def _tm_route(index: FactorIndex, budget: int) -> Decomposition:
    s_lang, t_lang, rule = thue_morse_split_sets(index)
    return Decomposition(s_lang, t_lang, 2, index.row, rule)


def _sturmian_route(index: FactorIndex, budget: int) -> Decomposition:
    s_lang, t_lang = sturmian_split_sets(index)
    return Decomposition(s_lang, t_lang, 2, index.row)


# The one list of routes, by method name. Each entry names its route function
# in its body, so the function is looked up among the module's globals when
# the entry runs, and a function replaced on the module is the one run.
ROUTES = {"marker": _marker_route, "greedy": _greedy_route, "tm": _tm_route,
          "sturmian": _sturmian_route}

METHODS = tuple(ROUTES)


def build_decomposition(index: FactorIndex, method: str,
                        budget: int = 1) -> Decomposition:
    """Run the route ``method`` of :data:`ROUTES` on ``index`` and check what
    it built.

    The marker, tm and sturmian routes split every indexed factor, at its
    first occurrence as :meth:`FactorIndex.row` gives it. The greedy route
    splits the prefixes of the window up to length n_max under the
    per-length budget slope ``budget``, and checks them as the rows of the
    start 0 at every length. Every route ends in one :func:`verify_cover`
    call over the rows of its entry's ``row`` function up to n_max, which
    gives the report; a word with no cut is refused
    there, on every route, before anything is returned, and so are sets
    above the entry's per-length claim as ``bound-exceeded``. The entry's
    :class:`Decomposition` is returned with the report filled in. The
    records are cut only afterwards, one row at a time as
    :meth:`Decomposition.rows` reads them: by the entry's row rule (the
    :func:`build_st` rule on the marker route, the
    :func:`thue_morse_split_sets` rule on the tm route), or, on the
    sturmian and greedy routes, at the leftmost cuts that the report holds.
    A ``budget`` below 1 is refused on every route, not only on greedy.
    """
    if budget < 1:
        raise PreconditionError(
            "out-of-range", f"budget slope must be >= 1, got {budget}")
    if method not in METHODS:
        raise PreconditionError(
            "unknown-method", f"method must be one of {', '.join(METHODS)}, got {method!r}")
    route = ROUTES[method](index, budget)
    report = verify_cover(index.window, route.row, index.n_max, route.s_lang, route.t_lang)
    if report.uncovered:
        raise VerificationError(
            "coverage-incomplete", f"no split found for {report.uncovered[0]!r}")
    most = max(route.s_lang.per_length_max(), route.t_lang.per_length_max())
    if most > route.claim:
        raise VerificationError(
            "bound-exceeded", f"{most} words of one length in S or T, above the claim"
            f" {route.claim}")
    return replace(route, report=report)
