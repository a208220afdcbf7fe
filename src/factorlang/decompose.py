"""Decompositions of factor languages into products of two small languages.

Four routes produce a pair of languages (S, T) whose product covers every
indexed factor while each keeps a bounded number of words per length:

* :func:`build_st` cuts every long factor at the midpoint of a marker
  occurrence chosen inside its first occurrence (the general construction
  for linear-complexity words), reading the occurrences from one
  :class:`MarkerOccurrences` table per run;
* :func:`thue_morse_split_sets` uses suffixes and prefixes of the iterated
  doubling morphism, cutting at the boundary of maximal 2-adic valuation;
* :func:`sturmian_split_sets` extends the unique right and left special
  factors of a Sturmian window;
* :func:`greedy_two_sets` processes an arbitrary language in length order,
  inserting the two halves of the cheapest split under a per-length budget.

:func:`verify_cover` re-checks any claimed decomposition by membership alone,
independently of how the sets were produced. It reads one cut mask per word
from per-start and per-end membership masks, and reports, besides the
uncovered words, each word's leftmost cut, the mask's lowest set bit.
:func:`build_decomposition` is the one entry point that runs a route, by
name, on a factor index and returns its sets, records and cover report; every
route ends in one :func:`verify_cover` call, an uncovered word is refused on
every route, and the Sturmian and greedy records are the cuts it reports.

The marker, tm and Sturmian routes cut window positions read from
:meth:`FactorIndex.rows`, and the greedy route cuts the prefixes at start 0,
so a split record is a span of the window, start <= cut <= end, and never
holds a word. The words v, s and t are sliced from the window where a set needs
them, and for splits.csv in :func:`split_records_to_csv` alone, one line at
a time.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import PreconditionError, VerificationError
from .factors import FactorIndex
from .periodicity import MarkerSet, build_all_markers, classify_occurrence
from .words import thue_morse


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

    def lengths(self) -> list[int]:
        return sorted(self.by_length)

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


@dataclass(frozen=True, slots=True)
class SplitRecord:
    """One factor's decomposition witness, as a span of the window.

    The factor is ``v = window[start:end]``, cut into ``s = window[start:cut]``
    and ``t = window[cut:end]``. For marker splits, ``order`` is the marker
    order, ``position`` the window position of the chosen marker occurrence
    and ``occurrence_class`` its label from :func:`classify_occurrence`, as
    splits.csv writes it. Short factors that go into S wholesale carry
    their first occurrence position and no order or class.
    The doubling-morphism route stores the 2-adic valuation of the cut
    boundary as ``order`` and the 1-based boundary position as ``position``.
    The Sturmian and greedy records carry the cut alone.
    """

    start: int
    cut: int
    end: int
    order: int | None
    position: int | None
    occurrence_class: str | None

    def __post_init__(self):
        if not self.start <= self.cut <= self.end:
            raise PreconditionError(
                "bad-split", f"cut {self.cut} outside the span [{self.start}, {self.end}]")


SPLIT_CSV_HEADER = "v,s,t,k,pos,class"


def split_records_to_csv(window: str, records):
    """Yield the lines of splits.csv, one per record after the header,
    slicing each record's v, s and t from ``window``."""
    yield SPLIT_CSV_HEADER + "\n"
    for r in records:
        k = "" if r.order is None else str(r.order)
        pos = "" if r.position is None else str(r.position)
        yield (f"{window[r.start:r.end]},{window[r.start:r.cut]},{window[r.cut:r.end]},"
               f"{k},{pos},{r.occurrence_class or ''}\n")


def _check_span(window: str, start: int, n: int):
    """Refuse a span ``[start, start + n)`` that reaches outside ``window``."""
    if start < 0 or start + n > len(window):
        raise PreconditionError(
            "out-of-range",
            f"span [{start}, {start + n}) outside the window of {len(window)} letters")


# -- marker construction ------------------------------------------------------


class MarkerOccurrences:
    """Where the markers of each order occur in the window, for one run.

    For each order k, ``starts[k]`` lists the window starts of every marker
    of that order, sorted and merged; markers of one order share a length,
    so ``marker_at[k][i]`` is the one marker starting at ``starts[k][i]``.
    ``own[m]`` lists the starts of the marker m alone. The class of an
    occurrence is computed by :func:`classify_occurrence` on first use and
    kept, keyed by (position, order); None marks one the window cannot
    classify.
    """

    def __init__(self, index: FactorIndex, markers: dict[int, MarkerSet]):
        if not markers:
            raise PreconditionError("no-marker-orders", "empty marker family")
        self.index = index
        self.D = next(iter(markers.values())).D
        self.orders = sorted(markers, reverse=True)
        self.own = {m: index.occurrences(m)
                    for ms in markers.values() for m in ms.markers}
        self.starts: dict[int, list[int]] = {}
        self.marker_at: dict[int, list[str]] = {}
        for order, ms in markers.items():
            merged = sorted((i, m) for m in ms.markers for i in self.own[m])
            self.starts[order] = [i for i, _ in merged]
            self.marker_at[order] = [m for _, m in merged]
        self._classes: dict[tuple[int, int], str | None] = {}

    def occurrence_class(self, position: int, order: int) -> str | None:
        key = (position, order)
        if key not in self._classes:
            try:
                self._classes[key] = classify_occurrence(
                    self.index.window, position, 2 ** order)
            except PreconditionError:
                self._classes[key] = None
        return self._classes[key]


def split_factor(occurrences: MarkerOccurrences, start: int, n: int) -> SplitRecord:
    """Cut the factor ``v = window[start:start + n]`` at the midpoint of a
    chosen marker occurrence.

    The order is the largest one with a marker occurring inside the span;
    within that order the marker with the leftmost occurrence is chosen.
    Among the occurrences of that marker inside the span, an extreme one
    (initial or final) is preferred, the first of them; if all are internal
    the first classified occurrence is used, and if none can be classified
    the first occurrence, with no class. The cut falls at the middle of the
    marker, so s ends with its left half and t starts with its right half.

    The routes pass a factor's first occurrence, as the factor index lists
    it. The occurrences are read from ``occurrences`` by bisection, not
    searched for.
    """
    index = occurrences.index
    d = occurrences.D
    if n < 2 * d:
        raise PreconditionError(
            "precondition-violation",
            f"marker splitting needs |v| >= {2 * d}, got {n}")
    _check_span(index.window, start, n)
    end = start + n
    for order in occurrences.orders:
        length = 2 ** order
        starts = occurrences.starts[order]
        at = bisect_left(starts, start)
        if at == len(starts) or starts[at] > end - length:
            continue
        own = occurrences.own[occurrences.marker_at[order][at]]
        chosen = first_classified = None
        for pos in own[bisect_left(own, starts[at]):bisect_right(own, end - length)]:
            cls = occurrences.occurrence_class(pos, order)
            if cls is None:
                continue
            if first_classified is None:
                first_classified = (pos, cls)
            if cls != "internal":
                chosen = (pos, cls)
                break
        pos, cls = chosen or first_classified or (starts[at], None)
        return SplitRecord(start, pos + length // 2, end, order, pos, cls)
    raise VerificationError(
        "no-marker-found",
        f"no marker of any order occurs in {index.window[start:end]!r} (undersized window?)")


def split_sets_bound(R: int, C: int, D: int) -> float:
    """Per-length cardinality bound R(log2 D + 2)(1 + 4C(2D + 1))."""
    return R * (math.log2(D) + 2) * (1 + 4 * C * (2 * D + 1))


def build_st(index: FactorIndex, markers: dict[int, MarkerSet]):
    """Split every indexed factor into S and T via marker midpoints.

    Factors shorter than 2D go into S wholesale, paired with the empty word;
    the rest are cut by :func:`split_factor` at their first occurrence, all
    reading one :class:`MarkerOccurrences` table built here. Returns
    (S, T, records) with one record per indexed factor in (length, word)
    order.
    """
    occurrences = MarkerOccurrences(index, markers)
    d = occurrences.D
    s_lang = LeveledLanguage()
    t_lang = LeveledLanguage([""])
    window = index.window
    records = []
    for n, row in enumerate(index.rows(), start=1):
        for i in row:
            if n < 2 * d:
                s_lang.add(window[i:i + n])
                records.append(SplitRecord(i, i + n, i + n, None, i, None))
            else:
                rec = split_factor(occurrences, i, n)
                s_lang.add(window[i:rec.cut])
                t_lang.add(window[rec.cut:rec.end])
                records.append(rec)
    return s_lang, t_lang, records


# -- independent coverage check ----------------------------------------------


@dataclass
class CoverReport:
    """What :func:`verify_cover` found: the number of words checked, the
    uncovered ones in row order, and the leftmost cut of each word in row
    order (-1 for an uncovered word)."""

    total: int
    uncovered: list[str]
    cuts: array

    @property
    def covered(self) -> int:
        return self.total - len(self.uncovered)

    @property
    def coverage(self) -> float:
        return 1.0 if self.total == 0 else self.covered / self.total


def verify_cover(window: str, rows, s_lang: LeveledLanguage,
                 t_lang: LeveledLanguage) -> CoverReport:
    """Check by membership that every word ``window[i:i+n]``, i in
    ``rows[n-1]``, is a word of S times T.

    This deliberately ignores any split records: a word counts as covered
    when some cut puts its left part in S and its right part in T. The cut
    mask of the word at (i, n) has bit c set when ``window[i:i+c]`` is in S
    and ``window[i+c:i+n]`` is in T; its lowest set bit is the word's
    leftmost cut. The membership probes are made per start and per end, not
    per word and cut:

    * for each start i, a mask with bit c set when ``w[i:i+c]`` is in S;
    * for each end j, a mask with bit ``hi - l`` set when ``w[j-l:j]`` is in
      T, where hi = len(rows) is the longest length;

    both relative to their own position, probing only lengths that S or T
    hold and no longer than the longest word starting (ending) there. The
    mask of (i, n) is the start mask of i ANDed with the end mask of i + n
    shifted down by hi - n.
    """
    hi = len(rows)
    longest_from: dict[int, int] = {}
    longest_to: dict[int, int] = {}
    for n, row in enumerate(rows, start=1):
        for i in row:
            longest_from[i] = n
            longest_to[i + n] = n
    s_lens = s_lang.lengths()
    t_lens = t_lang.lengths()
    from_start = {
        i: sum(1 << c for c in s_lens[:bisect_right(s_lens, top)]
               if window[i:i + c] in s_lang)
        for i, top in longest_from.items()}
    to_end = {
        j: sum(1 << (hi - l) for l in t_lens[:bisect_right(t_lens, top)]
               if window[j - l:j] in t_lang)
        for j, top in longest_to.items()}
    uncovered = []
    cuts = array("q")
    for n, row in enumerate(rows, start=1):
        masks = [from_start[i] & (to_end[i + n] >> (hi - n)) for i in row]
        uncovered.extend(window[i:i + n] for i, m in zip(row, masks) if not m)
        # the lowest set bit; a zero mask gives -1
        cuts.extend([(m & -m).bit_length() - 1 for m in masks])
    return CoverReport(total=len(cuts), uncovered=uncovered, cuts=cuts)


# -- doubling-morphism route ---------------------------------------------------


def _max_valuation_boundary(lo: int, hi: int) -> tuple[int, int]:
    """The unique position in [lo, hi] (lo >= 1) with maximal 2-adic valuation.

    Two positions sharing the maximal valuation would have a higher-valuation
    multiple strictly between them, so the argmax is unique. It is the
    largest multiple of 2^k in the range, where k is the highest bit in
    which lo - 1 and hi differ: hi has that bit set, and clearing the bits
    below it keeps the value above lo - 1.
    """
    k = (hi ^ (lo - 1)).bit_length() - 1
    return (hi >> k) << k, k


def thue_morse_split_sets(index: FactorIndex):
    """Suffix and prefix sets of the doubling-morphism iterates, with a cut rule.

    S1 holds every suffix (and S2 every prefix) of the r-fold images of both
    letters under 0->01, 1->10, for the least r >= 1 with 2^r >= n_max,
    which gives exactly two words per length; the images are the Thue-Morse
    prefix of 2^r letters, which the window check has already generated
    when the window holds 2 * n_max >= 2^r letters, and its complement. The
    returned ``cut(start, n)`` splits the factor ``window[start:start + n]``
    at the boundary of maximal 2-adic valuation inside that span, keeping
    both parts non-empty when n >= 2; the valuation makes the left part a
    suffix, and the right part a prefix, of some iterate.

    The route holds for the Thue-Morse word only, whatever spec names it, so
    the window is compared with the Thue-Morse prefix of the same length.
    """
    n_max, window = index.n_max, index.window
    tm = thue_morse()
    if window != tm.prefix(index.n_work):
        raise PreconditionError(
            "method-mismatch",
            "the doubling-morphism route is specific to the tm word")
    block = tm.prefix(2 ** max(1, (n_max - 1).bit_length()))
    coblock = block.translate(str.maketrans("01", "10"))
    s1 = LeveledLanguage([""])
    s2 = LeveledLanguage([""])
    for m in range(1, n_max + 1):
        s1.add(block[-m:])
        s1.add(coblock[-m:])
        s2.add(block[:m])
        s2.add(coblock[:m])

    def cut(start: int, n: int) -> SplitRecord:
        if not 1 <= n <= n_max:
            raise PreconditionError(
                "out-of-range", f"cut is defined for lengths 1..{n_max}")
        _check_span(window, start, n)
        # a single letter has the one boundary start + 1, which leaves t empty
        boundary, val = _max_valuation_boundary(start + 1, start + max(n - 1, 1))
        return SplitRecord(start, boundary, start + n, val, boundary, None)

    return s1, s2, cut


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


# -- one entry point for the four routes ----------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """What one route built on one index: the sets, one split record per
    covered word, the route's own figures (``extras``), the marker family of
    the marker route (None on the others) and the cover report."""

    s_lang: LeveledLanguage
    t_lang: LeveledLanguage
    records: list[SplitRecord]
    extras: dict
    markers: dict[int, MarkerSet] | None
    report: CoverReport


METHODS = ("marker", "greedy", "tm", "sturmian")


def build_decomposition(index: FactorIndex, method: str,
                        budget: int = 1) -> Decomposition:
    """Run the route ``method`` on ``index`` and check what it built.

    The marker, tm and sturmian routes split every indexed factor, at its
    first occurrence as :meth:`FactorIndex.rows` lists it. The greedy route
    splits the prefixes of the window up to length n_max under the
    per-length budget slope ``budget``. Every route ends in one
    :func:`verify_cover` call over its words (the index rows, or the start 0
    at every length for the prefixes), which gives the report; a word with
    no cut is refused there, on every route, before anything is returned,
    and so are sets above the route's per-length claim as ``bound-exceeded``.
    The marker records come from :func:`build_st` and the tm records from
    the route's ``cut``; the sturmian and greedy records are the leftmost
    cuts that report holds. A ``budget`` below 1 is refused on every route,
    not only on greedy.
    """
    if budget < 1:
        raise PreconditionError(
            "out-of-range", f"budget slope must be >= 1, got {budget}")
    n_max = index.n_max
    markers = None
    extras = {}
    records = None
    if method == "marker":
        markers = build_all_markers(index)
        s_lang, t_lang, records = build_st(index, markers)
        c, k = index.slope_constants()
        d = next(iter(markers.values())).D
        r = max(len(ms.markers) for ms in markers.values())
        extras = {"C": c, "K": k, "D": d, "R": r, "orders": sorted(markers),
                  "bound": split_sets_bound(r, c, d)}
        claim = extras["bound"]
    elif method == "tm":
        s_lang, t_lang, cut = thue_morse_split_sets(index)
        records = [cut(i, n) for n, row in enumerate(index.rows(), start=1) for i in row]
        claim = 2
    elif method == "sturmian":
        s_lang, t_lang = sturmian_split_sets(index)
        claim = 2
    elif method == "greedy":
        prefixes = LeveledLanguage(index.window[:n] for n in range(1, n_max + 1))
        s_lang, t_lang = greedy_two_sets(prefixes, budget)
        extras = {"budget": budget}
        claim = 2 * budget + 1
    else:
        raise PreconditionError(
            "unknown-method", f"method must be one of {', '.join(METHODS)}, got {method!r}")
    rows = [[0]] * n_max if method == "greedy" else index.rows()
    report = verify_cover(index.window, rows, s_lang, t_lang)
    if report.uncovered:
        raise VerificationError(
            "coverage-incomplete", f"no split found for {report.uncovered[0]!r}")
    most = max(s_lang.per_length_max(), t_lang.per_length_max())
    if most > claim:
        raise VerificationError(
            "bound-exceeded", f"{most} words of one length in S or T, above the claim {claim}")
    if records is None:
        cuts = iter(report.cuts)
        records = [SplitRecord(i, i + next(cuts), i + n, None, None, None)
                   for n, row in enumerate(rows, start=1) for i in row]
    return Decomposition(s_lang=s_lang, t_lang=t_lang, records=records,
                         extras=extras, markers=markers, report=report)


# -- counting bounds -------------------------------------------------------------


def compositions_count(n: int, k: int) -> int:
    """Number of ways to write n as an ordered sum of k + 1 counts >= 0."""
    if n < 0 or k < 0:
        raise PreconditionError("out-of-range", f"need n >= 0 and k >= 0, got {n}, {k}")
    return math.comb(n + k, k)


def product_complexity_bound(cap: int, k: int, n: int) -> int:
    """Upper bound cap^(k+1) * comb(n+k, k) for the complexity at length n
    of a product of k + 1 languages each holding at most ``cap`` words per
    length."""
    if cap < 1:
        raise PreconditionError("out-of-range", f"per-length cap must be >= 1, got {cap}")
    return cap ** (k + 1) * compositions_count(n, k)
