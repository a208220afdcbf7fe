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
from per-start and per-end membership masks; :func:`witness_split` reads the
same masks for the Sturmian and greedy records, whose cut is the leftmost
one, the mask's lowest set bit. :func:`build_decomposition` is the one entry
point that runs a route, by name, on a factor index and returns its sets,
records and cover report.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import PreconditionError, VerificationError
from .factors import FactorIndex
from .periodicity import MarkerSet, build_all_markers, classify_occurrence, OccurrenceClass
from .words import Morphism, thue_morse


class LeveledLanguage:
    """A finite language organized by word length.

    Words of length >= 1 live in per-length sets; the empty word is a flag so
    that cardinality and membership stay uniform. Iteration is sorted by
    (length, word) to keep every downstream artifact deterministic.
    """

    def __init__(self, words=(), include_epsilon: bool = False):
        self.by_length: dict[int, set[str]] = {}
        self.includes_epsilon = bool(include_epsilon)
        for w in words:
            self.add(w)

    def add(self, word: str):
        if word == "":
            self.includes_epsilon = True
        else:
            self.by_length.setdefault(len(word), set()).add(word)

    def __contains__(self, word: str) -> bool:
        if word == "":
            return self.includes_epsilon
        bucket = self.by_length.get(len(word))
        return bucket is not None and word in bucket

    def cardinality(self, n: int) -> int:
        if n == 0:
            return 1 if self.includes_epsilon else 0
        return len(self.by_length.get(n, ()))

    def lengths(self) -> list[int]:
        out = sorted(self.by_length)
        if self.includes_epsilon:
            out.insert(0, 0)
        return out

    def per_length_max(self) -> int:
        return max((len(ws) for ws in self.by_length.values()), default=0)

    def words(self):
        """All words sorted by (length, word), the empty word first."""
        if self.includes_epsilon:
            yield ""
        for n in sorted(self.by_length):
            yield from sorted(self.by_length[n])

    def total(self) -> int:
        return sum(len(ws) for ws in self.by_length.values()) + (
            1 if self.includes_epsilon else 0)

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


@dataclass(frozen=True)
class SplitRecord:
    """One factor's decomposition witness: ``v = s + t``.

    For marker splits, ``order`` is the marker order, ``position`` the window
    position of the chosen marker occurrence and ``occurrence_class`` its
    classification. Short factors that go into S wholesale carry their first
    occurrence position and no order or class. The doubling-morphism route
    stores the 2-adic valuation of the cut boundary as ``order`` and the
    1-based boundary position as ``position``.
    """

    v: str
    s: str
    t: str
    order: int | None
    position: int | None
    occurrence_class: OccurrenceClass | None

    def __post_init__(self):
        if self.s + self.t != self.v:
            raise PreconditionError(
                "bad-split", f"parts {self.s!r} + {self.t!r} do not rebuild {self.v!r}")


SPLIT_CSV_HEADER = "v,s,t,k,pos,class"


def split_records_to_csv(records) -> str:
    lines = [SPLIT_CSV_HEADER]
    for r in records:
        k = "" if r.order is None else str(r.order)
        pos = "" if r.position is None else str(r.position)
        label = "" if r.occurrence_class is None else r.occurrence_class.label
        lines.append(f"{r.v},{r.s},{r.t},{k},{pos},{label}")
    return "\n".join(lines) + "\n"


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
        self._classes: dict[tuple[int, int], OccurrenceClass | None] = {}

    def occurrence_class(self, position: int, order: int) -> OccurrenceClass | None:
        key = (position, order)
        if key not in self._classes:
            try:
                self._classes[key] = classify_occurrence(
                    self.index.window, position, 2 ** order)
            except PreconditionError:
                self._classes[key] = None
        return self._classes[key]


def split_factor(occurrences: MarkerOccurrences, v: str,
                 start: int | None = None) -> SplitRecord:
    """Cut ``v`` at the midpoint of a chosen marker occurrence.

    The order is the largest one with a marker occurring inside ``v``; within
    that order the marker with the leftmost occurrence is chosen. Among the
    occurrences of that marker inside the first window occurrence of ``v``,
    an extreme one (initial or final) is preferred, the first of them; if all
    are internal the first classified occurrence is used, and if none can be
    classified the first occurrence, with no class. The cut falls at the
    middle of the marker, so s ends with its left half and t starts with its
    right half.

    ``start`` is the first window occurrence of ``v`` when the caller already
    knows it (the factor index lists it); otherwise it is looked up. The
    occurrences are read from ``occurrences`` by bisection, not searched for.
    """
    index = occurrences.index
    d = occurrences.D
    if len(v) < 2 * d:
        raise PreconditionError(
            "precondition-violation",
            f"marker splitting needs |v| >= {2 * d}, got {len(v)}")
    if start is None:
        start = index.window.find(v)
        if start == -1:
            raise PreconditionError(
                "precondition-violation", f"{v!r} is not a factor of the window")
    end = start + len(v)
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
            if not cls.internal:
                chosen = (pos, cls)
                break
        pos, cls = chosen or first_classified or (starts[at], None)
        cut = pos + length // 2
        return SplitRecord(v=v, s=index.window[start:cut], t=index.window[cut:end],
                           order=order, position=pos, occurrence_class=cls)
    raise VerificationError(
        "no-marker-found",
        f"no marker of any order occurs in {v!r} (undersized window?)")


def split_sets_bound(R: int, C: int, D: int) -> float:
    """Per-length cardinality bound R(log2 D + 2)(1 + 4C(2D + 1))."""
    return R * (math.log2(D) + 2) * (1 + 4 * C * (2 * D + 1))


def build_st(index: FactorIndex, markers: dict[int, MarkerSet] | None = None):
    """Split every indexed factor into S and T via marker midpoints.

    Factors shorter than 2D go into S wholesale, paired with the empty word;
    the rest are cut by :func:`split_factor`, all reading one
    :class:`MarkerOccurrences` table built here. Returns (S, T, records)
    with one record per indexed factor in (length, word) order.
    """
    if markers is None:
        markers = build_all_markers(index)
    occurrences = MarkerOccurrences(index, markers)
    d = occurrences.D
    s_lang = LeveledLanguage()
    t_lang = LeveledLanguage(include_epsilon=True)
    records = []
    for n in range(1, index.n_max + 1):
        for v, first in index.factors_with_positions(n):
            if n < 2 * d:
                s_lang.add(v)
                records.append(SplitRecord(v=v, s=v, t="", order=None,
                                           position=first, occurrence_class=None))
            else:
                rec = split_factor(occurrences, v, first)
                s_lang.add(rec.s)
                t_lang.add(rec.t)
                records.append(rec)
    return s_lang, t_lang, records


# -- independent coverage check ----------------------------------------------


@dataclass
class CoverReport:
    total: int
    uncovered: list[str]
    s_cardinalities: dict[int, int]
    t_cardinalities: dict[int, int]

    @property
    def covered(self) -> int:
        return self.total - len(self.uncovered)

    @property
    def coverage(self) -> float:
        return 1.0 if self.total == 0 else self.covered / self.total

    @property
    def s_per_length_max(self) -> int:
        return max([v for k, v in self.s_cardinalities.items() if k > 0], default=0)

    @property
    def t_per_length_max(self) -> int:
        return max([v for k, v in self.t_cardinalities.items() if k > 0], default=0)


def _cut_masks(window: str, rows, s_lang: LeveledLanguage,
               t_lang: LeveledLanguage):
    """Yield (n, row, masks) for each row, row by row.

    ``rows[n-1]`` lists the starts i of the words ``window[i:i+n]`` of length
    n, and ``masks[k]`` is the cut mask of the word at ``row[k]``: bit c set
    when ``window[i:i+c]`` is in S and ``window[i+c:i+n]`` is in T. The
    membership probes are made per start and per end, not per word and cut:

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
    for n, row in enumerate(rows, start=1):
        yield n, row, [from_start[i] & (to_end[i + n] >> (hi - n)) for i in row]


def verify_cover(index: FactorIndex, s_lang: LeveledLanguage,
                 t_lang: LeveledLanguage, n_max: int | None = None) -> CoverReport:
    """Check by membership that every indexed factor is a word of S times T.

    This deliberately ignores any split records: a factor counts as covered
    when some cut puts its left part in S and its right part in T. Every
    indexed factor is ``w[i:i+n]`` for its first-occurrence start i, and it
    is covered exactly when its :func:`_cut_masks` mask is not zero.
    """
    hi = index.n_max if n_max is None else n_max
    if not 1 <= hi <= index.n_max:
        raise PreconditionError(
            "out-of-range", f"cover range 1..{hi} outside the indexed 1..{index.n_max}")
    rows = [index.factor_starts(n).tolist() for n in range(1, hi + 1)]
    window = index.window
    uncovered = []
    for n, row, masks in _cut_masks(window, rows, s_lang, t_lang):
        uncovered.extend(window[i:i + n] for i, m in zip(row, masks) if not m)
    return CoverReport(total=sum(map(len, rows)), uncovered=uncovered,
                       s_cardinalities=_cardinalities(s_lang),
                       t_cardinalities=_cardinalities(t_lang))


def witness_split(window: str, rows, s_lang: LeveledLanguage,
                  t_lang: LeveledLanguage) -> list[SplitRecord]:
    """The leftmost cut of each word ``window[i:i+n]``, i in ``rows[n-1]``,
    with both parts in the given sets, in row order.

    The cut is the lowest set bit of the word's :func:`_cut_masks` mask; a
    word whose mask is zero has no cut and is refused.
    """
    records = []
    for n, row, masks in _cut_masks(window, rows, s_lang, t_lang):
        for i, m in zip(row, masks):
            if not m:
                raise VerificationError(
                    "coverage-incomplete", f"no split found for {window[i:i + n]!r}")
            cut = i + (m & -m).bit_length() - 1
            records.append(SplitRecord(v=window[i:i + n], s=window[i:cut],
                                       t=window[cut:i + n], order=None,
                                       position=None, occurrence_class=None))
    return records


def _cardinalities(lang: LeveledLanguage) -> dict[int, int]:
    return {n: lang.cardinality(n) for n in lang.lengths()}


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

    S1 holds every suffix (and S2 every prefix) of the n-fold images of both
    letters under 0->01, 1->10, which gives exactly two words per length. The
    returned ``cut(v, start=None)`` splits a factor at the boundary of
    maximal 2-adic valuation inside its first occurrence, preferring a
    boundary that keeps both parts non-empty; the valuation makes the left
    part a suffix, and the right part a prefix, of some iterate. ``start`` is
    that first occurrence when the caller already knows it (the factor index
    lists it); otherwise it is looked up.

    The route holds for the Thue-Morse word only, whatever spec names it, so
    the window is compared with the Thue-Morse prefix of the same length.
    """
    n_max, window = index.n_max, index.window
    if window != thue_morse().prefix(index.n_work):
        raise PreconditionError(
            "method-mismatch",
            "the doubling-morphism route is specific to the tm word")
    rounds = max(1, (n_max - 1).bit_length())
    morphism = Morphism({"0": "01", "1": "10"}, "0")
    block, coblock = "0", "1"
    for _ in range(rounds):
        block, coblock = morphism.apply(block), morphism.apply(coblock)
    s1 = LeveledLanguage(include_epsilon=True)
    s2 = LeveledLanguage(include_epsilon=True)
    for m in range(1, n_max + 1):
        s1.add(block[-m:])
        s1.add(coblock[-m:])
        s2.add(block[:m])
        s2.add(coblock[:m])

    def cut(v: str, start: int | None = None) -> SplitRecord:
        if not 1 <= len(v) <= n_max:
            raise PreconditionError(
                "out-of-range", f"cut is defined for lengths 1..{n_max}")
        if start is None:
            start = index.window.find(v)
            if start == -1:
                raise PreconditionError(
                    "precondition-violation", f"{v!r} is not a factor of the window")
        last = start + len(v) - 1
        if len(v) == 1:
            boundary = start + 1
            val = (boundary & -boundary).bit_length() - 1
            return SplitRecord(v=v, s=v, t="", order=val, position=boundary,
                               occurrence_class=None)
        boundary, val = _max_valuation_boundary(start + 1, last)
        s = window[start:boundary]
        t = window[boundary:start + len(v)]
        return SplitRecord(v=v, s=s, t=t, order=val, position=boundary,
                           occurrence_class=None)

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
    s1 = LeveledLanguage(include_epsilon=True)
    s2 = LeveledLanguage(include_epsilon=True)
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
    so both sets stay below 2 * budget_slope + 1 words per length. Feasibility
    for every word is guaranteed when the accumulative count of ``lang`` stays
    within budget_slope * n; a word with no affordable split certifies that
    the input broke that promise.
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
        for side, part in ((s_lang, v[:best_cut]), (t_lang, v[best_cut:])):
            if part and side.cardinality(len(part)) > cap + 1:
                raise VerificationError(
                    "budget-overflow",
                    f"length {len(part)} exceeded {cap + 1} words")
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

    The marker, tm and sturmian routes split every indexed factor, and their
    report comes from :func:`verify_cover`. The greedy route splits the
    prefixes of the window up to length n_max under the per-length budget
    slope ``budget``; its report counts those prefixes. The sturmian and
    greedy records come from one :func:`witness_split` call over their words
    (the index rows, or the start 0 at every length for the prefixes): each
    is the leftmost cut read from the cover masks, and a word with no cut is
    refused there. A ``budget`` below 1 is refused on every route, not only
    on greedy.
    """
    if budget < 1:
        raise PreconditionError(
            "out-of-range", f"budget slope must be >= 1, got {budget}")
    n_max = index.n_max
    markers = None
    extras = {}
    report = None
    if method == "marker":
        markers = build_all_markers(index)
        s_lang, t_lang, records = build_st(index, markers)
        c, k = index.slope_constants()
        d = next(iter(markers.values())).D
        r = max(len(ms.markers) for ms in markers.values())
        extras = {"C": c, "K": k, "D": d, "R": r, "orders": sorted(markers),
                  "bound": split_sets_bound(r, c, d)}
    elif method == "tm":
        s_lang, t_lang, cut = thue_morse_split_sets(index)
        records = [cut(v, start) for n in range(1, n_max + 1)
                   for v, start in index.factors_with_positions(n)]
    elif method == "sturmian":
        s_lang, t_lang = sturmian_split_sets(index)
        rows = [index.factor_starts(n).tolist() for n in range(1, n_max + 1)]
        records = witness_split(index.window, rows, s_lang, t_lang)
    elif method == "greedy":
        prefixes = LeveledLanguage(index.window[:n] for n in range(1, n_max + 1))
        s_lang, t_lang = greedy_two_sets(prefixes, budget)
        records = witness_split(index.window, [[0]] * n_max, s_lang, t_lang)
        extras = {"budget": budget}
        report = CoverReport(total=prefixes.total(), uncovered=[],
                             s_cardinalities=_cardinalities(s_lang),
                             t_cardinalities=_cardinalities(t_lang))
    else:
        raise PreconditionError(
            "unknown-method", f"method must be one of {', '.join(METHODS)}, got {method!r}")
    if report is None:
        report = verify_cover(index, s_lang, t_lang)
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
