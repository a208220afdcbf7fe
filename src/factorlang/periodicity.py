"""Minimal periods, occurrence classification, and marker sets.

An occurrence of a factor is *internal* when the window letters immediately
before and after it continue its minimal period on both sides (wherever those
letters exist); it is *initial* when the left side breaks and *final* when
the right side breaks. Markers are short factors that every sufficiently long
window factor must contain; right special factors of length 2^k serve as the
markers of order k, and the containment property is verified against the
window rather than assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import PreconditionError, VerificationError
from .factors import FactorIndex


def minimal_period(word: str) -> tuple[int, str]:
    """The smallest p with word[i] = word[i+p] for all i, and the length-p root.

    Computed from the longest proper border (prefix that is also a suffix):
    the minimal period of a word of length n with border length b is n - b.
    """
    if word == "":
        raise PreconditionError("empty-word", "the empty word has no period")
    n = len(word)
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and word[i] != word[k]:
            k = border[k - 1]
        if word[i] == word[k]:
            k += 1
        border[i] = k
    p = n - border[-1]
    return p, word[:p]


@dataclass(frozen=True)
class OccurrenceClass:
    internal: bool
    initial: bool
    final: bool

    def __post_init__(self):
        if self.internal and (self.initial or self.final):
            raise PreconditionError(
                "bad-occurrence-class", "internal excludes initial and final")

    @property
    def label(self) -> str:
        if self.internal:
            return "internal"
        parts = [name for name, flag in
                 (("initial", self.initial), ("final", self.final)) if flag]
        return "+".join(parts)


def classify_occurrence(window: str, position: int, length: int) -> OccurrenceClass:
    """Classify the occurrence of window[position:position+length].

    Writing p for the minimal period of the occurring factor, the left check
    compares each of the first p letters of the occurrence with the letter p
    places earlier (where the window provides one), and the right check
    compares each of the last p letters with the letter p places later. A
    mismatch inside the window settles the right check early; if the window
    runs out before a mismatch, the classification would be a guess, so it
    is refused.
    """
    n = length
    if n < 1:
        raise PreconditionError("out-of-range", f"occurrence length must be >= 1, got {n}")
    if position < 0 or position + n > len(window):
        raise PreconditionError(
            "out-of-range",
            f"occurrence [{position}, {position + n}) outside window of length {len(window)}")
    a = position
    pw, _ = minimal_period(window[a:a + n])
    left_ok = all(window[a + o] == window[a + o - pw]
                  for o in range(max(0, pw - a), pw))
    right_ok = True
    for o in range(n - pw, n):
        if a + o + pw >= len(window):
            raise PreconditionError(
                "insufficient-right-context",
                f"undecidable without {pw} letters after position {a + n},"
                f" window ends at {len(window)}")
        if window[a + o] != window[a + o + pw]:
            right_ok = False
            break
    return OccurrenceClass(internal=left_ok and right_ok,
                           initial=not left_ok,
                           final=not right_ok)


@dataclass(frozen=True)
class MarkerSet:
    """Markers of one order: factors of length 2^order, with their guarantee D.

    The defining property, checked by :func:`verify_marker_property`, is that
    every window factor of length D * 2^order contains at least one marker.
    """

    order: int
    markers: frozenset[str]
    D: int

    def __post_init__(self):
        want = 2 ** self.order
        for m in self.markers:
            if len(m) != want:
                raise PreconditionError(
                    "bad-marker-length",
                    f"order {self.order} markers must have length {want}, got {m!r}")


def verify_marker_property(index: FactorIndex, markers, n: int, D: int) -> bool:
    """True when every stored factor of length D*n contains one of ``markers``."""
    span = D * n
    if span > index.n_max:
        raise PreconditionError(
            "out-of-range",
            f"marker property at span {span} exceeds the indexed range {index.n_max}")
    marker_list = sorted(markers)
    for factor in index.factors_of_length(span):
        if not any(m in factor for m in marker_list):
            return False
    return True


def build_markers(index: FactorIndex, order: int, C: int) -> MarkerSet:
    """Right special factors of length 2^order as markers with D = C + 1.

    The containment property is verified against the window before the set is
    returned; a failure signals an undersized window or a periodic source.
    """
    if order < 1:
        raise PreconditionError("out-of-range", f"marker order must be >= 1, got {order}")
    length = 2 ** order
    D = C + 1
    if length > index.n_max - 1 or D * length > index.n_max:
        raise PreconditionError(
            "out-of-range",
            f"order {order} needs markers of length {length} and spans of"
            f" {D * length}, beyond the indexed range {index.n_max}")
    markers = frozenset(index.right_special(length))
    if not verify_marker_property(index, markers, length, D):
        raise VerificationError(
            "marker-property-violation",
            f"some window factor of length {D * length} avoids all"
            f" {len(markers)} markers of order {order}"
            " (undersized window or periodic source)")
    return MarkerSet(order=order, markers=markers, D=D)


def require_linear_window(index: FactorIndex) -> int:
    """Return the slope C = ceil(max p(n)/n) once the window shows linear
    complexity, the one precondition of the marker route.

    The checks run in order: the first half of the window must hold every
    factor up to n_max (a quadratic word's counts keep growing with the
    window); the profile must have no plateau p(n+1) = p(n), which an
    aperiodic word never has (Morse-Hedlund); and the largest p(n)/n must
    not grow more than 1.25-fold from the first half of the range to the
    whole. A quadratic word nearly doubles it (abk: 1.31 at n_max 8, up to
    1.96), while the linear words tried stay below 1.17 from n_max 8 on
    (Thue-Morse 1.16 at n_max 11).
    """
    grown = index.half_window_growth()
    if grown is not None:
        raise PreconditionError(
            "not-linear-within-window",
            f"p({grown}) is larger on the whole window of {index.n_work} letters"
            f" than on its first {index.n_work // 2}: the complexity is not linear,"
            " or the window is too short to show every factor (enlarge --window);"
            " the marker construction needs linear complexity")
    plateau = index.detect_eventual_periodicity()
    if plateau is not None:
        raise PreconditionError(
            "eventually-periodic",
            f"p({plateau + 1}) = p({plateau}): the word is ultimately periodic, or"
            f" the window of {index.n_work} letters is too short to show otherwise;"
            " the marker construction needs an aperiodic word")
    half = max(1, index.n_max // 2)
    ratios = [c / n for n, c in enumerate(index.profile().p, 1)]
    r_half, r_full = max(ratios[:half]), max(ratios)
    # p(n)/n is exact when n divides p(n) and at least 1/n off an integer
    # otherwise, so ceil gives the integer slope C
    c_half, c_full = math.ceil(r_half), math.ceil(r_full)
    if r_full > 1.25 * r_half:
        raise PreconditionError(
            "not-linear-within-window",
            f"complexity slope grows with length (max p(n)/n = {r_half:.3f}, C = {c_half}"
            f" up to n = {half}, but {r_full:.3f}, C = {c_full} up to n = {index.n_max});"
            " the marker construction needs linear complexity")
    return c_full


def build_all_markers(index: FactorIndex) -> dict[int, MarkerSet]:
    """Marker sets for every order the window can support, keyed by order.

    The window must first pass :func:`require_linear_window`, before any
    marker or factor table is built; D is C + 1 for the slope C it returns.
    Orders run from 1 up to the largest k with D * 2^k <= n_max, so the
    containment property of every returned set is verified, not
    extrapolated.
    """
    D = require_linear_window(index) + 1
    top = (index.n_max // D).bit_length() - 1
    if top < 1:
        raise PreconditionError(
            "no-marker-orders",
            f"n_max = {index.n_max} cannot fit even order 1 (D = {D} needs"
            f" spans of {2 * D})")
    return {order: build_markers(index, order, D - 1) for order in range(1, top + 1)}


def markers_to_jsonl(family: dict[int, MarkerSet]) -> str:
    """One JSON object per marker, sorted by (order, marker)."""
    lines = []
    for order in sorted(family):
        for m in sorted(family[order].markers):
            lines.append(json.dumps({"k": order, "marker": m}, sort_keys=True))
    return "\n".join(lines) + "\n"
