"""Counting experiments behind the complexity growth claims.

These functions quantify how fast the block-product words grow: the staircase
words a b^l a b^(l+1) ... a b^(l+k-1) a and the count of (k, l) shapes that
fit in a given length, the pair counts that witness the cubed-length family
of the general block product, ratio-band fits of measured complexity
profiles against reference growth models, and the counting bound on the
complexity of a product of languages with few words per length.

The module is plain integer and float arithmetic and imports no numpy: it
reads profiles, indexes and languages that its callers built, so the
counting experiments run without the numpy layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import PreconditionError
from .words import _F_SPECS

if TYPE_CHECKING:
    from .decompose import LeveledLanguage
    from .factors import ComplexityProfile, FactorIndex

# the largest n staircase_pair_count counts, in isqrt(2n) = 1.4 million steps
# (half a second on a 2-core host); read on each call, so a test can lower it
STAIRCASE_N_CAP = 10 ** 12


def staircase_pair_count(n: int) -> int:
    """Number of pairs (k, l) with k >= 3, l >= sqrt(n) whose staircase word
    fits in length n.

    The count grows like n log n. Only k below sqrt(2n) can contribute: for
    larger k even the shortest staircase at the minimal l is too long.
    """
    if n > STAIRCASE_N_CAP:
        raise PreconditionError(
            "resource-limit",
            f"staircase pair count at n = {n} exceeds the configured cap {STAIRCASE_N_CAP}")
    if n < 1:
        return 0
    l_floor = math.isqrt(n)
    if l_floor * l_floor < n:
        l_floor += 1
    total = 0
    for k in range(3, math.isqrt(2 * n) + 1):
        # the staircase of (k, l) has k * (2l + k + 1) / 2 + 1 letters, and
        # that is <= n  <=>  2*k*l <= 2*(n-1) - k*(k+1)
        num = 2 * (n - 1) - k * (k + 1)
        if num < 0:
            break
        l_max = num // (2 * k)
        if l_max >= l_floor:
            total += l_max - l_floor + 1
    return total


def witness_pair_count(n: int, k: int) -> int:
    """Number of (p, q) with p + q < (n - 2) / (2k - 1), 1 <= q <= isqrt(p)
    and a repetition count k(p, q) = p of at least 2k - 1.

    Each such pair contributes a distinct factor family at length n in the
    block-product word, so the count lower-bounds how much variety survives
    at that length. With ``top`` the largest admissible p + q, each p adds
    min(isqrt(p), top - p) pairs: isqrt(p) up to the last p with
    p + isqrt(p) <= top, which is top - isqrt(top) or the next one (the sum
    grows by 1 or 2 a step), and top - p after it, down to 1.
    """
    if n < 3 or k < 1:
        raise PreconditionError("out-of-range", f"need n >= 3 and k >= 1, got {n}, {k}")
    need = 2 * k - 1
    top = -(-(n - 2) // need) - 1
    if top <= need:
        return 0
    last = top - math.isqrt(top)
    last = max(last + (last + 1 + math.isqrt(last + 1) <= top), need - 1)
    tail = top - 1 - last

    def isqrt_sum(x):  # isqrt(0) + ... + isqrt(x); each r < isqrt(x) repeats 2r + 1 times
        r = math.isqrt(x)
        return (r - 1) * r * (4 * r + 1) // 6 + r * (x - r * r + 1)

    return isqrt_sum(last) - isqrt_sum(need - 1) + tail * (tail + 1) // 2


_MODELS: dict[str, Callable[[int], float]] = {
    "n": lambda n: float(n),
    "n2": lambda n: float(n * n),
    "n3": lambda n: float(n ** 3),
    "nlogn": lambda n: n * math.log(n),
    "n2f": lambda n: float(n * n * math.isqrt(n)),
}


def resolve_model(model: str) -> tuple[str, Callable[[int], float]]:
    """Accepts a model name, or ``n2f:<fname>`` for a run-count weighted
    quadratic, f one of the run-count functions of the pq words. Anything
    else, an unknown f included, is refused as ``bad-model``."""
    if model in _MODELS:
        return model, _MODELS[model]
    f_fn = _F_SPECS.get(model.removeprefix("n2f:")) if model.startswith("n2f:") else None
    if f_fn is None:
        raise PreconditionError("bad-model", f"unknown growth model {model!r}")
    return model, lambda n: float(n * n * f_fn(n))


@dataclass(frozen=True)
class GrowthFit:
    """Ratio band of a measured profile against a growth model.

    A small spread, ratio_max / ratio_min, is a finite-data stand-in for
    matching the model's order of growth on both sides.
    """

    model: str
    lo: int
    hi: int
    ratio_min: float
    ratio_max: float

    @property
    def spread(self) -> float:
        if self.ratio_min <= 0.0:
            return math.inf
        return self.ratio_max / self.ratio_min


def _check_fit_range(lo: int, hi: int, n_max: int):
    if not 1 <= lo <= hi <= n_max:
        raise PreconditionError(
            "range-out-of-profile",
            f"fit range {lo}..{hi} outside the profile range 1..{n_max}")


def model_values(model: str, lo: int, hi: int) -> tuple[str, list[float]]:
    """The name of ``model`` and its values at lo..hi, checked as
    :func:`growth_fit` checks them over a profile up to length hi: a range
    outside 1..hi is refused as ``range-out-of-profile``, and a value that
    is not positive as ``bad-model``. Needs no profile, so a fit can be
    refused before its window is built."""
    _check_fit_range(lo, hi, hi)
    name, fn = resolve_model(model)
    values = []
    for n in range(lo, hi + 1):
        value = fn(n)
        if value <= 0:
            raise PreconditionError("bad-model", f"model {name} not positive at n = {n}")
        values.append(value)
    return name, values


def growth_fit(profile: ComplexityProfile, model: str, lo: int, hi: int) -> GrowthFit:
    """Min and max of p(n) / model(n) over lo <= n <= hi."""
    _check_fit_range(lo, hi, profile.n_max)
    name, values = model_values(model, lo, hi)
    ratios = [p / value for p, value in zip(profile.p[lo - 1:hi], values)]
    return GrowthFit(model=name, lo=lo, hi=hi,
                     ratio_min=min(ratios), ratio_max=max(ratios))


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


@dataclass(frozen=True)
class ProductBoundReport:
    """Measured complexity at one length against the product counting bound."""

    n: int
    measured: int
    cap: int
    k: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound


def product_bound_audit(sets: list[LeveledLanguage], index: FactorIndex,
                        n: int) -> ProductBoundReport:
    """Compare p(n) of the window against cap^(k+1) * comb(n+k, k).

    ``cap`` is the largest per-length cardinality over the given sets and k
    is one less than their number, so the bound is what the counting argument
    yields for a product of that many languages.
    """
    if not sets:
        raise PreconditionError("out-of-range", "need at least one language")
    # the length is checked by the index before the bound is computed, so a
    # length outside the indexed range is refused as such
    measured = index.complexity(n)
    cap = max(max(lang.per_length_max(), 1) for lang in sets)
    k = len(sets) - 1
    bound = product_complexity_bound(cap, k, n)
    return ProductBoundReport(n=n, measured=measured, cap=cap, k=k, bound=bound)
