"""The benchmark's workloads: factorlang commands and the checks of their outputs.

Each operation is one CLI command plus the check of what it printed or wrote.
The checks compare against ``oracles`` (never against a stored copy of an
earlier output) and raise :class:`CheckFailed` on the first disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable

import oracles

KINDS = ("decompose", "verify", "complexity", "experiment")


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One CLI command. ``{dir}`` in ``args`` stands for the round directory;
    ``out`` names the artifact directory it writes there, if any."""

    kind: str
    args: tuple[str, ...]
    out: str | None
    check: Callable[["Reference", Path, str], None]

    @property
    def label(self) -> str:
        return " ".join(self.args).replace("{dir}/", "")


class Reference:
    """Oracle values for one run, cached. The seed picks which lengths the
    sliding-window count samples; the program's inputs do not depend on it."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._words: dict[str, str] = {}
        self._samples: dict[tuple[str, int], list[int]] = {}
        self._counts: dict[tuple[str, int, int], int] = {}

    def window(self, word: str, n: int) -> str:
        if len(self._words.get(word, "")) < n:
            self._words[word] = oracles.WORDS[word](n)
        return self._words[word][:n]

    def exact(self, word: str) -> bool:
        return word in oracles.CLOSED_FORMS

    def samples(self, word: str, window: int, lo: int, hi: int) -> list[int]:
        """Lengths to check by sliding window: ``hi`` and three lengths in
        [lo, hi) drawn from the seed. They are drawn once per word and window,
        so that the commands on one window share the counts."""
        key = (word, window)
        if key not in self._samples:
            self._samples[key] = sorted({hi, *self._rng.sample(range(lo, hi), 3)})
        return [n for n in self._samples[key] if lo <= n <= hi]

    def p(self, word: str, window: int, n: int) -> int:
        if self.exact(word):
            return oracles.CLOSED_FORMS[word](n)
        key = (word, window, n)
        if key not in self._counts:
            self._counts[key] = oracles.sliding_complexity(self.window(word, window), n)
        return self._counts[key]


# -- readers --------------------------------------------------------------------


def read_set(path: Path, name: str) -> dict[int, set[str]]:
    """Words of an S.jsonl or T.jsonl file by length, length 0 for the empty
    word; the lines must be sorted by (length, word) and carry ``name``."""
    by_len: dict[int, set[str]] = {}
    last = None
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        row = json.loads(line)
        expect(set(row) == {"len", "set", "word"}, f"{path.name}:{i}: keys {sorted(row)}")
        word = row["word"]
        expect(row["set"] == name, f"{path.name}:{i}: set {row['set']!r}, expected {name!r}")
        expect(row["len"] == len(word), f"{path.name}:{i}: len disagrees with the word")
        key = (len(word), word)
        expect(last is None or key > last, f"{path.name}:{i}: not sorted or repeated")
        last = key
        by_len.setdefault(len(word), set()).add(word)
    return by_len


def per_length_max(by_len: dict[int, set[str]]) -> int:
    return max((len(ws) for n, ws in by_len.items() if n > 0), default=0)


def csv_rows(text: str, header: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("note: ")]
    expect(lines and lines[0] == header, f"csv header {lines[:1]}, expected {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def stdout_field(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    raise CheckFailed(f"no {key!r} line in the output")


# -- checks ---------------------------------------------------------------------


def check_decompose(route: str, word: str, n_max: int, window: int, out: str,
                    ref: Reference, rdir: Path, stdout: str):
    d = rdir / out
    s_set, t_set = read_set(d / "S.jsonl", "S"), read_set(d / "T.jsonl", "T")
    s_words = set().union(*s_set.values())
    t_words = set().union(*t_set.values())
    lines = (d / "splits.csv").read_text().splitlines()
    expect(lines[0] == "v,s,t,k,pos,class", f"splits.csv header {lines[0]!r}")
    w = ref.window(word, n_max if route == "greedy" else window)
    rows_per_len: Counter[int] = Counter()
    seen = set()
    for row in lines[1:]:
        v, s, t = row.split(",")[:3]
        expect(s + t == v, f"split {s!r} + {t!r} does not rebuild {v!r}")
        expect(v not in seen, f"factor {v!r} listed twice")
        seen.add(v)
        if route == "greedy":
            expect(w.startswith(v), f"{v!r} is not a prefix of {word}")
        else:
            expect(w.find(v) != -1, f"{v!r} does not occur in the window")
        expect(s in s_words, f"left part {s!r} of {v!r} is not in S.jsonl")
        expect(t in t_words, f"right part {t!r} of {v!r} is not in T.jsonl")
        rows_per_len[len(v)] += 1
    if route == "greedy":
        want = {n: 1 for n in range(1, n_max + 1)}
    else:
        want = {n: ref.p(word, window, n) for n in range(1, n_max + 1)}
    bad = [n for n in want if rows_per_len[n] != want[n]]
    expect(not bad and sum(rows_per_len.values()) == sum(want.values()),
           f"rows per length differ from p(n) first at n = {bad[:1]}")

    stats = json.loads((d / "stats.json").read_text())
    expect(stats["factors"] == sum(want.values()), f"stats factors {stats['factors']}")
    expect(stats["coverage"] == 1.0, f"stats coverage {stats['coverage']}")
    expect(stats["s_per_length_max"] == per_length_max(s_set)
           and stats["t_per_length_max"] == per_length_max(t_set),
           "stats per-length maxima disagree with S.jsonl and T.jsonl")
    expect(stdout_field(stdout, "coverage") == "1.000000", "printed coverage is not 1")

    if route in ("tm", "sturmian"):
        cap = 2
    elif route == "greedy":
        cap = 2 * stats["budget"] + 1
    else:
        cap = check_markers(d, ref, word, window, n_max, stats)
    expect(max(per_length_max(s_set), per_length_max(t_set)) <= cap,
           f"more than {cap} words of one length in S or T")


def check_markers(d: Path, ref: Reference, word: str, window: int, n_max: int,
                  stats: dict) -> float:
    """Check markers.jsonl and the marker constants; return the per-length cap."""
    c = max(-(-ref.p(word, window, n) // n) for n in range(1, n_max + 1))
    dd = c + 1
    w = ref.window(word, window)
    alphabet = set(w)
    per_order: Counter[int] = Counter()
    for line in (d / "markers.jsonl").read_text().splitlines():
        row = json.loads(line)
        k, m = row["k"], row["marker"]
        expect(len(m) == 2 ** k, f"order {k} marker {m!r} has the wrong length")
        expect(sum(w.find(m + a) != -1 for a in alphabet) >= 2,
               f"marker {m!r} is not right special in the window")
        per_order[k] += 1
    top = (n_max // dd).bit_length() - 1
    expect(sorted(per_order) == list(range(1, top + 1)),
           f"marker orders {sorted(per_order)}, expected 1..{top}")
    r = max(per_order.values())
    bound = oracles.split_sets_bound(r, c, dd)
    for key, value in (("C", c), ("D", dd), ("R", r)):
        expect(stats[key] == value, f"stats {key} = {stats[key]}, recomputed {value}")
    expect(math.isclose(stats["bound"], bound), f"stats bound {stats['bound']} != {bound}")
    return bound


def check_verify(word: str, n_max: int, window: int, out: str,
                 ref: Reference, rdir: Path, stdout: str):
    s_set = read_set(rdir / out / "S.jsonl", "S")
    t_set = read_set(rdir / out / "T.jsonl", "T")
    total = sum(ref.p(word, window, n) for n in range(1, n_max + 1))
    expect(stdout_field(stdout, "factors") == str(total), f"factors line, expected {total}")
    expect(stdout_field(stdout, "coverage") == "1.000000", "coverage is not 1")
    want = f"S={per_length_max(s_set)} T={per_length_max(t_set)}"
    expect(stdout_field(stdout, "per-length max") == want, f"per-length max, expected {want}")


def check_complexity(word: str, n_max: int, window: int,
                     ref: Reference, rdir: Path, stdout: str):
    rows = csv_rows(stdout, "n,p,g")
    expect([r[0] for r in rows] == [str(n) for n in range(1, n_max + 1)], "lengths")
    p = [int(r[1]) for r in rows]
    g = [int(r[2]) for r in rows]
    expect(g == list(accumulate(p)), "g is not the running sum of p")
    lengths = (range(1, n_max + 1) if ref.exact(word)
               else ref.samples(word, window, 1, n_max))
    for n in lengths:
        expect(p[n - 1] == ref.p(word, window, n), f"p({n}) = {p[n - 1]}")


MODELS = {
    "n": lambda n: float(n),
    "n2": lambda n: float(n * n),
    "n2f:isqrt": lambda n: float(n * n * math.isqrt(n)),
}


def check_fit(word: str, model: str, lo: int, hi: int, window: int, max_spread: float,
              ref: Reference, rdir: Path, stdout: str):
    rows = csv_rows(stdout, "n,count,model,ratio")
    expect([r[0] for r in rows] == [str(n) for n in range(lo, hi + 1)], "lengths")
    fn = MODELS[model]
    ratios = []
    for n_text, count, m, ratio in rows:
        n, count = int(n_text), int(count)
        expect(m == f"{fn(n):.3f}", f"model value at n = {n}")
        expect(ratio == f"{count / fn(n):.6f}", f"ratio at n = {n}")
        ratios.append(count / fn(n))
    if ref.exact(word):
        lengths = range(lo, hi + 1)
    else:
        lengths = ref.samples(word, window, lo, hi)
    for n in lengths:
        expect(int(rows[n - lo][1]) == ref.p(word, window, n), f"p({n})")
    spread = max(ratios) / min(ratios)
    expect(spread <= max_spread, f"spread {spread:.3f} above {max_spread}")
    expect(stdout_field(stdout, "note").endswith(f"spread {spread:.3f}"), "note line")


def check_ecount(ref: Reference, rdir: Path, stdout: str):
    rows = csv_rows(stdout, "n,count,model,ratio")
    ns = [1000, 10000, 100000, 1000000]
    expect([int(r[0]) for r in rows] == ns, "lengths")
    ratios = []
    for (_, count, m, ratio), n in zip(rows, ns):
        want = oracles.staircase_pairs(n)
        model = n * math.log(n)
        expect(int(count) == want, f"count at n = {n} is {count}, expected {want}")
        expect(m == f"{model:.3f}" and ratio == f"{want / model:.6f}", f"model at {n}")
        ratios.append(want / model)
    expect(max(ratios) / min(ratios) <= 2.5, "ratio spread above 2.5")


def check_claim_pairs(k: int, ns: list[int], ref: Reference, rdir: Path, stdout: str):
    rows = csv_rows(stdout, "n,count,model,ratio")
    expect([int(r[0]) for r in rows] == ns, "lengths")
    counts = [int(r[1]) for r in rows]
    for (_, count, m, ratio), n in zip(rows, ns):
        want = oracles.witness_pairs(n, k)
        expect(int(count) == want, f"count at n = {n} is {count}, expected {want}")
        expect(m == str(n) and ratio == f"{want / n:.6f}", f"model at {n}")
    expect(all(a < b for a, b in zip(counts, counts[1:])), "counts do not increase")


def check_lemma1(word: str, ns: list[int], ref: Reference, rdir: Path, stdout: str):
    """The tm route's sets hold two words per length, so the product bound
    for S.T at length n is 2^2 * (n + 1)."""
    rows = csv_rows(stdout, "n,count,model,ratio")
    expect([int(r[0]) for r in rows] == ns, "lengths")
    for (n_text, count, bound, ratio), n in zip(rows, ns):
        p = oracles.CLOSED_FORMS[word](n)
        expect(int(count) == p, f"p({n}) = {count}, expected {p}")
        expect(int(bound) == 4 * (n + 1), f"bound at n = {n} is {bound}")
        expect(p <= 4 * (n + 1) and ratio == f"{p / (4 * (n + 1)):.6f}", f"ratio at {n}")


# -- operations -----------------------------------------------------------------


def decompose(route: str, word: str, n_max: int, window: int | None = None) -> Op:
    out = f"{route}-{word}"
    args = ["decompose", route, word, "--n-max", str(n_max), "--out", "{dir}/" + out]
    if window is not None:
        args += ["--window", str(window)]
    return Op("decompose", tuple(args), out,
              partial(check_decompose, route, word, n_max, window or 50 * n_max, out))


def verify(word: str, n_max: int, out: str, window: int | None = None) -> Op:
    args = ["verify", word, "--s-file", f"{{dir}}/{out}/S.jsonl",
            "--t-file", f"{{dir}}/{out}/T.jsonl", "--n-max", str(n_max)]
    if window is not None:
        args += ["--window", str(window)]
    return Op("verify", tuple(args), None,
              partial(check_verify, word, n_max, window or 50 * n_max, out))


def complexity(word: str, n_max: int, window: int | None = None) -> Op:
    args = ["complexity", word, "--n-max", str(n_max)]
    if window is not None:
        args += ["--window", str(window)]
    return Op("complexity", tuple(args), None,
              partial(check_complexity, word, n_max, window or 50 * n_max))


def fit(word: str, model: str, lo: int, hi: int, window: int, max_spread: float) -> Op:
    args = ("experiment", "fit", "--word", word, "--model", model,
            "--range", f"{lo}:{hi}", "--window", str(window))
    return Op("experiment", args, None,
              partial(check_fit, word, model, lo, hi, window, max_spread))


def claim_pairs(k: int, ns: list[int] | None = None) -> Op:
    args = ("experiment", "claim-pairs", "--k", str(k))
    if ns is not None:
        args += ("--n", ",".join(map(str, ns)))
    return Op("experiment", args, None,
              partial(check_claim_pairs, k, ns or [1000, 10000, 100000]))


def lemma1(word: str, method: str) -> Op:
    ns = [8, 16, 32, 64, 128]
    args = ("experiment", "lemma1", "--word", word, "--method", method,
            "--n", ",".join(map(str, ns)))
    return Op("experiment", args, None, partial(check_lemma1, word, ns))


# Every workload runs each of the four command kinds, so that every run
# reports every end-to-end metric; the commands that fill a kind a workload
# would otherwise lack are marked "filler". They are sized to compute for
# half a second or more, since a command that is mostly interpreter start-up
# varies far more from run to run, and to stay below the peak RSS of the
# workload's main commands.
WORKLOADS: dict[str, list[Op]] = {
    "marker-split": [
        decompose("marker", "tm", 192),
        decompose("marker", "fib", 256),
        verify("tm", 192, "marker-tm"),
        verify("fib", 256, "marker-fib"),
        complexity("tm", 192, 100000),                          # filler
        claim_pairs(3, [100000, 200000]),                       # filler
    ],
    "structured-routes": [
        decompose("tm", "tm", 192),
        decompose("sturmian", "fib", 256),
        decompose("greedy", "tm", 128),
        verify("tm", 192, "tm-tm"),
        lemma1("tm", "tm"),
        fit("tm", "n", 16, 192, 250000, 2.0),                   # filler
        complexity("fib", 256, 150000),                         # filler
    ],
    "window-scale": [
        complexity("abk", 1000, 1000000),
        fit("abk", "n2", 100, 1000, 1000000, 4.0),
        fit("pq:f=isqrt,k=p", "n2f:isqrt", 10, 100, 1000000, 4.0),
        Op("experiment", ("experiment", "e-count"), None, check_ecount),
        claim_pairs(3),
        decompose("tm", "tm", 64, 50000),                       # filler
        verify("tm", 64, "tm-tm", 50000),                       # filler
    ],
}


def main() -> int:
    """Check the outputs of some operations of one round.

    The benchmark runs this in a child process, so that the memory the
    checks take never counts towards the peak RSS of later commands. It
    prints a JSON list of the failed checks.
    """
    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--ops", required=True, help="comma separated operation indices")
    args = parser.parse_args()
    ref = Reference(args.seed)
    ops = WORKLOADS[args.workload]
    wrong = []
    for i in (int(t) for t in args.ops.split(",")):
        try:
            ops[i].check(ref, args.dir, (args.dir / f"op{i}.out").read_text())
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            wrong.append(f"{ops[i].label}: {type(exc).__name__}: {exc}")
    print(json.dumps(wrong))
    return 0


if __name__ == "__main__":
    sys.exit(main())
