"""Run one factorlang command with spans around the public calls of each layer.

    python3 bench/traced_cli.py SPANS.json <factorlang arguments>

The wrappers are installed from this file, so nothing under src/ changes.
A span measures one call; its self time is its duration minus the time its
child spans cover. Spans are aggregated in memory by layer name (calls, total
seconds, self seconds), together with the layer counters, and written to
SPANS.json when the command ends. A wrapped name that no longer exists is
listed under "missing" and its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PROBE_SPAN = "decompose.verify_cover"


class Tracer:

    def __init__(self):
        self.names = ["cli"]      # open spans, innermost last
        self.child = [0.0]        # time covered by the children of each open span
        self.spans: dict[str, list] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.distinct: dict[str, int] = {}  # "word|window|n" -> p(n)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, *args)`` may count or
        replace the result outside the span."""
        names, child, clock = self.names, self.child, time.perf_counter
        record = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names.append(name)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                names.pop()
                covered = child.pop()
                child[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - covered
            if after is not None:
                result = after(result, *args)
            return result

        return wrapper

    # -- counters, run after the span closes ----------------------------------

    def count(self, key: str, amount: int):
        self.counts[key] += amount

    def after_build(self, result, sam, *_):
        self.count("automaton.states", sam.n_states)
        return result

    def after_enumerate(self, result, index, n):
        self.count("factors.enumerated", len(result))
        self.distinct[f"{index.source_spec}|{index.n_work}|{n}"] = len(result)
        return result

    def after_markers(self, result, *_):
        self.count("periodicity.markers", sum(len(ms.markers) for ms in result.values()))
        return result

    def after_verify(self, result, *_):
        self.count("decompose.verified", result.total)
        return result

    def after_prefix(self, result, *_):
        self.count("words.letters", len(result))
        return result

    def after_tm_sets(self, result, *_):
        s1, s2, cut = result
        return s1, s2, self.span("decompose.split", cut)

    def probe_counter(self, contains):
        """Count membership probes made by the cover check; no span, since
        there are millions of them."""
        names, counts = self.names, self.counts

        @functools.wraps(contains)
        def wrapper(lang, word):
            if names[-1] == PROBE_SPAN:
                counts["decompose.probes"] += 1
            return contains(lang, word)

        return wrapper

    # -- installing -----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None):
        """Replace ``module.attr`` in every factorlang module that imported it."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.span(name, orig, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "factorlang":
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None, wrap=None):
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        wrap = wrap or (lambda fn: self.span(name, fn, after))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, attr, wrap(raw))

    def install(self):
        import factorlang.cli as cli
        from factorlang import automaton, decompose, experiments, factors, periodicity, words

        self.patch_method(words.WordSource, "prefix", "words.prefix", self.after_prefix)
        self.patch_method(automaton.SuffixAutomaton, "__init__", "automaton.build",
                          self.after_build)
        self.patch_method(automaton.SuffixAutomaton, "state_of", "automaton.state_of")
        self.patch_function(factors, "build_factor_index", "factors.index")
        for attr in ("factors_with_positions", "factors_of_length"):
            self.patch_method(factors.FactorIndex, attr, "factors.enumerate",
                              self.after_enumerate)
        for attr in ("right_special", "left_special"):
            self.patch_method(factors.FactorIndex, attr, "factors.special")
        self.patch_method(factors.FactorIndex, "first_occurrence", "factors.first_occurrence")
        self.patch_function(periodicity, "build_all_markers", "periodicity.markers",
                            self.after_markers)
        self.patch_function(periodicity, "classify_occurrence", "periodicity.classify")
        for attr in ("build_st", "sturmian_split_sets", "greedy_two_sets"):
            self.patch_function(decompose, attr, "decompose.route")
        self.patch_function(decompose, "thue_morse_split_sets", "decompose.route",
                            self.after_tm_sets)
        for attr in ("split_factor", "witness_split"):
            self.patch_function(decompose, attr, "decompose.split")
        self.patch_function(decompose, "verify_cover", PROBE_SPAN, self.after_verify)
        self.patch_method(decompose.LeveledLanguage, "__contains__", "",
                          wrap=self.probe_counter)
        self.patch_method(decompose.LeveledLanguage, "to_jsonl", "cli.serialize")
        self.patch_method(decompose.LeveledLanguage, "from_jsonl", "cli.load")
        self.patch_function(decompose, "split_records_to_csv", "cli.serialize")
        self.patch_function(periodicity, "markers_to_jsonl", "cli.serialize")
        self.patch_function(cli, "_write_atomic", "cli.serialize")
        self.patch_function(experiments, "growth_fit", "experiments.fit")
        for attr in ("staircase_pair_count", "witness_pair_count", "product_bound_audit"):
            self.patch_function(experiments, attr, "experiments.count")
        return cli

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "distinct": self.distinct, "missing": self.missing},
                      fh, sort_keys=True)


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.run(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
