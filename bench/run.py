"""factorlang benchmark: run one workload through the CLI, check it, time it.

    python3 bench/run.py --workload marker-split --seed 1 --seconds 45 --trace 0

Each command runs as ``python3 -m factorlang.cli ...`` in a child process,
with the checkout's ``src`` first on PYTHONPATH and a fixed string hash seed,
one child at a time. A run repeats whole rounds of the workload's commands
while a further round still fits in ``--seconds``; at least one round always
runs. Before each round it times interpreter start-up plus
``import factorlang.cli`` a few times (``setup_s``, the median of all of
them). A command's first successful output is checked against the oracles
by a child process after the round, and its later outputs must be
byte-identical to it. The other end-to-end metrics are medians over the
rounds.

``--trace 1`` runs one untraced round and then one round through
``traced_cli.py``, and reports the per-layer metrics of the traced round
and the difference of the two rounds' wall times as ``trace.overhead_s``.
A third, untraced round with a random string hash seed must repeat the
outputs byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the raw timings go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
from workloads import KINDS, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_LAUNCHES = 3        # before every round, so that they spread over the run
COMMAND_TIMEOUT_S = 150
# The timed commands all run with one string hash seed. With a random seed per
# launch the order in which sets and dicts of words are walked changes, and so
# does the time: six alternating launches of one verify read 1.69-2.64 s with
# random seeds and 1.85-2.17 s with seed 0.
HASH_SEED = "0"


def child_env(hash_seed: str | None) -> dict[str, str]:
    """The environment of a child: the checkout's ``src`` first on PYTHONPATH
    and the given string hash seed, or a random one when it is None."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("PYTHONHASHSEED", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def launch(argv: list[str], stdout: Path, stderr: Path, hash_seed: str | None = HASH_SEED) -> dict:
    """Run one child to its end; return its wall time, exit code and peak RSS."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(hash_seed),
                                cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode}


def measure_setup(work: Path) -> list[float]:
    """Interpreter start plus ``import factorlang.cli``, several times. The
    import must resolve to this checkout's ``src``."""
    code = "import factorlang.cli, sys; sys.stdout.write(factorlang.cli.__file__)"
    want = (ROOT / "src" / "factorlang" / "cli.py").resolve()
    times = []
    for _ in range(SETUP_LAUNCHES):
        res = launch([sys.executable, "-c", code], work / "setup.out", work / "setup.err")
        got = (work / "setup.out").read_text()
        if res["rc"] != 0 or Path(got).resolve() != want:
            raise SystemExit(f"factorlang.cli does not import from {want}: got {got!r},"
                             f" exit {res['rc']}")
        times.append(res["wall_s"])
    return times


def digest(rdir: Path, op: Op, stdout: Path) -> str:
    """Hash of a command's outputs, read in chunks to keep this process small."""
    h = hashlib.sha256()
    paths = [stdout] + (sorted((rdir / op.out).iterdir()) if op.out else [])
    for path in paths:
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


class Run:
    """The rounds of one workload, with the state that outlives a round."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed = name, seed
        self.ops = WORKLOADS[name]
        self.work = work
        self.digests: dict[int, str] = {}
        self.rounds: list[dict] = []
        self.failures: list[str] = []     # commands that exited non-zero
        self.wrong: list[str] = []        # outputs that failed their check

    def round(self, traced: bool = False, hash_seed: str | None = HASH_SEED) -> dict:
        k = len(self.rounds) + 1
        rdir = self.work / f"r{k}"
        rdir.mkdir(parents=True)
        start = time.perf_counter()
        results = []
        unchecked = []
        for i, op in enumerate(self.ops):
            args = [a.replace("{dir}", str(rdir)) for a in op.args]
            stdout, stderr = rdir / f"op{i}.out", rdir / f"op{i}.err"
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"),
                        str(rdir / f"op{i}.spans.json"), *args]
            else:
                argv = [sys.executable, "-m", "factorlang.cli", *args]
            res = launch(argv, stdout, stderr, hash_seed)
            res["op"] = op.label
            if res["rc"] == 0:
                got = digest(rdir, op, stdout)
                if i not in self.digests:
                    self.digests[i] = got
                    unchecked.append(i)
                elif got != self.digests[i]:
                    self.wrong.append(f"{op.label}: output differs from the first pass")
            else:
                tail = stderr.read_text().strip().splitlines()[-1:]
                self.failures.append(f"round {k}: {op.label}: exit {res['rc']} {tail}")
            print(f"[r{k}] {res['wall_s']:8.3f} s {res['rss_mb']:7.1f} MB"
                  f" rc={res['rc']} {op.label}", file=sys.stderr)
            results.append(res)
        rnd = {"round": k, "traced": traced, "hash_seed": hash_seed,
               "wall_s": time.perf_counter() - start, "ops": results, "dir": rdir}
        self.rounds.append(rnd)
        start = time.perf_counter()
        if unchecked:
            self.check(rdir, unchecked)
        rnd["check_s"] = time.perf_counter() - start
        return rnd

    def check(self, rdir: Path, indices: list[int]):
        """Check first outputs against the oracles in a child process, after
        the round; later outputs need only repeat them byte for byte."""
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", self.name,
                "--seed", str(self.seed), "--dir", str(rdir),
                "--ops", ",".join(map(str, indices))]
        res = launch(argv, rdir / "check.out", rdir / "check.err")
        if res["rc"] != 0:
            err = (rdir / "check.err").read_text().strip().splitlines()[-1:]
            self.wrong.append(f"checker exited {res['rc']}: {err}")
        else:
            self.wrong.extend(json.loads((rdir / "check.out").read_text()))
        print(f"[r{rdir.name[1:]}] checked {len(indices)} outputs in {res['wall_s']:.1f} s",
              file=sys.stderr)

    def attempted(self) -> int:
        return sum(len(rnd["ops"]) for rnd in self.rounds)


def end_to_end(run: Run, setup: list[float]) -> dict:
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for kind in KINDS:
        per_round = [sum(r["wall_s"] for r, op in zip(rnd["ops"], run.ops) if op.kind == kind)
                     for rnd in run.rounds]
        metrics[f"{kind}_s"] = (statistics.median(per_round), "s")
    peaks = [max(r["rss_mb"] for r in rnd["ops"]) for rnd in run.rounds]
    metrics["peak_rss_mb"] = (statistics.median(peaks), "MB")
    return metrics


# Per-layer metrics read from the traced round: the self time of a span,
# the number of calls of a span, or a counter.
SPAN_SELF = {
    "automaton.build_s": "automaton.build",
    "automaton.state_of_s": "automaton.state_of",
    "factors.index_s": "factors.index",
    "factors.enumerate_s": "factors.enumerate",
    "factors.special_s": "factors.special",
    "factors.first_occurrence_s": "factors.first_occurrence",
    "periodicity.markers_s": "periodicity.markers",
    "periodicity.classify_s": "periodicity.classify",
    "decompose.route_s": "decompose.route",
    "decompose.split_s": "decompose.split",
    "decompose.verify_cover_s": "decompose.verify_cover",
    "cli.serialize_s": "cli.serialize",
    "cli.load_s": "cli.load",
    "experiments.fit_s": "experiments.fit",
    "experiments.count_s": "experiments.count",
    "words.prefix_s": "words.prefix",
}
SPAN_CALLS = {
    "automaton.builds": "automaton.build",
    "automaton.state_of_calls": "automaton.state_of",
    "factors.enumerate_calls": "factors.enumerate",
    "factors.first_occurrence_calls": "factors.first_occurrence",
    "periodicity.classify_calls": "periodicity.classify",
    "decompose.splits": "decompose.split",
}
COUNTS = ("automaton.states", "factors.enumerated", "periodicity.markers",
          "decompose.verified", "decompose.probes", "words.letters")


def per_layer(run: Run, untraced: dict, traced: dict) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    distinct: dict[str, int] = {}
    missing: set[str] = set()
    for i in range(len(run.ops)):
        path = traced["dir"] / f"op{i}.spans.json"
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        for name, (calls, total, own) in data["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        distinct.update(data["distinct"])
        missing.update(data["missing"])
    if missing:
        print(f"trace: not found, reads zero: {sorted(missing)}", file=sys.stderr)
    metrics = {}
    for metric, span in SPAN_SELF.items():
        metrics[metric] = (spans.get(span, [0, 0.0, 0.0])[2], "s")
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = (spans.get(span, [0, 0.0, 0.0])[0], "count")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    # A factor enumerated by several commands on the same word and window
    # counts once here, so enumerated / distinct is the repetition.
    metrics["factors.distinct"] = (sum(distinct.values()), "count")
    verified = counts.get("decompose.verified", 0)
    probes = counts.get("decompose.probes", 0)
    metrics["decompose.probes_per_factor"] = (probes / verified if verified else 0.0,
                                              "probes/factor")
    s_words = t_words = size = 0
    for op in run.ops:
        d = traced["dir"] / str(op.out)
        if op.kind == "decompose" and (d / "T.jsonl").exists():
            s_words += len((d / "S.jsonl").read_text().splitlines())
            t_words += len((d / "T.jsonl").read_text().splitlines())
            size += sum(p.stat().st_size for p in d.iterdir())
    metrics["decompose.s_words"] = (s_words, "count")
    metrics["decompose.t_words"] = (t_words, "count")
    metrics["cli.artifact_bytes"] = (size, "B")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return metrics


def execute(name: str, seed: int, deadline: float, trace: bool, work: Path) -> dict:
    work.mkdir(parents=True)
    run = Run(name, seed, work)
    setup = []
    if trace:
        untraced = run.round()
        traced = run.round(traced=True)
        # A last round with a random string hash seed: its outputs must equal
        # the others byte for byte, so they may not depend on that seed.
        run.round(hash_seed=None)
        metrics = per_layer(run, untraced, traced)
    else:
        while True:
            start = time.perf_counter()
            setup += measure_setup(work)
            check_s = run.round()["check_s"]
            took = time.perf_counter() - start - check_s
            if time.perf_counter() + took > deadline:
                break
        metrics = end_to_end(run, setup)
    for line in run.failures + run.wrong:
        print(f"error: {line}", file=sys.stderr)
    raw = {"workload": name, "seed": seed, "trace": trace, "setup_s": setup,
           "bench_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "failures": run.failures, "wrong": run.wrong,
           "rounds": [{k: v for k, v in rnd.items() if k != "dir"} for rnd in run.rounds]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(raw, indent=1) + "\n")
    return {"correct": not run.wrong, "attempted": run.attempted(),
            "failed": len(run.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + args.seconds
    if not (ROOT / "src" / "factorlang" / "cli.py").is_file():
        print(f"error: no factorlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    oracles.self_test()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = execute(args.workload, args.seed, deadline, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
