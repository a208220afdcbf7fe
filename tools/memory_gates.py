"""Peak-memory gates: run each gate's commands in child processes and hold
the largest peak RSS of its measured children below the gate's bound.

    python tools/memory_gates.py

Each child's peak is read from its own ``os.wait4`` resource usage, so no
gate sees another's peak. Every child runs this checkout's ``src`` and
writes under one temporary directory. One line is printed per gate, and
the exit status is 1 if any gate fails or any child exits non-zero.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

CLI = ("-m", "factorlang.cli")

# writes the tm sets at n_max 1024 as {tmp}/tm1024-S.jsonl and -T.jsonl;
# decompose would also write a 2.3 GB splits.csv
WRITE_TM_SETS = """
import sys
from factorlang import build_factor_index, thue_morse, thue_morse_split_sets
s_lang, t_lang, _ = thue_morse_split_sets(build_factor_index(thue_morse(), 2048, 1024))
for name, lang in (("S", s_lang), ("T", t_lang)):
    with open(f"{sys.argv[1]}/tm1024-{name}.jsonl", "w", encoding="utf-8") as fh:
        fh.write(lang.to_jsonl(name))
"""

# build_decomposition at tm n_max 1024 on the route sys.argv[1], with every
# splits.csv line written to the null device and not to a 2.3 GB file
SPLITS_TO_SINK = """
import os, sys
from factorlang import build_decomposition, build_factor_index, split_records_to_csv, thue_morse
index = build_factor_index(thue_morse(), n_max=1024)
dec = build_decomposition(index, sys.argv[1])
with open(os.devnull, "w", encoding="utf-8") as sink:
    sink.writelines(split_records_to_csv(index.window, dec.rows()))
"""


class Gate(NamedTuple):
    """Commands run in order, as arguments to the interpreter; ``{tmp}``
    stands for the temporary directory. The ``setup`` commands are run
    first and not measured."""

    title: str
    bound_mb: float
    commands: list[tuple[str, ...]]
    setup: tuple[tuple[str, ...], ...] = ()


def _verify(word: str, sets: str, *args: str) -> tuple[str, ...]:
    return CLI + ("verify", word, "--s-file", f"{sets}/S.jsonl", "--t-file",
                  f"{sets}/T.jsonl") + args


GATES = [
    Gate("decompose marker tm at n_max 512 and verify of its sets", 300, [
        CLI + ("decompose", "marker", "tm", "--n-max", "512", "--out", "{tmp}/m512"),
        _verify("tm", "{tmp}/m512", "--n-max", "512")]),
    Gate("decompose tm tm at n_max 512 and verify of its sets", 100, [
        CLI + ("decompose", "tm", "tm", "--n-max", "512", "--out", "{tmp}/tm512"),
        _verify("tm", "{tmp}/tm512", "--n-max", "512")]),
    Gate("verify tm at n_max 1024", 120, [
        CLI + ("verify", "tm", "--s-file", "{tmp}/tm1024-S.jsonl",
               "--t-file", "{tmp}/tm1024-T.jsonl", "--n-max", "1024")],
         setup=(("-c", WRITE_TM_SETS, "{tmp}"),)),
    Gate("complexity abk at n_max 1000 over a 10^6-letter window", 155, [
        CLI + ("complexity", "abk", "--n-max", "1000", "--window", "1000000")]),
    Gate("complexity abk at n_max 1000 over a 4*10^6-letter window", 420, [
        CLI + ("complexity", "abk", "--n-max", "1000", "--window", "4000000")]),
    Gate("decompose tm tm at n_max 64 over a 10^6-letter window and verify of its sets", 120, [
        CLI + ("decompose", "tm", "tm", "--out", "{tmp}/tm64w",
               "--n-max", "64", "--window", "1000000"),
        _verify("tm", "{tmp}/tm64w", "--n-max", "64", "--window", "1000000")]),
    Gate("experiment fit abk at n_max 1000 over a 10^6-letter window", 150, [
        CLI + ("experiment", "fit", "--word", "abk", "--model", "n2", "--range", "100:1000",
               "--window", "1000000")]),
    Gate("every tm factor row at n_max 2048", 110, [
        ("-c", "from factorlang import build_factor_index, thue_morse;"
               " index = build_factor_index(thue_morse(), 4096, 2048);"
               " sum(len(index.row(n)) for n in range(1, 2049))")]),
    Gate("the marker cuts (build_st) at tm n_max 1024", 140, [
        ("-c", "from factorlang import build_all_markers, build_factor_index, build_st,"
               " thue_morse; index = build_factor_index(thue_morse(), n_max=1024);"
               " build_st(index, build_all_markers(index))")]),
    Gate("the tm route at n_max 1024 with every splits.csv line", 100, [
        ("-c", SPLITS_TO_SINK, "tm")]),
    Gate("the marker route at tm n_max 1024 with every splits.csv line", 110, [
        ("-c", SPLITS_TO_SINK, "marker")]),
    Gate("the counting experiments without numpy", 22, [
        CLI + ("experiment", "e-count"),
        CLI + ("experiment", "claim-pairs", "--k", "3")]),
]


def run_child(args: tuple[str, ...], tmp: str, env: dict) -> tuple[int, float]:
    """Run one interpreter child to its end, its output discarded; return its
    exit status and its peak RSS in MB."""
    argv = [sys.executable] + [a.replace("{tmp}", tmp) for a in args]
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux
    return child.returncode, usage.ru_maxrss / 1024


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for gate in GATES:
            codes = [run_child(args, tmp, env)[0] for args in gate.setup]
            measured = [run_child(args, tmp, env) for args in gate.commands]
            codes += [code for code, _ in measured]
            peak = max(mb for _, mb in measured)
            ok = peak < gate.bound_mb and not any(codes)
            failed += not ok
            note = "" if not any(codes) else f" (a child exited {max(codes, key=abs)})"
            print(f"{'pass' if ok else 'FAIL'}  {peak:6.1f} MB, bound {gate.bound_mb} MB:"
                  f" {gate.title}{note}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
