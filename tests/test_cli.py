"""Command-line behavior: outputs, exit codes, determinism."""

import errno
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlang import cli, decompose, experiments, factors
from factorlang.cli import _write_atomic, run
from factorlang.decompose import METHODS


ROOT = Path(__file__).resolve().parent.parent


def read(path: Path) -> str:
    return path.read_text()


def test_word_command(capsys):
    assert run(["word", "tm", "--prefix", "8"]) == 0
    assert capsys.readouterr().out.strip() == "01101001"
    assert run(["word", "abk", "--prefix", "9"]) == 0
    assert capsys.readouterr().out.strip() == "ababbabbb"
    assert run(["word", "ultper:|0", "--prefix", "3"]) == 0
    assert capsys.readouterr().out.strip() == "000"


def test_word_bad_spec(capsys):
    assert run(["word", "wat:1"]) == 2
    assert "bad-word-spec" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["complexity", "tm", "--badflag"])
    assert exc.value.code == 2


def test_complexity_stdout(capsys):
    assert run(["complexity", "tm", "--n-max", "3"]) == 0
    assert capsys.readouterr().out == "n,p,g\n1,2,2\n2,4,6\n3,6,12\n"
    assert run(["complexity", "ultper:|0", "--n-max", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["1"] * 5


def test_complexity_to_file(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert run(["complexity", "fib", "--n-max", "100", "--out", str(out)]) == 0
    rows = read(out).splitlines()
    assert rows[0] == "n,p,g"
    assert all(int(row.split(",")[1]) == n + 1
               for n, row in enumerate(rows[1:], start=1))


def test_complexity_window_too_small(capsys):
    assert run(["complexity", "tm", "--n-max", "64", "--window", "100"]) == 3
    assert "window-too-small" in capsys.readouterr().err


def test_complexity_refuses_over_cap_before_any_build(monkeypatch, capsys):
    def no_build(text, **_):
        raise AssertionError(f"automaton built over {len(text)} letters")

    monkeypatch.setattr(factors, "SuffixAutomaton", no_build)
    # the doubled window of 18e6 letters exceeds the default prefix cap
    assert run(["complexity", "tm", "--n-max", "8", "--window", "9000000"]) == 3
    err = capsys.readouterr().err
    assert "resource-limit" in err
    assert "prefix length 18000000" in err
    # fit counts the window itself, so the same prefix is asked of it directly
    assert run(["experiment", "fit", "--word", "tm", "--model", "n",
                "--range", "2:8", "--window", "18000000"]) == 3
    err = capsys.readouterr().err
    assert "resource-limit" in err
    assert "prefix length 18000000" in err


def test_out_of_memory_exits_3_without_a_traceback():
    # a window of 4e6 letters needs about 360 MB of resident memory, and
    # runs out of memory under an address-space cap of 400 MB but not of
    # 450 MB; in a child capped at 350 MB the backstop in cli.run refuses it
    # as resource-limit (the cap keeps the test small)
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (350 << 20, 350 << 20))

    # one BLAS thread, so the address space numpy reserves at import does
    # not grow with the machine's cores
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "factorlang.cli", "complexity", "abk", "--n-max", "1000",
         "--window", "4000000"],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: resource-limit: out of memory")
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_complexity_builds_one_automaton_over_the_window(monkeypatch, capsys):
    built = []
    real = factors.SuffixAutomaton

    def recording(text, **kwargs):
        built.append(len(text))
        return real(text, **kwargs)

    monkeypatch.setattr(factors, "SuffixAutomaton", recording)
    assert run(["complexity", "tm", "--n-max", "8", "--window", "600"]) == 0
    assert built == [600]


def test_complexity_exits_4_when_a_letter_first_appears_past_the_window():
    # the letter 1 first occurs at position 10, in the doubled window only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "factorlang.cli", "complexity",
                           "ultper:0000000000|1", "--n-max", "5", "--window", "10"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 4
    assert "error: unstable-window: " in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_counting_commands_build_no_factor_index(monkeypatch, capsys):
    def no_index(*args):
        raise AssertionError("a factor index was built")

    monkeypatch.setattr(factors, "FactorIndex", no_index)
    assert run(["complexity", "tm", "--n-max", "32"]) == 0
    assert capsys.readouterr().out.startswith("n,p,g\n1,2,2\n")


@pytest.mark.parametrize("method,spec,n_max", [
    ("marker", "tm", "32"), ("tm", "tm", "16"), ("sturmian", "fib", "16"),
    ("greedy", "tm", "16")])
def test_decompose_refuses_budget_below_one(tmp_path, capsys, method, spec, n_max):
    out = tmp_path / "dc"
    assert run(["decompose", method, spec, "--n-max", n_max, "--budget", "-1",
                "--out", str(out)]) == 3
    assert "out-of-range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method,spec", [
    ("greedy", "ultper:,0|1,"), ("greedy", 'ultper:"0|1'), ("tm", "ultper:0\r|1"),
    ("marker", "ultper:01|\n0")])
def test_decompose_refuses_letters_splits_csv_cannot_hold(tmp_path, capsys, method, spec):
    # splits.csv writes its words unquoted: a comma, quote or line break in
    # the window is refused before the route runs or anything is written
    out = tmp_path / "dc"
    assert run(["decompose", method, spec, "--n-max", "4", "--out", str(out)]) == 3
    assert "bad-alphabet" in capsys.readouterr().err
    assert not out.exists()


def test_traced_cli_times_the_tm_cuts(tmp_path):
    # the benchmark's tracer wraps the rule thue_morse_split_sets returns as
    # the decompose.split span
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans),
         "decompose", "tm", "tm", "--n-max", "32", "--out", str(tmp_path / "dc")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(spans.read_text())
    assert traced["spans"]["decompose.split"][0] >= 1
    assert not [name for name in traced["missing"] if "thue_morse_split_sets" in name]


# the names the benchmark's tracer wraps that no longer exist; their
# metrics read zero, so the list may shrink but must not grow
TRACED_MISSING = {
    "factorlang.automaton.SuffixAutomaton.state_of",
    "factorlang.factors.FactorIndex.factors_with_positions",
    "factorlang.factors.FactorIndex.first_occurrence",
    "factorlang.decompose.split_factor",
    "factorlang.decompose.witness_split",
}


def test_traced_cli_counts_the_marker_layers(tmp_path):
    # the benchmark's per-layer metrics of the marker route: automaton
    # states and special-factor spans
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans),
         "decompose", "marker", "tm", "--n-max", "32", "--out", str(tmp_path / "dc")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(spans.read_text())
    assert traced["counts"]["automaton.states"] > 0
    assert traced["spans"]["factors.special"][0] >= 1
    assert set(traced["missing"]) <= TRACED_MISSING


@pytest.mark.parametrize("method,spec", [
    ("marker", "tm"), ("tm", "tm"), ("sturmian", "fib"), ("greedy", "tm")])
def test_traced_cli_times_every_route(tmp_path, method, spec):
    # the benchmark's decompose.route metric: the tracer wraps each route
    # function on the module, so a route table that kept its own reference
    # to the function would leave the span at zero calls
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans),
         "decompose", method, spec, "--n-max", "32", "--out", str(tmp_path / "dc")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    traced = json.loads(spans.read_text())
    assert traced["spans"]["decompose.route"][0] >= 1
    assert set(traced["missing"]) <= TRACED_MISSING


def test_decompose_marker_outputs(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "marker", "tm", "--n-max", "32",
                "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "coverage: 1.000000" in stdout
    for name in ("S.jsonl", "T.jsonl", "splits.csv", "stats.json", "markers.jsonl"):
        assert (out / name).exists()
    stats = json.loads(read(out / "stats.json"))
    assert stats["coverage"] == 1.0
    assert stats["D"] == stats["C"] + 1
    assert stats["method"] == "marker"
    rows = [json.loads(line) for line in read(out / "markers.jsonl").splitlines()]
    assert all(len(r["marker"]) == 2 ** r["k"] for r in rows)
    assert read(out / "splits.csv").startswith("v,s,t,k,pos,class\n")
    # set files load back and stay sorted by (len, word)
    s_rows = [json.loads(line) for line in read(out / "S.jsonl").splitlines()]
    keys = [(r["len"], r["word"]) for r in s_rows]
    assert keys == sorted(keys)
    assert all(r["set"] == "S" for r in s_rows)


@pytest.mark.parametrize("argv", [
    ["decompose", "marker", "tm", "--n-max", "192"],
    ["decompose", "tm", "tm", "--n-max", "192"],
    ["decompose", "sturmian", "fib", "--n-max", "256"],
])
def test_decompose_peak_memory_below_splits_csv(tmp_path, capsys, argv):
    # the records are spans of the window and splits.csv is written line by
    # line, so the run never holds the file's text, nor one word per record
    out = tmp_path / "dc"
    tracemalloc.start()
    try:
        assert run(argv + ["--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (out / "splits.csv").stat().st_size


class Halfway(Exception):
    pass


@pytest.mark.parametrize("error", [Halfway, KeyboardInterrupt])
def test_write_atomic_removes_temp_file_when_chunks_raise(tmp_path, error):
    target = tmp_path / "splits.csv"
    target.write_text("old\n")
    listed = []

    def chunks():
        yield "new\n"
        listed.extend(sorted(p.name for p in tmp_path.iterdir()))
        raise error("halfway")

    with pytest.raises(error, match="halfway"):
        _write_atomic((target, chunks()))
    assert len(listed) == 2  # the temp file existed while the chunks ran
    assert sorted(p.name for p in tmp_path.iterdir()) == ["splits.csv"]
    assert target.read_text() == "old\n"


def test_decompose_tm_per_length_line(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "64", "--out", str(out)]) == 0
    assert "per-length max: S=2 T=2" in capsys.readouterr().out


def test_decompose_sturmian(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "sturmian", "fib", "--n-max", "64",
                "--out", str(out)]) == 0
    assert "per-length max: S=2 T=2" in capsys.readouterr().out


def test_decompose_sturmian_rejects_tm(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "sturmian", "tm", "--n-max", "32",
                "--out", str(out)]) == 3
    assert "not-sturmian" in capsys.readouterr().err


def test_decompose_tm_method_needs_tm_word(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "fib", "--n-max", "32",
                "--out", str(out)]) == 3
    assert "method-mismatch" in capsys.readouterr().err


def test_decompose_tm_accepts_any_spec_of_tm(tmp_path, capsys):
    # the rules in the other order name the same fixed point
    a, b = tmp_path / "a", tmp_path / "b"
    for spec, out in (("tm", a), ("morphic:1->10,0->01@0", b)):
        assert run(["decompose", "tm", spec, "--n-max", "32", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("S.jsonl", "T.jsonl", "splits.csv"):
        assert read(a / name) == read(b / name), name


def test_decompose_marker_rejects_periodic_word(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "marker", "ultper:01|10", "--n-max", "64",
                "--out", str(out)]) == 3
    assert "eventually-periodic" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_max", ["16", "24"])
def test_decompose_marker_accepts_thue_morse_at_short_ranges(tmp_path, capsys, n_max):
    # p(n)/n of Thue-Morse passes 3 only at n = 13; the linearity guard must
    # not read that as growth
    out = tmp_path / "dc"
    assert run(["decompose", "marker", "tm", "--n-max", n_max, "--out", str(out)]) == 0
    assert "coverage: 1.000000" in capsys.readouterr().out


def test_decompose_marker_rejects_quadratic_word(tmp_path, capsys):
    # the pq word's largest p(n)/n is reached in the first half of the range,
    # so no slope comparison sees its growth; the window's first half does
    for spec in ("abk", "pq:f=isqrt,k=p"):
        out = tmp_path / spec
        assert run(["decompose", "marker", spec, "--n-max", "128",
                    "--out", str(out)]) == 3
        assert "not-linear-within-window" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ["abk", "--n-max", "512"],
    ["tm", "--n-max", "20", "--window", "40"],
])
def test_decompose_marker_names_growth_within_the_window(tmp_path, capsys, args):
    # abk's default window at n_max 512 also shows a plateau, at p(446) = p(445),
    # and 40 letters of Thue-Morse one at p(10) = p(9); the growth of the
    # profile from the window's first half to the whole is the cause named
    out = tmp_path / "dc"
    assert run(["decompose", "marker", *args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "not-linear-within-window" in err
    assert "enlarge --window" in err
    assert not out.exists()


def test_decompose_greedy(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "greedy", "tm", "--n-max", "64", "--budget", "1",
                "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "coverage: 1.000000" in stdout
    stats = json.loads(read(out / "stats.json"))
    assert stats["budget"] == 1
    assert stats["s_per_length_max"] <= 3
    assert stats["t_per_length_max"] <= 3


def test_decompose_greedy_rejects_n_max_zero(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "greedy", "tm", "--n-max", "0",
                "--out", str(out)]) == 3
    assert "out-of-range" in capsys.readouterr().err
    assert not (out / "S.jsonl").exists()


def test_decompose_greedy_needs_window_of_two_n_max(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "greedy", "tm", "--n-max", "64", "--window", "10",
                "--out", str(out)]) == 3
    assert "window-too-small" in capsys.readouterr().err


def test_decompose_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["decompose", "marker", "fib", "--n-max", "32",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("S.jsonl", "T.jsonl", "splits.csv", "stats.json", "markers.jsonl"):
        assert read(a / name) == read(b / name), name


# sha256 of every decompose artifact and of decompose's stdout at n_max 64,
# and the exit status and stdout of verify on the sets written; the greedy
# sets cover the prefixes only, so verify of them on tm exits 4
GOLDEN_DIGESTS = {
    ("marker", "tm"): {
        "S.jsonl": "117cefee3d94d00ef5296b3c022bd4e1d5b34abd0bf33e269915b40359d6bd70",
        "T.jsonl": "1223b04c47b422dcc3680101740261aa96163cc8db75ef8c39fdd9dcc9fe1b30",
        "markers.jsonl": "3c3e6d9a37d98d73d919199a7fd663d28cca0edb72356bd62810d7d10b2933bf",
        "splits.csv": "a5d43509b95df48911e2fd8b0aebf144e727483310346ed1dee9da72362f7fc3",
        "stats.json": "fb1c6728a57918101974c0a88ae19854b3ffc3ca041769e0a5734a06d84ea065",
        "stdout": "1a545434a7adb2489c9ef0a9800fcad651775c52198c4417612f7efd5ce0bb21",
        "verify": (0, "7231dbbdf404d2a269c4327c51e4b38abf4afb57815c9d14259cf0bccaac49c0"),
    },
    ("marker", "fib"): {
        "S.jsonl": "af81f569de694ade50ae516086385449980b272f208e2d275fbd93ed5b930048",
        "T.jsonl": "3f2adc232bae28fc373d0d04d48011ca05daa6667b7bda37c8acdfbdd5d3d705",
        "markers.jsonl": "e169f0c03c99f7fa303f50f4094ccc576587dc16ae18d308c64716d8eac3b862",
        "splits.csv": "3e5fd501c933d15a0f6a887518cfd02b69e2336fb30802a3a8b5322f12c946ba",
        "stats.json": "b0b0f52f221e87b0e2fc851fbb374e16a66c7dc11e5a625ff63f4729146b22ac",
        "stdout": "801e34923a59866b27c85d9c4213b1e9c65a6297dc2941fe29ec285f8a302a4a",
        "verify": (0, "863c48605cc2c58fa3d4b24b356887ffc8fe4449a5262c6f5ef0983dea4c37eb"),
    },
    ("tm", "tm"): {
        "S.jsonl": "ae8b6374e388ddc9db8700f59ad74eefb09603e3505c33feb64e9e31831e6127",
        "T.jsonl": "e15a2aec4e5c5842f12a1eae57a0c591eb59eb4be536d5261eb5d394e4067c34",
        "splits.csv": "0fa26c365ac963b805f79c6ca768d66d59a2afa9d467f8dfa8cd859aa66ac064",
        "stats.json": "d840e0eb1704177d9c069fe113aeae04cb91bbf4056a389079bfd3887cf7dfba",
        "stdout": "db1bc9d142581661c666af88f551d5e5b7ac80921c4ace5f47fe124cfd1357dd",
        "verify": (0, "654518b199b4759fe4a29ec4cddec0007632f5f886b9f40f0a1a1e32f09118b9"),
    },
    ("sturmian", "fib"): {
        "S.jsonl": "2cb6f71ee07d5dd830022f61dcc185786846732b38ad1d3e7cb2302dd707d36b",
        "T.jsonl": "1cf08d25babadc3d4603808c8ca602b1e9dd7533ab5b004f97a2daa95aeab50b",
        "splits.csv": "cb75dc179d7bfc1cefea0c469cde77985e41a894a50146187fa7f2c5aad36fb9",
        "stats.json": "d49a30e4e2774fda366bb034b12bd4093069b1c429f27153e62f2a570e0039e7",
        "stdout": "fff92d9fb7d55e25d7a1c54d4f8e1c9bf230c2f3289e29f38267cac0ec19bc19",
        "verify": (0, "d31e4bc28cb3606e2f2942a85bf48d04e3d44be40e49f7370bd671ebd3bb28a0"),
    },
    ("greedy", "tm"): {
        "S.jsonl": "f893b4342dc15019a75d97a0b2a5dec8c56330ecfc25764c7f65ae9d04705880",
        "T.jsonl": "433e354d45ff61d8c7bcf7665427db78404d91d15ed3e748f850f634f98cd383",
        "splits.csv": "776b66dc83b330c74dd68448d5ab8059743685e4a938b7a50735f4cb6781c864",
        "stats.json": "87aa1a5cba4a9040fd8dc5bfac13a513139dafe34b53ffb3ff76ced5c64537f4",
        "stdout": "230ce7186a5b2ed1d0e887e589cc27b151614a4571ba7164ae8ba89bf5907b85",
        "verify": (4, "a73e353f4a3f4b292a3198dc62e74cc53270597762329bf656c1a5e74ed2138f"),
    },
}


# the sha256 of the stdout of experiments that read a factor index
GOLDEN_EXPERIMENT_DIGESTS = {
    "experiment fit --word tm --model n --range 16:192 --window 250000":
        "666f5afff40d4cc029789ae61221f33d792948826141b6b1f80d1647de189578",
    "experiment lemma1 --word tm --method tm --n 8,16,32,64,128":
        "0ce87c40b1e6e3de553b62c36c89fd012327beee32653e0b1621312114b0dc0c",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_EXPERIMENT_DIGESTS))
def test_experiment_stdout_matches_golden_digests(capsys, argv):
    assert run(argv.split()) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN_EXPERIMENT_DIGESTS[argv]


@pytest.mark.parametrize("method,spec", sorted(GOLDEN_DIGESTS))
def test_decompose_artifacts_match_golden_digests(tmp_path, capsys, method, spec):
    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = tmp_path / "dc"
    assert run(["decompose", method, spec, "--n-max", "64", "--out", str(out)]) == 0
    got = {path.name: sha256(path.read_bytes()) for path in out.iterdir()}
    got["stdout"] = sha256(capsys.readouterr().out.encode())
    code = run(["verify", spec, "--s-file", str(out / "S.jsonl"),
                "--t-file", str(out / "T.jsonl"), "--n-max", "64"])
    got["verify"] = (code, sha256(capsys.readouterr().out.encode()))
    assert got == GOLDEN_DIGESTS[method, spec]


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "64", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "tm", "--s-file", str(out / "S.jsonl"),
                "--t-file", str(out / "T.jsonl"), "--n-max", "64"]) == 0
    assert "coverage: 1.000000" in capsys.readouterr().out


def test_decompose_failed_splits_write_keeps_the_earlier_artifacts(tmp_path, capsys,
                                                                  monkeypatch):
    # a write that runs out of space, on splits.csv after its header or on
    # any later artifact as its temp file is opened: the run exits 3 and
    # leaves the earlier run's artifacts as they were, no temp file beside
    # them
    out = tmp_path / "dc"
    assert run(["decompose", "marker", "tm", "--n-max", "16", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["S.jsonl", "T.jsonl", "markers.jsonl", "splits.csv",
                              "stats.json"]
    again = ["decompose", "marker", "tm", "--n-max", "24", "--out", str(out)]

    def full_disk(window, rows):
        yield decompose.SPLIT_CSV_HEADER + "\n"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def check_refused():
        assert run(again) == 3
        assert "unwritable-output" in capsys.readouterr().err
        assert not list(out.glob("*.tmp*"))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    with monkeypatch.context() as patch:
        patch.setattr(decompose, "split_records_to_csv", full_disk)
        check_refused()
    for name in sorted(before):
        def full_disk_at(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            if Path(file).name.startswith(f"{name}.tmp"):
                fh.close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return fh

        with monkeypatch.context() as patch:
            patch.setattr(cli, "open", full_disk_at, raising=False)
            check_refused()


def test_decompose_refuses_uncovered_word_before_writing(tmp_path, capsys, monkeypatch):
    # a tm S missing one of its words: the route must refuse in the cover
    # check, before any artifact is written
    route = decompose.thue_morse_split_sets

    def dropping(index):
        s1, s2, cut = route(index)
        return decompose.LeveledLanguage(w for w in s1.words() if w != "01"), s2, cut

    monkeypatch.setattr(decompose, "thue_morse_split_sets", dropping)
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "16", "--out", str(out)]) == 4
    assert "coverage-incomplete: no split found for " in capsys.readouterr().err
    assert not out.exists()


def test_decompose_refuses_sets_above_the_route_claim(tmp_path, capsys, monkeypatch):
    # S padded with binary words of one length up to one word above the
    # route's claim: the cover still holds, the claim does not. The padding
    # goes through the route function's module attribute, so a route table
    # that kept its own reference to the function would not see it.
    # marker: the bound at tm n_max 32 is 1529.96; tm and sturmian claim 2;
    # greedy claims 2 * budget + 1 = 3
    cases = [("marker", "tm", "32", "build_st", 11, 1530),
             ("tm", "tm", "16", "thue_morse_split_sets", 3, 3),
             ("sturmian", "fib", "16", "sturmian_split_sets", 3, 3),
             ("greedy", "tm", "16", "greedy_two_sets", 3, 4)]

    def padding(route, n, count):
        def padded(*args):
            built = route(*args)
            binary = (format(i, f"0{n}b") for i in range(2 ** n))
            while built[0].cardinality(n) < count:
                built[0].add(next(binary))
            return built
        return padded

    for method, spec, n_max, attr, n, count in cases:
        monkeypatch.setattr(decompose, attr, padding(getattr(decompose, attr), n, count))
        out = tmp_path / method
        assert run(["decompose", method, spec, "--n-max", n_max, "--out", str(out)]) == 4
        assert f"bound-exceeded: {count} words of one length" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.undo()


def test_verify_tampered_set_names_missing_factor(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "64", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = read(out / "S.jsonl").splitlines()
    victim = json.loads(lines[3])["word"]
    kept = [l for l in lines if json.loads(l)["word"] != victim]
    (out / "S-broken.jsonl").write_text("\n".join(kept) + "\n")
    assert run(["verify", "tm", "--s-file", str(out / "S-broken.jsonl"),
                "--t-file", str(out / "T.jsonl"), "--n-max", "64"]) == 4
    captured = capsys.readouterr()
    assert "coverage-incomplete" in captured.err
    # the first uncovered factor is named in the error line
    named = captured.err.strip().rsplit(" ", 1)[-1]
    assert set(named) <= {"0", "1"}


def test_verify_swapped_set_files(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "32", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "tm", "--s-file", str(out / "T.jsonl"),
                "--t-file", str(out / "S.jsonl"), "--n-max", "32"]) == 3
    assert "bad-set-file" in capsys.readouterr().err


def test_verify_empty_set_file(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "32", "--out", str(out)]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(["verify", "tm", "--s-file", str(empty),
                "--t-file", str(out / "T.jsonl"), "--n-max", "32"]) == 4
    assert "coverage: 0.000000" in capsys.readouterr().out


def test_experiment_e_count(capsys):
    assert run(["experiment", "e-count", "--n", "1000,10000"]) == 0
    stdout = capsys.readouterr().out
    rows = stdout.splitlines()
    assert rows[0] == "n,count,model,ratio"
    assert rows[1].startswith("1000,1423,")
    assert len(rows) == 4  # header, two data rows, note


@pytest.mark.parametrize("n", ["1", "0", "1000,1"])
def test_experiment_e_count_rejects_n_below_two(n, capsys):
    assert run(["experiment", "e-count", "--n", n]) == 3
    err = capsys.readouterr().err
    assert "out-of-range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (["claim-pairs", "--n", "1" + "0" * 700], "out-of-range"),
    (["e-count", "--n", "100000000000000000000"], "resource-limit"),
])
def test_counting_experiments_refuse_what_they_cannot_count(argv, code):
    # count / n overflows a float at the first, the second would loop for hours
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "factorlang.cli", "experiment", *argv],
                          env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 3
    assert f"error: {code}: " in done.stderr
    assert "Traceback" not in done.stderr


def test_experiment_e_count_refuses_n_above_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "STAIRCASE_N_CAP", 5000)
    assert run(["experiment", "e-count", "--n", "5000"]) == 0
    assert run(["experiment", "e-count", "--n", "5001"]) == 3
    assert "resource-limit: staircase pair count at n = 5001 exceeds the configured cap 5000" \
        in capsys.readouterr().err


def test_experiment_fit_fib(capsys):
    assert run(["experiment", "fit", "--word", "fib", "--model", "n",
                "--range", "10:100"]) == 0
    note = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("note:")][0]
    spread = float(note.rsplit("spread", 1)[1])
    assert spread < 1.2


def test_experiment_fit_writes_csv(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    assert run(["experiment", "fit", "--word", "abk", "--model", "n2",
                "--range", "20:60", "--out", str(out)]) == 0
    rows = read(out).splitlines()
    assert rows[0] == "n,count,model,ratio"
    assert len(rows) == 42


@pytest.mark.parametrize("argv,error", [
    pytest.param(["--model", "bogus", "--window", "4000000"],
                 "bad-model: unknown growth model 'bogus'", id="bogus"),
    pytest.param(["--model", "n2f:nope", "--window", "4000000"],
                 "bad-model: unknown growth model 'n2f:nope'", id="n2f:nope"),
    pytest.param(["--range", "0:1000", "--window", "1000000"],
                 "range-out-of-profile: fit range 0..1000 outside the profile range 1..1000",
                 id="range-from-0"),
    pytest.param(["--range", "1000:100", "--window", "1000000"],
                 "range-out-of-profile: fit range 1000..100 outside the profile range 1..100",
                 id="range-falling"),
    pytest.param(["--model", "nlogn", "--range", "1:1000", "--window", "1000000"],
                 "bad-model: model nlogn not positive at n = 1", id="nlogn-from-1"),
])
def test_experiment_fit_refuses_a_bad_model_before_the_window(monkeypatch, capsys, argv, error):
    def no_window(*args):
        raise AssertionError("the window was built")

    monkeypatch.setattr(factors, "build_factor_index", no_window)
    assert run(["experiment", "fit", "--word", "abk", *argv]) == 3
    assert f"error: {error}" in capsys.readouterr().err


def test_experiment_claim_pairs(capsys):
    assert run(["experiment", "claim-pairs", "--n", "1000,10000", "--k", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    first = float(rows[1].split(",")[3])
    second = float(rows[2].split(",")[3])
    assert first < second


def test_experiment_lemma1(capsys):
    assert run(["experiment", "lemma1", "--word", "tm", "--method", "tm",
                "--n", "8,16,32"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("8,22,36,")


def test_experiment_lemma1_sturmian_rows(capsys):
    # p(n) = n + 1 against the bound 2^2 * (n + 1) of two sets of two words
    assert run(["experiment", "lemma1", "--word", "fib", "--method", "sturmian",
                "--n", "8,16,32"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:4] == [f"{n},{n + 1},{4 * (n + 1)},0.250000" for n in (8, 16, 32)]


def test_experiment_lemma1_reads_the_sets_alone(monkeypatch, capsys):
    # lemma1 runs the route for its sets: no cover check and no split records
    def refuse(*args, **kwargs):
        raise AssertionError("lemma1 checked the cover or built records")

    monkeypatch.setattr(decompose, "verify_cover", refuse)
    monkeypatch.setattr(decompose, "SplitRecords", refuse)
    for spec, method in (("tm", "tm"), ("fib", "sturmian")):
        assert run(["experiment", "lemma1", "--word", spec, "--method", method,
                    "--n", "8,16,32"]) == 0
    capsys.readouterr()


def test_experiment_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "fit", "--range", "nope"])
    assert exc.value.code == 2


def test_run_config_round_trip(tmp_path):
    # stats.json names the invocation as "<command> key=value ...", keys sorted
    out = tmp_path / "dc"
    assert run(["decompose", "greedy", "tm", "--n-max", "16", "--out", str(out)]) == 0
    stats = json.loads(read(out / "stats.json"))
    assert stats["config"] == "decompose method=greedy n-max=16 window=800 word=tm"


FUZZ_SPECS = [
    "tm", "fib", "abk", "sturm:2,(1)", "ultper:01|10", "ultper:0|011", "ultper:|0",
    "morphic:0->01,1->10@0", "morphic:1->10,0->01@0", "morphic:a->abc,b->ac,c->b@a",
    # letters that splits.csv cannot hold
    "ultper:,0|1,", 'ultper:"0|1',
    # malformed
    "", "tm:", "wat:1", "ultper:01", "morphic:0->01", "morphic:0->,1->10@0",
    "morphic:0->1,1->0@0", "sturm:", "sturm:1,(", "pq:f=nope",
]


def assert_contract(argv):
    """Run the CLI on ``argv``: it must exit 0, 2, 3 or 4, and no exception
    may escape ``run``."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def with_window(argv, window):
    return argv if window is None else argv + [f"--window={window}"]


FUZZ_N_MAX = st.one_of(st.sampled_from([-3, 0, 1, 2]), st.integers(3, 64))
FUZZ_WINDOW = st.one_of(st.none(), st.sampled_from([-10, 0, 1, 5]), st.integers(6, 5000))


@settings(max_examples=120, deadline=None)
@given(method=st.sampled_from(METHODS),
       spec=st.sampled_from(FUZZ_SPECS),
       n_max=st.one_of(st.sampled_from([-3, 0, 1, 2]), st.integers(3, 24)),
       window=st.one_of(st.none(), st.sampled_from([-10, 0, 1, 5]),
                        st.integers(6, 1500)),
       budget=st.sampled_from([None, -1, 0, 1, 2, 5]))
def test_decompose_fuzz_exit_codes(method, spec, n_max, window, budget):
    argv = with_window(["decompose", method, spec, f"--n-max={n_max}"], window)
    if budget is not None:
        argv.append(f"--budget={budget}")
    with tempfile.TemporaryDirectory() as tmp:
        assert_contract(argv + ["--out", tmp])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Set files of every kind the fuzz hands to verify, and output paths."""
    d = tmp_path_factory.mktemp("fuzz")
    with redirect_stdout(io.StringIO()):
        assert run(["decompose", "tm", "tm", "--n-max", "16", "--out", str(d / "dc")]) == 0
    (d / "garbled.jsonl").write_text('{"len": 2, "set": "S", "word": "0"}\n')
    (d / "notjson.jsonl").write_text("{not json\n")
    (d / "binary.jsonl").write_bytes(b"\xff\xfe\x00\x81")
    (d / "empty.jsonl").write_text("")
    (d / "a-file").write_text("x")
    return {
        "S": d / "dc" / "S.jsonl", "T": d / "dc" / "T.jsonl",
        "garbled": d / "garbled.jsonl", "notjson": d / "notjson.jsonl",
        "binary": d / "binary.jsonl", "empty": d / "empty.jsonl",
        "missing": d / "missing.jsonl", "directory": d / "dc",
        # outputs: a fresh path, and paths under a regular file
        "out": d / "out" / "result.csv", "under-file": d / "a-file" / "result.csv",
        "under-file-deeper": d / "a-file" / "x" / "result.csv",
    }


FUZZ_OUT = st.sampled_from([None, "out", "under-file", "under-file-deeper"])


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(FUZZ_SPECS),
       prefix=st.one_of(st.sampled_from([-5, -1, 0, 1]), st.integers(2, 5000)))
def test_word_fuzz_exit_codes(spec, prefix):
    assert_contract(["word", spec, f"--prefix={prefix}"])


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(FUZZ_SPECS), n_max=FUZZ_N_MAX, window=FUZZ_WINDOW,
       out=FUZZ_OUT)
def test_complexity_fuzz_exit_codes(fuzz_files, spec, n_max, window, out):
    argv = with_window(["complexity", spec, f"--n-max={n_max}"], window)
    if out is not None:
        argv += ["--out", str(fuzz_files[out])]
    assert_contract(argv)


SET_FILES = ["S", "T", "garbled", "notjson", "binary", "empty", "missing", "directory"]


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(FUZZ_SPECS), s_file=st.sampled_from(SET_FILES),
       t_file=st.sampled_from(SET_FILES), n_max=FUZZ_N_MAX, window=FUZZ_WINDOW)
def test_verify_fuzz_exit_codes(fuzz_files, spec, s_file, t_file, n_max, window):
    assert_contract(with_window(
        ["verify", spec, "--s-file", str(fuzz_files[s_file]),
         "--t-file", str(fuzz_files[t_file]), f"--n-max={n_max}"], window))


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(["e-count", "claim-pairs", "fit", "lemma1"]),
       ns=st.lists(st.integers(-2, 10 ** 4), min_size=1, max_size=3),
       k=st.integers(-1, 5),
       spec=st.sampled_from(FUZZ_SPECS),
       model=st.sampled_from(["n", "n2", "nlogn", "n2f:isqrt", "n2f:nope", "bogus"]),
       fit_range=st.tuples(st.integers(-5, 64), st.integers(-5, 64)),
       window=FUZZ_WINDOW,
       method=st.sampled_from(["tm", "sturmian"]),
       out=FUZZ_OUT)
def test_experiment_fuzz_exit_codes(fuzz_files, name, ns, k, spec, model, fit_range,
                                    window, method, out):
    if name == "lemma1":
        ns = [n % 65 - 2 for n in ns]  # lemma1 indexes max(ns) lengths
    argv = with_window(
        ["experiment", name, "--n=" + ",".join(map(str, ns)), f"--k={k}",
         f"--word={spec}", f"--model={model}", f"--range={fit_range[0]}:{fit_range[1]}",
         f"--method={method}"], window)
    if out is not None:
        argv += ["--out", str(fuzz_files[out])]
    assert_contract(argv)


@pytest.mark.parametrize("s_file,reason", [
    ("missing", "No such file"), ("directory", "Is a directory"),
    ("binary", "can't decode")])
def test_verify_unreadable_set_file(fuzz_files, capsys, s_file, reason):
    assert run(["verify", "tm", "--s-file", str(fuzz_files[s_file]),
                "--t-file", str(fuzz_files["T"]), "--n-max", "16"]) == 3
    err = capsys.readouterr().err
    assert "bad-set-file" in err and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["decompose", "tm", "tm", "--n-max", "16", "--out", "{under-file}"],
    ["decompose", "tm", "tm", "--n-max", "16", "--out", "{a-file}"],
    ["complexity", "tm", "--n-max", "8", "--out", "{under-file}"],
    ["complexity", "tm", "--n-max", "8", "--out", "{directory}"],
    ["experiment", "e-count", "--n", "100", "--out", "{under-file-deeper}"],
])
def test_unwritable_output_exits_3(fuzz_files, capsys, argv):
    paths = dict(fuzz_files, **{"a-file": fuzz_files["under-file"].parent})
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
    before = sorted(p.name for p in paths["a-file"].parent.iterdir())
    dc_before = sorted(p.name for p in paths["directory"].iterdir())
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "unwritable-output" in err and "Traceback" not in err
    # no temp file is left next to the refused output
    assert sorted(p.name for p in paths["a-file"].parent.iterdir()) == before
    assert sorted(p.name for p in paths["directory"].iterdir()) == dc_before


# -- start-up: what each command imports ----------------------------------------

# runs the statements of argv[1] in this interpreter and prints the exit
# status they give (0 when they return) and whether numpy was imported
IMPORTS_AFTER = """
import sys
try:
    exec(sys.argv[1])
    status = 0
except SystemExit as exc:
    status = exc.code
print(status, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("statements,status", [
    ("import factorlang", 0),
    ("import factorlang.cli", 0),
    *((f"from factorlang import cli; sys.exit(cli.run({argv!r}))", status)
      for argv, status in [
          (["word", "tm"], 0),
          (["experiment", "e-count"], 0),
          (["experiment", "claim-pairs", "--k", "3"], 0),
          (["--help"], 0),
          (["decompose", "--help"], 0),
          (["decompose", "bogus", "tm"], 2),
      ]),
])
def test_commands_that_need_no_window_import_no_numpy(statements, status):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORTS_AFTER, statements],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == f"{status} False", done.stderr


def test_lazy_exports_resolve_to_their_home_objects():
    import factorlang

    for name in factorlang.__all__:
        home = importlib.import_module(f"factorlang.{factorlang._EXPORTS[name]}")
        assert getattr(factorlang, name) is getattr(home, name)
        assert name in dir(factorlang)
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        factorlang.bogus


def test_parser_methods_are_the_route_table():
    assert cli.METHODS == tuple(decompose.ROUTES)
