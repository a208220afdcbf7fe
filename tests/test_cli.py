"""Command-line behavior: outputs, exit codes, determinism."""

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

from factorlang import decompose, experiments, factors
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


def test_counting_commands_build_no_factor_index(monkeypatch, capsys):
    def no_index(*args):
        raise AssertionError("a factor index was built")

    monkeypatch.setattr(factors, "FactorIndex", no_index)
    assert run(["complexity", "tm", "--n-max", "32"]) == 0
    assert run(["experiment", "fit", "--word", "tm", "--model", "n",
                "--range", "4:32"]) == 0
    assert "note: tm against n" in capsys.readouterr().out


@pytest.mark.parametrize("method,spec,n_max", [
    ("marker", "tm", "32"), ("tm", "tm", "16"), ("sturmian", "fib", "16"),
    ("greedy", "tm", "16")])
def test_decompose_refuses_budget_below_one(tmp_path, capsys, method, spec, n_max):
    out = tmp_path / "dc"
    assert run(["decompose", method, spec, "--n-max", n_max, "--budget", "-1",
                "--out", str(out)]) == 3
    assert "out-of-range" in capsys.readouterr().err
    assert not out.exists()


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
        _write_atomic(target, chunks())
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


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "64", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "tm", "--s-file", str(out / "S.jsonl"),
                "--t-file", str(out / "T.jsonl"), "--n-max", "64"]) == 0
    assert "coverage: 1.000000" in capsys.readouterr().out


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
    # a third word of length 3 in the tm S: the cover still holds, the
    # route's claim of two words per length does not
    route = decompose.thue_morse_split_sets

    def padded(index):
        s1, s2, cut = route(index)
        s1.add("000")
        return s1, s2, cut

    monkeypatch.setattr(decompose, "thue_morse_split_sets", padded)
    out = tmp_path / "dc"
    assert run(["decompose", "tm", "tm", "--n-max", "16", "--out", str(out)]) == 4
    assert "bound-exceeded: 3 words of one length" in capsys.readouterr().err
    assert not out.exists()


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
