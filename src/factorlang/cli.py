"""Command line front end.

Exit statuses: 0 on success, 2 for usage errors (including malformed word
specs), 3 when an operation is invoked outside its preconditions, 4 when a
verification the run was supposed to establish fails. Output files are
written atomically (temp file plus rename) and identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

from .decompose import (
    METHODS,
    LeveledLanguage,
    build_decomposition,
    split_records_to_csv,
    sturmian_split_sets,
    thue_morse_split_sets,
    verify_cover,
)
from .errors import FactorLangError, PreconditionError, VerificationError
from .experiments import (
    growth_fit,
    product_bound_audit,
    resolve_model,
    staircase_pair_count,
    witness_pair_count,
)
from .factors import DEFAULT_N_MAX, build_factor_index, stabilized_profile, window_profile
from .periodicity import markers_to_jsonl
from .words import parse_word_spec


def _write_atomic(path: Path, chunks):
    """Write the text chunks of the iterable ``chunks`` to ``path`` through a
    temp file and a rename, one chunk at a time. The temp file is removed
    whatever exception interrupts the write; a path that cannot be written
    (its parent is a file, it is a directory, no permission) is refused as
    ``unwritable-output``, and any other exception propagates as it is."""
    tmp = path.parent / f"{path.name}.tmp{os.getpid()}"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise PreconditionError("unwritable-output", f"cannot write {path}: {exc}")
        raise


def _read_set_file(path: str, set_name: str) -> LeveledLanguage:
    """Load one set file; one that cannot be read as UTF-8 text (missing, a
    directory, other bytes) is refused as ``bad-set-file``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError("bad-set-file", f"cannot read {path}: {exc}")
    return LeveledLanguage.from_jsonl(text, set_name)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a,b,c integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _int_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi integers, got {text!r}")


# -- commands -------------------------------------------------------------------


def cmd_word(args) -> int:
    source = parse_word_spec(args.spec)
    print(source.prefix(args.prefix))
    return 0


def cmd_complexity(args) -> int:
    source = parse_word_spec(args.spec)
    profile, stable = stabilized_profile(source, args.window, args.n_max)
    if not stable:
        raise VerificationError(
            "unstable-window",
            f"profile changes when the window grows from {profile.n_work} to"
            f" {2 * profile.n_work}; enlarge --window")
    csv = profile.to_csv()
    if args.out:
        _write_atomic(Path(args.out), (csv,))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


def cmd_decompose(args) -> int:
    source = parse_word_spec(args.spec)
    index = build_factor_index(source, args.window, args.n_max)
    dec = build_decomposition(index, args.method, args.budget)
    s_lang, t_lang, report = dec.s_lang, dec.t_lang, dec.report
    out_dir = Path(args.out)
    if dec.markers is not None:
        _write_atomic(out_dir / "markers.jsonl", (markers_to_jsonl(dec.markers),))

    stats = {
        # the invocation as "<command> key=value ...", keys sorted
        "config": (f"decompose method={args.method} n-max={args.n_max}"
                   f" window={index.n_work} word={args.spec}"),
        "method": args.method,
        "word": args.spec,
        "n_max": args.n_max,
        "window": index.n_work,
        "factors": report.total,
        "coverage": report.coverage,
        "s_per_length_max": s_lang.per_length_max(),
        "t_per_length_max": t_lang.per_length_max(),
        "s_total": s_lang.total(),
        "t_total": t_lang.total(),
    }
    stats.update(dec.extras)
    _write_atomic(out_dir / "S.jsonl", (s_lang.to_jsonl("S"),))
    _write_atomic(out_dir / "T.jsonl", (t_lang.to_jsonl("T"),))
    _write_atomic(out_dir / "splits.csv", split_records_to_csv(index.window, dec.records))
    _write_atomic(out_dir / "stats.json",
                  (json.dumps(stats, sort_keys=True, indent=2) + "\n",))
    print(f"word: {args.spec}")
    print(f"method: {args.method}")
    print(f"factors: {report.total}")
    print(f"coverage: {report.coverage:.6f}")
    print(f"per-length max: S={s_lang.per_length_max()} T={t_lang.per_length_max()}")
    for key in ("C", "K", "D", "R", "bound", "budget"):
        if key in dec.extras:
            print(f"{key}: {dec.extras[key]}")
    return 0


def cmd_verify(args) -> int:
    source = parse_word_spec(args.spec)
    s_lang = _read_set_file(args.s_file, "S")
    t_lang = _read_set_file(args.t_file, "T")
    index = build_factor_index(source, args.window, args.n_max)
    report = verify_cover(index.window, index.rows(), s_lang, t_lang)
    print(f"factors: {report.total}")
    print(f"coverage: {report.coverage:.6f}")
    print(f"per-length max: S={s_lang.per_length_max()} T={t_lang.per_length_max()}")
    if report.uncovered:
        raise VerificationError(
            "coverage-incomplete",
            f"{len(report.uncovered)} factors not covered, first: {report.uncovered[0]}")
    return 0


def _experiment_rows(args) -> tuple[list[tuple], str]:
    name = args.name
    if name == "e-count":
        ns = args.n or [1000, 10000, 100000, 1000000]
        rows = []
        for n in ns:
            if n < 2:
                raise PreconditionError(
                    "out-of-range", f"e-count needs n >= 2 (n ln n > 0), got {n}")
            count = staircase_pair_count(n)
            model = n * math.log(n)
            rows.append((n, count, f"{model:.3f}", f"{count / model:.6f}"))
        return rows, "staircase pairs against n*ln(n)"
    if name == "claim-pairs":
        ns = args.n or [1000, 10000, 100000]
        rows = []
        for n in ns:
            count = witness_pair_count(n, args.k)
            try:
                rows.append((n, count, n, f"{count / n:.6f}"))
            except OverflowError:
                raise PreconditionError(
                    "out-of-range", f"count / n at n of {len(str(n))} digits is not a float")
        return rows, f"witness pairs at k={args.k} against n"
    if name == "fit":
        lo, hi = args.range
        profile = window_profile(parse_word_spec(args.spec), args.window, hi)
        fit = growth_fit(profile, args.model, lo, hi)
        rows = []
        model_name, model_fn = resolve_model(args.model)
        for n in range(lo, hi + 1):
            m = model_fn(n)
            rows.append((n, profile.p[n - 1], f"{m:.3f}",
                         f"{profile.p[n - 1] / m:.6f}"))
        note = (f"{args.spec} against {model_name}: ratio"
                f" [{fit.ratio_min:.6f}, {fit.ratio_max:.6f}] spread"
                f" {fit.spread:.3f}")
        return rows, note
    # lemma1
    ns = args.n or [8, 16, 32, 64]
    hi = max(ns)
    index = build_factor_index(parse_word_spec(args.spec), args.window, hi)
    if args.method == "tm":
        s_lang, t_lang, _ = thue_morse_split_sets(index)
    else:
        s_lang, t_lang = sturmian_split_sets(index)
    rows = []
    for n in ns:
        report = product_bound_audit([s_lang, t_lang], index, n)
        if not report.ok:
            raise VerificationError(
                "bound-exceeded",
                f"p({n}) = {report.measured} exceeds the product bound {report.bound}")
        rows.append((n, report.measured, report.bound,
                     f"{report.measured / report.bound:.6f}"))
    return rows, f"measured complexity against the product bound (cap from the sets)"


def cmd_experiment(args) -> int:
    rows, note = _experiment_rows(args)
    lines = ["n,count,model,ratio"]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    csv = "\n".join(lines) + "\n"
    if args.out:
        _write_atomic(Path(args.out), (csv,))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv)
    print(f"note: {note}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorlang",
        description="Factor complexity and decompositions of infinite words.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_word = sub.add_parser("word", help="print a prefix of a word")
    p_word.add_argument("spec")
    p_word.add_argument("--prefix", type=int, default=64,
                        help="number of letters to print")
    p_word.set_defaults(func=cmd_word)

    p_cx = sub.add_parser("complexity", help="per-length factor counts as CSV")
    p_cx.add_argument("spec")
    p_cx.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_cx.add_argument("--window", type=int, default=None)
    p_cx.add_argument("--out", default=None)
    p_cx.set_defaults(func=cmd_complexity)

    p_dec = sub.add_parser("decompose", help="build a two-set decomposition")
    p_dec.add_argument("method", choices=METHODS)
    p_dec.add_argument("spec")
    p_dec.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_dec.add_argument("--window", type=int, default=None)
    p_dec.add_argument("--out", default="decompose-out")
    p_dec.add_argument("--budget", type=int, default=1,
                       help="greedy per-length budget slope")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="re-check a decomposition from files")
    p_ver.add_argument("spec")
    p_ver.add_argument("--s-file", required=True)
    p_ver.add_argument("--t-file", required=True)
    p_ver.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_ver.add_argument("--window", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="growth counting experiments")
    p_exp.add_argument("name", choices=("e-count", "claim-pairs", "fit", "lemma1"))
    p_exp.add_argument("--n", type=_int_list, default=None,
                       help="comma separated lengths")
    p_exp.add_argument("--k", type=int, default=3)
    p_exp.add_argument("--word", dest="spec", default="abk")
    p_exp.add_argument("--model", default="n2")
    p_exp.add_argument("--range", type=_int_range, default=(100, 1000))
    p_exp.add_argument("--window", type=int, default=None)
    p_exp.add_argument("--method", choices=("tm", "sturmian"), default="tm")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FactorLangError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_status


if __name__ == "__main__":
    sys.exit(run())
