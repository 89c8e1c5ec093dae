"""
Command-line interface: synthesis, verification, braid computations,
rendering, and the identity self-test.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 usage or
input error, 3 timeout.  JSON payloads carry a top-level "schema": 1 and
are byte-identical across runs for identical inputs.  A reader that closes
stdout early does not change the exit code.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .braid import (
    format_word,
    left_normal_form,
    parse_word,
    torus_conjugacy_witness,
    word_to_json,
    words_equal,
)
from .grid import build_petal_grid, render_ascii, write_svg
from .invariants import PIPELINES, certify
from .petal import PetalPermutation, classify, length_bound, petal_to_json, synthesize

SCHEMA = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


def _out(text: str) -> None:
    """Print one line to stdout, the one place the commands write to it.

    When the reader has closed the pipe (`petalgrid verify 5 7 | head -c 1`),
    stdout is pointed at os.devnull instead of raising, so the command still
    returns the exit code its checks earned.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(payload: dict) -> None:
    _out(json.dumps({"schema": SCHEMA, **payload}, separators=(", ", ": ")))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_synthesize(args: argparse.Namespace) -> int:
    pp = synthesize(args.n, args.s)
    bound = length_bound(args.n, args.s)
    if args.json:
        payload = petal_to_json(pp, args.n, args.s)
        payload["bound"] = bound
        payload["classification"] = classify(pp)
        _emit_json(payload)
    else:
        _out(f"petal permutation of T({args.n},{args.s}): {pp.entries}")
        _out(f"length {pp.p} = bound 2s - 2*floor(s/n) + 1 = {bound} ({classify(pp)})")
    return EXIT_OK


def _seconds(text: str) -> float:
    """The argparse type of --timeout: a positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return value


def cmd_verify(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + args.timeout if args.timeout is not None else None
    report = certify(args.n, args.s, args.pipeline, deadline)
    if report.get("timeout"):
        _emit_json(report) if args.json else _out(f"timed out; partial report: {report}")
        return EXIT_TIMEOUT
    if args.json:
        _emit_json(report)
    else:
        for key, value in report.items():
            _out(f"{key}: {value}")
    return EXIT_OK if report["all_match"] else EXIT_CHECK_FAILED


def cmd_braid(args: argparse.Namespace) -> int:
    if args.braid_command == "nf":
        nf = left_normal_form(parse_word(args.n, args.word))
        factors = [list(f.images) for f in nf.factors]
        if args.json:
            _emit_json({"n": nf.n, "delta_power": nf.delta_power, "factors": factors})
        else:
            shown = " * ".join(f"P{tuple(f)}" for f in factors) if factors else "(no factors)"
            _out(f"Delta^{nf.delta_power} {shown}")
        return EXIT_OK
    if args.braid_command == "equal":
        equal = words_equal(parse_word(args.n, args.word1), parse_word(args.n, args.word2))
        _out("equal" if equal else "not equal")
        return EXIT_OK if equal else EXIT_CHECK_FAILED
    n, k = args.braid_n, args.braid_k
    witness = torus_conjugacy_witness(n, k)
    if args.json:
        _emit_json(
            {
                "n": n,
                "power": k,
                "conjugator": word_to_json(witness.conjugator),
                "rhs": word_to_json(witness.rhs),
                "verified": witness.verified,
            }
        )
    else:
        _out(f"conjugator X = {format_word(witness.conjugator)}")
        _out(f"rhs = {format_word(witness.rhs)}")
        _out("verified" if witness.verified else "NOT verified")
    return EXIT_OK if witness.verified else EXIT_CHECK_FAILED


def cmd_render(args: argparse.Namespace) -> int:
    if args.perm is None:
        if args.s is None:  # argparse fills n before s
            return _fail("give either --perm or a coprime pair n s")
        pp = synthesize(args.n, args.s)
    else:
        if args.n is not None:
            return _fail("give either --perm or a coprime pair n s, not both")
        pp = PetalPermutation(tuple(int(tok) for tok in args.perm.replace(",", " ").split()))
    grid = build_petal_grid(pp)
    if args.svg:
        try:
            write_svg(grid, args.svg)
        except OSError as exc:  # here, not in main: TimeoutError and BrokenPipeError are OSErrors too
            return _fail(str(exc))
    else:
        _out(render_ascii(grid))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest  # only this command needs the suites

    t0 = time.monotonic()
    results = selftest.run_all()
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        _out(f"{status}  {r.name:<{width}}  {r.cases} cases")
        if not r.passed:
            failed.append(r)
            for detail in r.failures[:3]:
                _out(f"      {detail}")
    _out(f"{len(results) - len(failed)}/{len(results)} suites passed in {time.monotonic() - t0:.1f}s")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petalgrid",
        description="Petal permutations and petal grid diagrams of torus knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="petal permutation of T(n,s) meeting the length bound")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="certify the synthesized diagram represents T(n,s)")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--pipeline", choices=PIPELINES, default="both")
    p.add_argument("--timeout", type=_seconds, metavar="SEC")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("braid", help="normal form, word equality, conjugacy witness")
    braid_sub = p.add_subparsers(dest="braid_command", required=True)
    q = braid_sub.add_parser("nf", help="left-greedy normal form of a word")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("word")
    q.add_argument("--json", action="store_true")
    q = braid_sub.add_parser("equal", help="decide equality of two words")
    q.add_argument("-n", type=int, required=True)
    q.add_argument("word1")
    q.add_argument("word2")
    q = braid_sub.add_parser("conjugacy", help="witness conjugating delta^k to a band form")
    q.add_argument("braid_n", metavar="n", type=int)
    q.add_argument("braid_k", metavar="k", type=int)
    q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("render", help="draw a petal grid diagram")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("s", type=int, nargs="?")
    p.add_argument("--perm", help="comma-separated petal permutation, e.g. 3,5,2,4,1")
    p.add_argument("--svg", metavar="PATH")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest", help="run the identity suites and print a table")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
