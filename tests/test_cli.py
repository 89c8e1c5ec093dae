import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import petalgrid
import petalgrid.cli as cli
import petalgrid.invariants as invariants
from petalgrid.braid import delta
from petalgrid.cli import main
from petalgrid.grid import build_petal_grid, render_svg
from petalgrid.invariants import certify
from petalgrid.petal import synthesize
from test_grid import TREFOIL_SVG


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synthesize_json(capsys):
    code, out, _ = run(capsys, "synthesize", "5", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["petal_permutation"] == [7, 12, 6, 11, 5, 10, 4, 13, 3, 9, 2, 8, 1]
    assert payload["length"] == payload["bound"] == 13


def test_synthesize_rejects_noncoprime(capsys):
    code, _, err = run(capsys, "synthesize", "4", "6")
    assert code == 2
    assert "not coprime" in err


def test_pairs_out_of_order_are_usage_errors(capsys):
    for argv in (("verify", "3", "2"), ("synthesize", "2", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "need 2 <= n < s" in err, argv


def test_synthesize_human_readable(capsys):
    code, out, _ = run(capsys, "synthesize", "2", "3")
    assert code == 0
    assert "(3, 5, 2, 4, 1)" in out
    assert "= 5" in out


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "3", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] and payload["conjugacy_verified"]
    assert payload["strongly_braided"] is True

    code, _, err = run(capsys, "verify", "3", "6")
    assert code == 2 and "not coprime" in err


def test_verify_json_is_the_certify_report(capsys):
    for n, s, options in ((2, 3, ()), (3, 5, ()), (5, 7, ()), (7, 10, ("--pipeline", "burau"))):
        code, out, _ = run(capsys, "verify", str(n), str(s), *options, "--json")
        assert code == 0
        report = certify(n, s, *options[1:])
        assert out == json.dumps({"schema": 1, **report}, separators=(", ", ": ")) + "\n"
        assert report["strongly_braided"] is True
        keys = list(report)
        assert keys[keys.index("grid_valid") + 1] == "strongly_braided"


def test_verify_json_matches_the_golden_file(capsys):
    """`verify n s --pipeline P --json` prints, byte for byte, the lines of tests/golden/verify.jsonl.

    One line per pair and pipeline, in the order below.  The file is
    regenerated only for an intended change of output, and that change is
    logged in CHANGES.md.
    """
    golden = (Path(__file__).parent / "golden" / "verify.jsonl").read_text().splitlines(keepends=True)
    cases = [(n, s, p) for n, s in ((2, 3), (5, 7), (7, 11), (11, 25), (17, 40)) for p in ("grid", "burau", "both")]
    assert len(golden) == len(cases) == 15
    for (n, s, pipeline), expected in zip(cases, golden):
        code, out, _ = run(capsys, "verify", str(n), str(s), "--pipeline", pipeline, "--json")
        assert (code, out) == (0, expected), (n, s, pipeline)


# The words of tests/golden/braid_nf.jsonl, one per line of it: half twists
# and their inverses, far letters of alternating sign, g ... g^-1 pairs with
# commuting letters between them, and three fixed random signed words.
BRAID_NF_CASES = [
    (2, ""),
    (2, "s1 s1^-1 s1^-1"),
    (3, "s1 s2 s1"),
    (3, "s1^-1 s2^-1 s1^-1"),
    (4, "s1 s2 s1 s3 s2 s1"),
    (4, "s1^-1 s2^-1 s3^-1 s1^-1 s2^-1 s1^-1"),
    (6, "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1 s5 s4 s3 s2 s1 s1 s2 s1 s3 s2 s1 s4 s3 s2 s1 s5 s4 s3 s2 s1"),
    (6, "s1 s4^-1 s2 s5^-1"),
    (5, "s1 s4 s1^-1"),
    (8, "s2 s5 s6^-1 s7 s2^-1"),
    (8, "s3^-1 s1 s6 s5^-1 s3"),
    (7, "s1 s3^-1 s5 s1^-1 s3 s5^-1"),
    (7, "s2 s4^-1 s6 s2^-1 s4 s6^-1 s1"),
    (10, "s1 s9^-1 s3 s7^-1 s5 s2^-1 s8 s4^-1 s6"),
    (10, "s9^-1 s1 s8^-1 s2 s7^-1 s3 s1^-1 s9 s2^-1 s8"),
    (5, "s1 s2 s3 s4 s1^-1 s2^-1"),
    (4, "s1 s3 s2 s2 s1 s3 s3^-1 s1^-1 s2^-1 s2^-1 s3^-1 s1^-1"),
    (6, "s3 s3 s1 s4^-1 s1 s3 s5^-1 s4^-1 s2 s3^-1 s4^-1 s5 s4^-1 s2 s1 s1 s2 s3^-1 s3^-1 s5 s1 s2^-1 s5 s1 s5 s3^-1 s3 s2^-1 s5^-1 s2^-1"),
    (9, "s7 s3 s6^-1 s2 s4 s3^-1 s2 s5 s6 s8^-1 s3 s8 s1^-1 s2 s6 s2^-1 s1^-1 s4 s1 s1 s5 s7 s2^-1 s2^-1 s4 s4 s5 s7 s2 s8^-1 s3 s5 s2^-1 s4^-1 s5^-1 s2 s5 s7 s5^-1 s8^-1"),
    (12, "s2 s4^-1 s9 s9 s1^-1 s5 s10^-1 s1 s4 s10 s10^-1 s10 s5^-1 s1^-1 s10 s9^-1 s7^-1 s1^-1 s2^-1 s6^-1 s4 s8^-1 s7^-1 s10 s6 s2 s1^-1 s8 s9 s5 s3 s6^-1 s1 s7 s4^-1 s7^-1 s9^-1 s10^-1 s11 s5^-1 s3^-1 s11^-1 s8 s6 s11^-1 s11 s5 s9 s6 s4^-1 s8^-1 s3 s5 s10 s3 s5^-1 s11 s2^-1 s5 s2^-1"),
    (4, "s1^-1 s3 s1^-1 s1^-1 s3 s2^-1 s2^-1 s2^-1 s3"),
    (5, "s1^-1 s1^-1 s1^-1 s3 s2^-1 s1^-1"),
    (14, "s8 s1^-1 s3 s13^-1 s6^-1 s5 s13^-1 s12 s9^-1 s4 s11^-1 s7 s2^-1 s13^-1 s13^-1 s8^-1 s13 s12 s2^-1 s10 s11 s8^-1 s9 s11 s4^-1 s5^-1 s10^-1 s2 s2 s5^-1 s7 s4^-1 s10 s12 s4 s1 s9^-1 s6^-1 s9^-1 s5^-1 s11 s1^-1 s7 s2^-1 s4^-1 s10 s8^-1 s13^-1 s9 s8^-1 s12^-1 s2^-1 s12 s8^-1 s12^-1 s1 s9 s5 s4^-1 s9^-1 s6^-1 s7^-1 s10^-1 s5^-1 s11^-1 s8^-1 s12 s8^-1 s11^-1 s6^-1 s11^-1 s10 s12^-1 s6^-1 s8^-1 s5 s10 s1^-1 s1 s11 s6^-1 s10^-1 s4 s5 s7 s2^-1 s4^-1 s6 s3^-1 s10 s3^-1 s11 s12 s1 s8^-1 s11 s12 s10 s3 s11^-1"),
]


def test_braid_nf_json_matches_the_golden_file(capsys):
    """`braid nf -n N WORD --json` prints, byte for byte, the lines of tests/golden/braid_nf.jsonl.

    The normal form is unique, so no change to how a word is cut or combed
    may change a byte; the file is regenerated only for an intended change of
    output format, and that change is logged in CHANGES.md.
    """
    golden = (Path(__file__).parent / "golden" / "braid_nf.jsonl").read_text().splitlines(keepends=True)
    assert len(golden) == len(BRAID_NF_CASES) == 23
    for (n, word), expected in zip(BRAID_NF_CASES, golden):
        code, out, _ = run(capsys, "braid", "nf", "-n", str(n), word, "--json")
        assert (code, out) == (0, expected), (n, word)


def test_payloads_and_svg_files_match_the_golden_bytes(capsys, tmp_path):
    """`synthesize n s --json` and `braid conjugacy n k --json` print the lines of
    tests/golden/synthesize.jsonl and conjugacy.jsonl byte for byte, and
    `render --svg` writes exactly what `render_svg` returns.

    Each golden line names its own pair: n and s, or n and power.  The files
    are regenerated only for an intended change of output, and that change
    is logged in CHANGES.md.
    """
    files = (("synthesize", ("synthesize",), "s", 6), ("conjugacy", ("braid", "conjugacy"), "power", 5))
    for name, argv, second, count in files:
        golden = (Path(__file__).parent / "golden" / f"{name}.jsonl").read_text().splitlines(keepends=True)
        assert len(golden) == count
        for expected in golden:
            line = json.loads(expected)
            pair = (str(line["n"]), str(line[second]))
            assert run(capsys, *argv, *pair, "--json")[:2] == (0, expected), (name, pair)

    target = tmp_path / "t57.svg"
    assert run(capsys, "render", "5", "7", "--svg", str(target))[:2] == (0, "")
    assert target.read_bytes() == render_svg(build_petal_grid(synthesize(5, 7))).encode()
    target = tmp_path / "trefoil.svg"
    assert run(capsys, "render", "--perm", "3,5,2,4,1", "--svg", str(target))[:2] == (0, "")
    assert target.read_bytes() == TREFOIL_SVG.encode()


def test_verify_failed_stage_exits_1(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("not divisible")

    monkeypatch.setattr(invariants, "alexander_from_grid", fail)
    code, out, _ = run(capsys, "verify", "3", "5", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_match"] is False
    assert payload["error"] == "alexander_grid: not divisible"


def test_verify_burau_rescale_that_does_not_divide_exits_1(capsys, monkeypatch):
    # det(B - I) of a knot closure on n strands is Delta * (1 + t + ... + t^(n-1));
    # the braid pipeline refuses a determinant that this sum does not divide.
    dets = iter([[1, 2, 3, 2, 1], [1, 1, 1, 1], [1, 2, 3, 2, 2], [1, 2, 3, 2, 1, 1]])
    monkeypatch.setattr(invariants, "determinant_up_to_units", lambda rows, height, width: next(dets))
    assert invariants.alexander_from_closure(delta(3) ** 5) == (1, 1, 1)  # (1 + t + t^2)^2
    for _ in range(3):
        with pytest.raises(ValueError, match="^not divisible$"):
            invariants.alexander_from_closure(delta(3) ** 5)
    monkeypatch.setattr(invariants, "determinant_up_to_units", lambda rows, height, width: [1, 1])
    code, out, _ = run(capsys, "verify", "3", "5", "--pipeline", "burau", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_match"] is False
    assert payload["error"] == "alexander_braid: not divisible"


def test_verify_past_former_crossing_cap(capsys):
    # T(2,41) has a 43-entry petal grid with 440 crossings; the grid
    # pipeline once refused diagrams over 400 crossings with exit 2.
    code, out, _ = run(capsys, "verify", "2", "41", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True and payload["strongly_braided"] is True
    assert payload["length"] == 2 * 41 - 2 * (41 // 2) + 1
    closed_form = " ".join(
        f"{'+' if e % 2 == 0 else '-'} t^{e}" for e in range(39, 1, -1)
    )
    assert payload["alexander_from_grid"] == f"t^40 {closed_form} - t + 1"


def test_verify_single_pipeline(capsys):
    code, out, _ = run(capsys, "verify", "5", "8", "--pipeline", "burau", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "alexander_from_braid" in payload
    assert "alexander_from_grid" not in payload
    assert payload["strongly_braided"] is True
    assert payload["petal_permutation"][1::2] == [13, 12, 14, 11, 10, 15, 9]

    code, out, _ = run(capsys, "verify", "5", "7", "--pipeline", "grid", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "alexander_from_grid" in payload
    assert "alexander_from_braid" not in payload
    assert payload["all_match"] is True

    code, out, _ = run(capsys, "verify", "7", "10", "--pipeline", "burau", "--json")
    assert code == 0
    payload = json.loads(out)
    # delta^10 in B_7 carries the same band tail as delta^3: U_3 U_5
    assert payload["conjugate_band_form"].endswith("s2 s1 s1 s2 s4 s3 s2 s1 s1 s2 s3 s4")


def test_verify_timeout(capsys):
    code, out, _ = run(capsys, "verify", "3", "4", "--timeout", "1e-9", "--json")
    assert code == 3
    assert json.loads(out)["timeout"] is True


def test_verify_timeout_must_be_positive(capsys):
    # Zero, a negative number of seconds or no number is no deadline a run can meet.
    for value in ("0", "-1", "abc"):
        code, out, err = run(capsys, "verify", "5", "7", "--timeout", value, "--json")
        assert code == 2, value
        assert out == "" and err.endswith(f"must be a positive number of seconds, got {value}\n")


@pytest.fixture
def slow_determinant(monkeypatch):
    """The determinant slowed down by 10 s, so that a deadline lands in it on any machine."""
    determinant = invariants.determinant_up_to_units

    def slow(*args):
        time.sleep(10)
        return determinant(*args)

    monkeypatch.setattr(invariants, "determinant_up_to_units", slow)


def test_verify_timeout_interrupts_the_determinant(capsys, slow_determinant):
    # The slowed determinant holds the deadline on any machine (at T(41,100) it
    # takes about 0.6 s unslowed); the closed form is the last stage before the
    # grid's, so the timer rings inside it.
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify", "41", "100", "--timeout", "0.3", "--json")
    elapsed = time.monotonic() - t0
    assert code == 3
    payload = json.loads(out)
    assert payload["timeout"] is True
    assert "alexander_closed_form" in payload
    assert "alexander_from_grid" not in payload
    assert elapsed < 2.0, elapsed


def test_verify_timeout_prints_the_partial_report_as_text(capsys, slow_determinant):
    # Without --json a timed-out run prints its partial report as the same
    # "key: value" lines as a finished one, with no all_match line, and exits 3.
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "5", "7", "--timeout", "0.3")
    elapsed = time.monotonic() - t0
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert lines[:3] == ["n: 5", "s: 7", "pipeline: both"] and lines[-1] == "timeout: True"
    assert "alexander_closed_form: " + invariants.format_polynomial(invariants.torus_alexander(5, 7)) in lines
    keys = [line.partition(": ")[0] for line in lines]
    assert "all_match" not in keys and "alexander_from_grid" not in keys
    assert elapsed < 2.0, elapsed


def test_verify_timeout_interrupts_the_normal_form(capsys, monkeypatch):
    # No check runs inside the witness stage: only the timer can stop it.
    witness = invariants.torus_conjugacy_witness

    def slow_witness(n, s):
        time.sleep(10)
        return witness(n, s)

    monkeypatch.setattr(invariants, "torus_conjugacy_witness", slow_witness)
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify", "5", "7", "--timeout", "0.2", "--json")
    elapsed = time.monotonic() - t0
    assert code == 3
    payload = json.loads(out)
    assert payload["timeout"] is True
    assert "strongly_braided" in payload and "conjugacy_verified" not in payload
    assert elapsed < 2.0, elapsed


def test_verify_timeout_interrupts_the_burau_stage(capsys, monkeypatch):
    # The Burau product is slowed down here, since its real time is too short
    # to land a deadline in: only the timer can stop it.
    burau = invariants.reduced_burau

    def slow_burau(w):
        time.sleep(10)
        return burau(w)

    monkeypatch.setattr(invariants, "reduced_burau", slow_burau)
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify", "41", "100", "--pipeline", "burau", "--timeout", "0.2", "--json")
    elapsed = time.monotonic() - t0
    assert code == 3
    payload = json.loads(out)
    assert payload["timeout"] is True
    assert "alexander_closed_form" in payload and "alexander_from_braid" not in payload
    assert elapsed < 2.0, elapsed


def test_timer_leaves_nothing_behind(monkeypatch):
    handler = signal.getsignal(signal.SIGALRM)

    def broken(n, s):
        raise ValueError("broken closed form")

    def finished():
        return certify(3, 5, deadline=time.monotonic() + 60)["all_match"] is True

    def timed_out():
        return certify(41, 100, deadline=time.monotonic() + 0.1).get("timeout") is True

    def already_passed():  # the timer still rings, after its shortest interval
        return certify(2, 3, deadline=time.monotonic() - 1).get("timeout") is True

    def failed():
        monkeypatch.setattr(invariants, "torus_alexander", broken)
        return certify(3, 5, deadline=time.monotonic() + 60)["error"] == "closed_form: broken closed form"

    for case in (finished, timed_out, already_passed, failed):
        assert case(), case.__name__
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), case.__name__
        assert signal.getsignal(signal.SIGALRM) is handler, case.__name__


def test_deadline_without_an_interval_timer_fails_the_timer_stage(capsys, monkeypatch):
    # As on Windows, where signal has neither SIGALRM nor setitimer.
    monkeypatch.delattr(signal, "SIGALRM")
    monkeypatch.delattr(signal, "setitimer")
    report = certify(3, 5, deadline=time.monotonic() + 60)
    assert report["error"].startswith("timer:"), report["error"]
    assert report["all_match"] is False and "timeout" not in report
    code, out, _ = run(capsys, "verify", "3", "5", "--timeout", "5", "--json")
    assert code == 1 and json.loads(out)["error"].startswith("timer:")
    assert certify(3, 5)["all_match"] is True


def test_verify_timeout_past_the_timer_range(capsys):
    # setitimer overflows past about 1e9 s; such a deadline is no deadline.
    for value in ("inf", "1e12"):
        code, out, _ = run(capsys, "verify", "2", "3", "--timeout", value, "--json")
        assert code == 0, value
        assert json.loads(out)["all_match"] is True


def test_braid_equal(capsys):
    code, out, _ = run(capsys, "braid", "equal", "-n", "3", "s1 s2 s1", "s2 s1 s2")
    assert code == 0 and "equal" in out
    code, out, _ = run(capsys, "braid", "equal", "-n", "3", "s1", "s2")
    assert code == 1 and "not equal" in out
    code, _, err = run(capsys, "braid", "equal", "-n", "3", "s7", "s1")
    assert code == 2


def test_braid_letters_out_of_range_are_usage_errors(capsys):
    # The word's own check names the signed letter and the braid index.
    for word, letter in (("s5", 5), ("s0", 0), ("s1 s3^-1", -3)):
        code, out, err = run(capsys, "braid", "nf", "-n", "3", word)
        assert (code, out) == (2, ""), word
        assert err == f"error: letter {letter} out of range for braid index 3\n", word


def test_braid_nf(capsys):
    code, out, _ = run(capsys, "braid", "nf", "-n", "5", "s1 s1^-1")
    assert code == 0
    assert "Delta^0" in out and "no factors" in out
    code, out, _ = run(capsys, "braid", "nf", "-n", "3", "s1 s2 s1", "--json")
    payload = json.loads(out)
    assert payload["delta_power"] == 1 and payload["factors"] == []


def test_braid_nf_past_a_byte_of_strands(capsys):
    # In B_300 an image does not fit a byte, which changes how the comb stores
    # its factors but not a byte of the output.  s1 s299^-1 s1 is
    # Delta^-1 (s1^-1 Delta) s1 s1, since Delta^-1 s1^-1 Delta = s299^-1 commutes with s1.
    first = ", ".join(map(str, [*range(300, 2, -1), 1, 2]))
    swap = ", ".join(map(str, [2, 1, *range(3, 301)]))
    expected = f'{{"schema": 1, "n": 300, "delta_power": -1, "factors": [[{first}], [{swap}], [{swap}]]}}\n'
    assert run(capsys, "braid", "nf", "-n", "300", "s1 s299^-1 s1", "--json")[:2] == (0, expected)


def test_braid_conjugacy(capsys):
    code, out, _ = run(capsys, "braid", "conjugacy", "7", "3")
    assert code == 0
    assert "verified" in out
    code, out, _ = run(capsys, "braid", "conjugacy", "5", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] and payload["conjugator"]["letters"] == []
    code, _, err = run(capsys, "braid", "conjugacy", "6", "3")
    assert code == 2 and "not coprime" in err
    # The message names the arguments as typed: n = 3 strands, power k = 1.
    code, out, err = run(capsys, "braid", "conjugacy", "3", "1")
    assert (code, out) == (2, "")
    assert "need n, k >= 2, got n=3, k=1" in err


def test_render(capsys, tmp_path):
    code, out, _ = run(capsys, "render", "--perm", "3,5,2,4,1")
    assert code == 0
    assert "+" in out and "|" in out

    target = tmp_path / "t57.svg"
    code, _, _ = run(capsys, "render", "5", "7", "--svg", str(target))
    assert code == 0
    assert target.read_text().startswith("<?xml")

    code, out, _ = run(capsys, "render", "--perm", "1,2,3")
    assert code == 0

    code, _, err = run(capsys, "render", "--perm", "1,2")
    assert code == 2

    # An empty or even-length list is named for its length, whether or not
    # it is a permutation.
    for perm, length in (("", 0), ("2,1,4,4", 4), ("2,1,4,3", 4)):
        code, out, err = run(capsys, "render", "--perm", perm)
        assert (code, out) == (2, ""), perm
        assert err == f"error: petal permutation length must be odd >= 3, got {length}\n", perm

    code, _, err = run(capsys, "render")
    assert code == 2


def test_render_perm_with_a_pair_is_a_usage_error(capsys):
    # --perm draws its own permutation, so n or s beside it would be ignored.
    for argv in (("5", "7", "--perm", "3,5,2,4,1"), ("5", "--perm", "3,5,2,4,1")):
        code, out, err = run(capsys, "render", *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv


def test_render_svg_to_a_missing_directory(capsys, tmp_path):
    code, out, err = run(capsys, "render", "5", "7", "--svg", str(tmp_path / "missing" / "x.svg"))
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_selftest_certifies_the_108_pairs(capsys):
    # Knot certification, both pipelines, on the 108 coprime pairs 2 <= n < s <= 20.
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (0, "")
    assert re.fullmatch(r"108/108 pairs certified in \d+\.\ds\n", out), out


def test_selftest_takes_no_options(capsys):
    for option in ("--max-n", "--max-s", "--trials", "--seed"):
        code, out, err = run(capsys, "selftest", option, "5")
        assert code == 2, option
        assert out == "" and "unrecognized arguments" in err, option


def test_closed_stdout_keeps_the_exit_code():
    # The reader closes the pipe before the command writes: no traceback,
    # and the exit code is still the one the checks earned.
    src = str(Path(petalgrid.__file__).resolve().parents[1])
    code = "import sys; from petalgrid.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv, expected in (
        (["verify", "5", "7", "--json"], 0),
        (["braid", "equal", "-n", "3", "s1", "s2"], 1),
    ):
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == expected, (argv, err)
        assert err == b"", (argv, err)


def test_start_up_loads_only_what_verify_needs():
    # A fresh process that imports the CLI and builds its parser, as every
    # command does, loads neither dataclasses (nor inspect behind it), nor
    # a selftest module, nor signal, which only --timeout uses.
    src = str(Path(petalgrid.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import petalgrid.cli; petalgrid.cli.build_parser(); "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "petalgrid.invariants" in loaded and "argparse" in loaded and "json" in loaded
    assert not loaded & {"dataclasses", "inspect", "petalgrid.selftest", "signal"}
    # It loads every module of the package, so none is left that no command
    # imports: the package, its five certifier modules and the command line.
    package = {"petalgrid"} | {
        f"petalgrid.{path.stem}" for path in Path(petalgrid.__file__).parent.glob("*.py") if path.stem != "__init__"
    }
    assert {name for name in loaded if name.split(".")[0] == "petalgrid"} == package
    assert package == {f"petalgrid.{name}" for name in ("braid", "petal", "grid", "invariants", "packed", "cli")} | {
        "petalgrid"
    }


def test_main_reuses_one_parser_and_calls_stay_independent(capsys, monkeypatch):
    # main builds its 9 parsers on the first call and no parser after it, and
    # each call, an error or --help among them, prints and exits exactly as a
    # freshly built parser makes it: nothing one parse leaves behind reaches the next.
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.build_parser.cache_clear()
    calls = (
        ("verify", "5", "7", "--json", "--pipeline", "burau"),
        ("verify", "5", "7", "--json"),
        ("verify", "5", "7"),
        ("verify", "3", "6"),
        ("verify", "5", "7", "--timeout", "0"),
        ("--help",),
        ("synthesize", "5", "7", "--json"),
    )
    shared = []
    for k, argv in enumerate(calls):
        before = len(built)
        shared.append(run(capsys, *argv))
        assert len(built) - before == (9 if k == 0 else 0), argv
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert run(capsys, *argv) == shared[-1], argv
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 2, 0, 0]
    assert json.loads(shared[0][1])["pipeline"] == "burau"
    assert json.loads(shared[1][1])["pipeline"] == "both"
    assert shared[2][1].startswith("n: 5\n") and shared[2][2] == ""
    assert shared[3][1] == "" and "not coprime" in shared[3][2]
    assert shared[4][1] == "" and "positive number of seconds" in shared[4][2]
    assert shared[5][1].startswith("usage: petalgrid") and shared[5][2] == ""
    assert json.loads(shared[6][1])["length"] == 13


def test_the_identity_suites_seed_lives_in_the_test_oracles_alone():
    # The braid-identity suites and their seed are test code: the library
    # names 70311 nowhere, and tests/oracles.py names it once, as SEED.
    sources = Path(petalgrid.__file__).parent.glob("*.py")
    assert sum(path.read_text(encoding="utf-8").count("70311") for path in sources) == 0
    assert (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8").count("70311") == 1


def test_selftest_fails_when_one_pair_fails_to_certify(capsys, monkeypatch):
    # A negative control: T(3,5) alone fails, and the other 107 pairs still run.
    def certify_but_t35(n, s):
        report = certify(n, s)
        return {**report, "all_match": False} if (n, s) == (3, 5) else report

    monkeypatch.setattr(cli, "certify", certify_but_t35)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("FAIL  n=3, s=5: ")
    assert lines[-1].startswith("107/108 pairs certified in ")
    # When every pair fails, the first three are named and all are counted.
    monkeypatch.setattr(cli, "certify", lambda n, s: {"all_match": False})
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out.splitlines()[:3] == [
        "FAIL  n=2, s=3: {'all_match': False}",
        "FAIL  n=3, s=4: {'all_match': False}",
        "FAIL  n=2, s=5: {'all_match': False}",
    ]
    assert len(out.splitlines()) == 4 and out.splitlines()[-1].startswith("0/108 pairs certified in ")


def test_json_output_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "verify", "2", "5", "--json")
        outputs.add(out)
    assert len(outputs) == 1

    _, out1, _ = run(capsys, "synthesize", "7", "9", "--json")
    _, out2, _ = run(capsys, "synthesize", "7", "9", "--json")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2
