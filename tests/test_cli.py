import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import petalgrid
import petalgrid.invariants as invariants
import petalgrid.selftest as selftest
from petalgrid.braid import delta, half_twist, round_trip, words_equal
from petalgrid.cli import main
from petalgrid.invariants import certify


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
]


def test_braid_nf_json_matches_the_golden_file(capsys):
    """`braid nf -n N WORD --json` prints, byte for byte, the lines of tests/golden/braid_nf.jsonl.

    The normal form is unique, so no change to how a word is cut or combed
    may change a byte; the file is regenerated only for an intended change of
    output format, and that change is logged in CHANGES.md.
    """
    golden = (Path(__file__).parent / "golden" / "braid_nf.jsonl").read_text().splitlines(keepends=True)
    assert len(golden) == len(BRAID_NF_CASES) == 20
    for (n, word), expected in zip(BRAID_NF_CASES, golden):
        code, out, _ = run(capsys, "braid", "nf", "-n", str(n), word, "--json")
        assert (code, out) == (0, expected), (n, word)


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
    monkeypatch.setattr(invariants, "determinant_up_to_units", lambda rows_at: (0, next(dets)))
    assert str(invariants.alexander_from_closure(delta(3) ** 5)) == "t^2 + t + 1"  # (1 + t + t^2)^2
    for _ in range(3):
        with pytest.raises(ValueError, match="^not divisible$"):
            invariants.alexander_from_closure(delta(3) ** 5)
    monkeypatch.setattr(invariants, "determinant_up_to_units", lambda rows_at: (0, [1, 1]))
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
    # Zero or a negative number of seconds is no deadline a run can meet.
    for value in ("0", "-1"):
        code, out, err = run(capsys, "verify", "3", "5", "--timeout", value, "--json")
        assert code == 2, value
        assert out == "" and "positive number of seconds" in err


def test_verify_timeout_interrupts_the_determinant(capsys, monkeypatch):
    # The determinant is slowed down here, so that the deadline lands in it
    # on any machine (at T(41,100) it takes about 0.6 s); the closed form is the
    # last stage before the grid's, so the timer rings inside it.
    determinant = invariants.determinant_up_to_units

    def slow_determinant(*args):
        time.sleep(10)
        return determinant(*args)

    monkeypatch.setattr(invariants, "determinant_up_to_units", slow_determinant)
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify", "41", "100", "--timeout", "0.3", "--json")
    elapsed = time.monotonic() - t0
    assert code == 3
    payload = json.loads(out)
    assert payload["timeout"] is True
    assert "alexander_closed_form" in payload
    assert "alexander_from_grid" not in payload
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


def test_braid_nf(capsys):
    code, out, _ = run(capsys, "braid", "nf", "-n", "5", "s1 s1^-1")
    assert code == 0
    assert "Delta^0" in out and "no factors" in out
    code, out, _ = run(capsys, "braid", "nf", "-n", "3", "s1 s2 s1", "--json")
    payload = json.loads(out)
    assert payload["delta_power"] == 1 and payload["factors"] == []


def test_braid_conjugacy(capsys):
    code, out, _ = run(capsys, "braid", "conjugacy", "7", "3")
    assert code == 0
    assert "verified" in out
    code, out, _ = run(capsys, "braid", "conjugacy", "5", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] and payload["conjugator"]["letters"] == []
    code, _, err = run(capsys, "braid", "conjugacy", "6", "3")
    assert code == 2


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


def test_selftest_runs_the_shipped_suites(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    rows = [line.split() for line in lines[:-1]]
    assert rows == [
        ["PASS", "band-relations", "1000", "cases"],
        ["PASS", "residue-conjugacy", "65", "cases"],
        ["PASS", "normal-form-rewrites", "200", "cases"],
        ["PASS", "knot-certification", "108", "cases"],
    ]
    assert lines[-1].startswith("4/4 suites passed")


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
    # the selftest suites, nor signal, which only --timeout uses.
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


def test_selftest_seed_defaults_to_the_suites_seed(monkeypatch):
    # The seeded suites draw from a generator seeded with DEFAULT_SEED; the
    # stubs draw nothing, so both see it fresh.
    states = []

    def draw(rng, trials, max_n):
        states.append(rng.getstate())
        return selftest.SuiteResult("drawn")

    monkeypatch.setattr(selftest, "suite_band_relations", draw)
    monkeypatch.setattr(selftest, "suite_normal_form_rewrites", draw)
    monkeypatch.setattr(selftest, "suite_residue_conjugacy", lambda max_n: selftest.SuiteResult("r"))
    monkeypatch.setattr(selftest, "suite_certification", lambda max_s: selftest.SuiteResult("c"))
    selftest.run_all()
    fresh = random.Random(70311).getstate()
    assert states == [fresh, fresh]
    assert selftest.DEFAULT_SEED == 70311
    sources = Path(petalgrid.__file__).parent.glob("*.py")
    assert sum(path.read_text(encoding="utf-8").count("70311") for path in sources) == 1


def test_selftest_fault_injection(capsys, monkeypatch):
    # A deliberately false identity, as a negative control.
    failing = selftest.SuiteResult("injected-fault")
    failing.check(
        words_equal(round_trip(3, 2), half_twist(3) ** 2),
        "expected failure: a single band is not the full twist",
    )
    monkeypatch.setattr(selftest, "run_all", lambda: [failing])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out and "injected-fault" in out


def test_selftest_fails_when_one_pair_fails_to_certify(capsys, monkeypatch):
    # A negative control for the certification suite: T(3,5) alone fails.
    def certify_but_t35(n, s):
        report = certify(n, s)
        return {**report, "all_match": False} if (n, s) == (3, 5) else report

    monkeypatch.setattr(selftest, "certify", certify_but_t35)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out and "n=3, s=5" in out
    assert out.splitlines()[-1].startswith("3/4 suites passed")


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
