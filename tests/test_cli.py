"""Command-line interface: outputs, exit codes, engine selection."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import bluebird
from bluebird import bterm as bt
from bluebird import cli, cycle_detect, cycles, restricted, walk
from bluebird.antirho import example_antirho_term
from bluebird.cli import main
from bluebird.canonical import apply_poly


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCanon:
    def test_bracket_output(self, capsys):
        code, out, _ = run(capsys, "canon", "B (B B B) (B B) (B B)")
        assert (code, out) == (0, "[4,2]\n")

    def test_rle_output(self, capsys):
        code, out, _ = run(capsys, "canon", "--rle", "B (B B B) (B B) (B B)")
        assert (code, out) == (0, "4*1,2*1\n")

    def test_deep_term(self, capsys):
        code, out, _ = run(capsys, "canon", "B^300000 B")
        assert (code, out) == (0, "[300000]\n")

    def test_parse_error_exit_two(self, capsys):
        code, out, err = run(capsys, "canon", "B (")
        assert code == 2
        assert out == ""
        assert err == "error: expected a term (at position 3)\n"


class TestEq:
    def test_equal_pair(self, capsys):
        code, out, _ = run(capsys, "eq", "B B B B", "B (B B)")
        assert (code, out) == (0, "true\n")

    def test_unequal_pair(self, capsys):
        code, out, _ = run(capsys, "eq", "B B", "B (B B)")
        assert (code, out) == (1, "false\n")


class TestIsMonomial:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "is-monomial", "B B B B")
        assert (code, out) == (0, "true\n")

    def test_no(self, capsys):
        code, out, _ = run(capsys, "is-monomial", "B B (B B)")
        assert (code, out) == (1, "false\n")


class TestRho:
    def test_canonical_engine_default(self, capsys):
        code, out, _ = run(capsys, "rho", "B")
        assert (code, out) == (0, "rho = (6, 4)\n")

    def test_lambda_engine_named_combinators(self, capsys):
        for name, want in [("K", "(1, 2)"), ("I", "(1, 1)"), ("T", "(2, 1)")]:
            code, out, _ = run(capsys, "rho", "--engine", "lambda", name)
            assert (code, out) == (0, f"rho = {want}\n")

    def test_restricted_engine(self, capsys):
        code, out, _ = run(capsys, "rho", "--engine", "restricted", "B B")
        assert (code, out) == (0, "rho = (36, 20)\n")

    def test_restricted_constants_past_32_bits_run_in_python(self, capsys, monkeypatch):
        # B^(2^62) does not fit the compiled walk's 32-bit ints, so the
        # Python stepper runs the search and the budget stops it
        fits, real = [], restricted.fits
        monkeypatch.setattr(restricted, "fits", lambda eng: fits.append(real(eng)) or fits[-1])
        code, out, err = run(capsys, "rho", "--engine", "restricted", "--max-steps", "10",
                             "B^4611686018427387904 B")
        assert (code, out, err) == (3, "", "error: no cycle found within 10 steps\n")
        assert True not in fits
        eng = restricted.RestrictedEngine()
        eng.intern(restricted.RConst(2**31 - 2))
        assert real(eng)
        eng.intern(restricted.RConst(2**31 - 1))
        assert not real(eng)

    def test_budget_exhaustion_exit_three(self, capsys):
        code, out, err = run(capsys, "rho", "--max-steps", "5", "B^2 B")
        assert code == 3
        assert "no cycle found within 5 steps" in err

    def test_resume_without_file_exit_four(self, capsys, tmp_path):
        code, _, err = run(capsys, "rho", "--checkpoint",
                           str(tmp_path / "none"), "--resume", "B")
        assert code == 4
        assert "cannot read checkpoint" in err

    @pytest.mark.parametrize("engine,want", [
        ("canonical", "(32, 20)"), ("restricted", "(274, 36)"), ("lambda", "(32, 20)")])
    def test_every_engine_stops_saves_and_resumes(self, capsys, tmp_path, engine, want):
        path = str(tmp_path / "ck")
        code, out, err = run(capsys, "rho", "--engine", engine, "--checkpoint", path,
                             "--max-steps", "100", "B^1 B")
        assert (code, out, err) == (3, "", "error: no cycle found within 100 steps\n")
        assert f"engine: {engine}\n" in open(path).read()
        code, out, err = run(capsys, "rho", "--engine", engine, "--checkpoint", path,
                             "--resume", "B^1 B")
        assert (code, out, err) == (0, f"rho = {want}\n", "")
        assert not os.path.exists(path)

    @pytest.mark.parametrize("engine,want", [
        ("canonical", "(258, 36)"), ("restricted", "(274, 36)"), ("lambda", "(32, 20)")])
    def test_every_engine_saves_on_ctrl_c(self, capsys, monkeypatch, tmp_path, engine, want):
        # Ctrl-C after the fifth chunk of one advance each
        real, ticks = cycles.search, [0]

        def search(st, stepper, max_steps, tick, chunk):
            def interrupting(st):
                tick(st)
                ticks[0] += 1
                if ticks[0] == 5:
                    raise KeyboardInterrupt
            return real(st, stepper, max_steps, interrupting, chunk)

        monkeypatch.setattr(cycles, "search", search)
        text = "B^2 B" if engine == "canonical" else "B^1 B"
        path = str(tmp_path / "ck")
        code, out, err = run(capsys, "rho", "--engine", engine, "--checkpoint", path,
                             "--checkpoint-interval", "1", text)
        assert (code, out, err) == (130, "", "error: interrupted\n")
        monkeypatch.undo()
        code, out, err = run(capsys, "rho", "--engine", engine, "--checkpoint", path,
                             "--resume", text)
        assert (code, out, err) == (0, f"rho = {want}\n", "")

    @pytest.mark.parametrize("engine,units", [("restricted", "constants"), ("lambda", "nodes")])
    def test_every_engine_reports_progress(self, capsys, monkeypatch, engine, units):
        # a clock that moves 2 s per reading, so every chunk is reported;
        # seq-units counts restricted constants and lambda prefix nodes
        clock = [0.0]

        def tick():
            clock[0] += 2.0
            return clock[0]

        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=tick))
        code, out, err = run(capsys, "rho", "--engine", engine, "--progress",
                             "--checkpoint-interval", "1", "--max-steps", "40", "B^1 B")
        assert (code, out) == (3, "")
        reports = err.splitlines()[:-1]
        assert len(reports) > 10
        for line in reports:
            m = re.fullmatch(r"progress: phase=1 step=\d+ advances=\d+ seq-units=(\d+) "
                             r"stepper=(c|py)", line)
            assert m and int(m[1]) > 1

    def test_resume_refuses_another_engine_or_term(self, capsys, tmp_path):
        path = str(tmp_path / "ck")
        assert run(capsys, "rho", "--engine", "restricted", "--checkpoint", path,
                   "--max-steps", "50", "B^1 B")[0] == 3
        for argv, reason in (
                (["--engine", "lambda", "B^1 B"], "is for engine 'restricted', not 'lambda'"),
                (["--engine", "restricted", "B^2 B"], "which does not match 'B^2 B'")):
            code, out, err = run(capsys, "rho", "--checkpoint", path, "--resume", *argv)
            assert (code, out) == (4, "")
            assert reason in err
        code, out, _ = run(capsys, "rho", "--engine", "restricted", "--checkpoint", path,
                           "--resume", "B^1 (B)")  # another spelling of the same term
        assert (code, out) == (0, "rho = (274, 36)\n")

    def test_restricted_budget_follows_max_steps(self, capsys):
        # --max-steps alone bounds a restricted search, contractions too
        code, out, err = run(capsys, "rho", "--engine", "restricted", "--max-steps", "10",
                             "B^4 B")
        assert (code, out, err) == (3, "", "error: no cycle found within 10 steps\n")
        code, out, _ = run(capsys, "rho", "--engine", "restricted", "B^1 B")
        assert (code, out) == (0, "rho = (274, 36)\n")

    def test_progress_reports_to_stderr(self, capsys, monkeypatch):
        # the reporter's clock reads 2 ms per advance made: a report comes
        # as a chunk finishes, at most once a second, so each one shows at
        # least 500 advances more than the one before, and the first too
        calls = [0]

        def counted(state, x):
            calls[0] += 1
            return apply_poly(state, x)

        monkeypatch.setattr(cycle_detect, "apply_poly", counted)
        monkeypatch.setattr(walk, "load", lambda: None)  # the compiled walk calls no apply_poly
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: calls[0] * 0.002))
        code, out, err = run(capsys, "rho", "--progress", "--max-steps", "2000", "B^4 B")
        assert (code, out) == (3, "")
        assert calls[0] == 2000
        reports = [l for l in err.splitlines() if l.startswith("progress: ")]
        others = [l for l in err.splitlines() if not l.startswith("progress: ")]
        assert others == ["error: no cycle found within 2000 steps"]
        advances = [0]
        for line in reports:
            m = re.fullmatch(
                r"progress: phase=1 step=\d+ advances=(\d+) seq-units=\d+ stepper=py", line)
            assert m
            advances.append(int(m[1]))
        assert len(advances) > 2
        assert all(b - a >= 500 for a, b in zip(advances, advances[1:]))

    def test_interrupt_saves_checkpoint_and_exits_130(self, capsys, monkeypatch, tmp_path):
        calls = [0]

        def interrupted(state, x):
            calls[0] += 1
            if calls[0] == 500:
                raise KeyboardInterrupt
            return apply_poly(state, x)

        monkeypatch.setattr(cycle_detect, "apply_poly", interrupted)
        monkeypatch.setattr(walk, "load", lambda: None)
        path = str(tmp_path / "ck")
        code, out, err = run(capsys, "rho", "--checkpoint", path, "B^2 B")
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert calls[0] == 500
        monkeypatch.undo()
        code, out, err = run(capsys, "rho", "--checkpoint", path, "--resume", "B^2 B")
        assert (code, out, err) == (0, "rho = (258, 36)\n", "")
        assert not os.path.exists(path)

    def test_sigint_exits_130_and_leaves_a_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        src = str(Path(bluebird.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        # a suite started in the background passes SIGINT on ignored, and a
        # child that inherits that never sees the signal
        proc = subprocess.Popen(
            [sys.executable, "-m", "bluebird.cli", "rho", "--checkpoint", str(ck),
             "--checkpoint-interval", "1000", "B^5 B"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            # the first periodic save shows the search loop is running; B^5 B
            # outlasts the poll, where the compiled walk ends B^4 B in 0.3 s
            deadline = time.monotonic() + 60
            while not ck.exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        code, out, err = run(capsys, "rho", "--checkpoint", str(ck), "--resume",
                             "--max-steps", "1000", "B^5 B")
        assert (code, out, err) == (3, "", "error: no cycle found within 1000 steps\n")
        assert cycle_detect.load_checkpoint(str(ck)).step > 1000

    @pytest.mark.parametrize("fields", [
        "algorithm: brent\nphase: 2\nstep: 1\nm: -\ncandidate_c: 0",
        "algorithm: brent\nphase: 2\nstep: 1\nm: -\ncandidate_c: -7",
    ], ids=["brent-c0", "brent-c-7"])
    def test_impossible_checkpoint_counters_exit_four(self, capsys, tmp_path, fields):
        path = tmp_path / "ck"
        path.write_text("rho-checkpoint v1\nterm: B\nengine: canonical\n"
                        + fields + "\nslow: 0*1\nfast: 0*1\n")
        code, out, err = run(capsys, "rho", "--resume", "--checkpoint", str(path), "B")
        assert (code, out) == (4, "")
        assert err.endswith("candidate_c must be >= 1\n")

    @pytest.mark.parametrize("fields,reason", [
        ("algorithm: floyd\nphase: 2\nstep: 1\nm: 32\ncandidate_c: -",
         "Floyd searches are no longer run, so the search must restart"),
        ("algorithm: brent\nphase: 1\nstep: 1\nm: 77\ncandidate_c: -", "m must be '-'"),
        ("algorithm: brent\nphase: 1\nstep: 1\nm: -\ncandidate_c: 9",
         "phase 1 has no candidate_c"),
    ], ids=["floyd", "m", "phase1-c"])
    def test_refused_checkpoint_exit_four(self, capsys, tmp_path, fields, reason):
        path = tmp_path / "ck"
        path.write_text("rho-checkpoint v1\nterm: B\nengine: canonical\n"
                        + fields + "\nslow: 0*1\nfast: 0*1\n")
        code, out, err = run(capsys, "rho", "--resume", "--checkpoint", str(path), "B")
        assert (code, out) == (4, "")
        assert reason in err

    def test_algorithm_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rho", "--algorithm", "brent", "B"])
        assert exc.value.code == 2

    def test_checkpoint_roundtrip_through_cli(self, capsys, tmp_path):
        path = str(tmp_path / "ck")
        code, out, _ = run(capsys, "rho", "--checkpoint", path, "B^1 B")
        assert (code, out) == (0, "rho = (32, 20)\n")
        assert not os.path.exists(path)


class TestIterate:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "iterate", "--count", "3", "B")
        assert code == 0
        assert out == "1\t[0]\n2\t[1]\n3\t[0,0]\n"

    def test_stats(self, capsys):
        code, out, _ = run(capsys, "iterate", "--count", "3", "--stats", "B")
        assert code == 0
        assert out == ("1\t[0]\tl=3\ta=1\n"
                       "2\t[1]\tl=4\ta=2\n"
                       "3\t[0,0]\tl=4\ta=1\n")


class TestAntirho:
    def test_power_suite_ok(self, capsys):
        code, out, _ = run(capsys, "antirho", "--k", "0", "--n", "1",
                           "--steps", "25")
        assert code == 0
        assert out.rstrip().splitlines()[-1] == "all checks passed"

    def test_term_with_example_predicate(self, capsys):
        text = bt.format_bterm(example_antirho_term())
        code, out, _ = run(capsys, "antirho", "--term", text,
                           "--predicate", "example2", "--steps", "25")
        assert code == 0
        assert out.rstrip().splitlines()[-1] == "all checks passed"

    def test_failing_suite_exits_one(self, capsys):
        # a cycling term cannot satisfy the growth checks
        code, out, _ = run(capsys, "antirho", "--term", "B B", "--steps", "40")
        assert code == 1
        assert "check(s) failed" in out.rstrip().splitlines()[-1]

    @pytest.mark.parametrize("argv, message", [
        (["--k", "-1", "--n", "1"], "k must be >= 0"),
        (["--k", "1", "--n", "0"], "n must be >= 1"),
        (["--k", "1", "--n", "1", "--steps", "0"], "--steps must be >= 1"),
        (["--term", "B", "--window", "0"], "--window must be >= 1"),
    ])
    def test_bad_values_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, "antirho", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["rho", "--max-steps", "-5", "B"], "--max-steps must be >= 1"),
    (["rho", "--max-steps", "0", "B"], "--max-steps must be >= 1"),
    (["iterate", "--count", "0", "B"], "--count must be >= 1"),
    (["iterate", "--count", "-1", "B"], "--count must be >= 1"),
    (["rho", "--checkpoint-interval", "0", "B"], "--checkpoint-interval must be >= 1"),
    (["rho", "--checkpoint-interval", "-3", "B"], "--checkpoint-interval must be >= 1"),
    (["rho", "--checkpoint-seconds", "-1", "B"], "--checkpoint-seconds must be >= 0"),
    (["rho", "--checkpoint-seconds", "nan", "B"], "--checkpoint-seconds must be >= 0"),
], ids=["max-steps-5", "max-steps0", "count0", "count-1", "interval0", "interval-3",
        "seconds-1", "seconds-nan"])
def test_numbers_below_their_minimum_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_numbers_at_their_minimum_run(capsys):
    assert run(capsys, "rho", "--max-steps", "1", "B")[0] == 3
    assert run(capsys, "iterate", "--count", "1", "B")[:2] == (0, "1\t[0]\n")
    code, out, _ = run(capsys, "rho", "--checkpoint-interval", "1",
                       "--checkpoint-seconds", "0", "B")
    assert (code, out) == (0, "rho = (6, 4)\n")


def test_unexpected_exception_exits_five(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_canon", broken)
    code, out, err = run(capsys, "canon", "B")
    assert (code, out) == (5, "")
    assert err == "error: internal error: RuntimeError: boom\n"


def test_deep_restricted_text_stops_on_budget(capsys):
    n = 3000
    code, out, err = run(capsys, "rho", "--engine", "restricted", "--max-steps", "3",
                         "B (" * n + "B" + ")" * n)
    assert (code, out) == (3, "")
    assert err == "error: no cycle found within 3 steps\n"


def test_deep_lambda_term_stops_on_budget(capsys):
    code, out, err = run(capsys, "rho", "--engine", "lambda", "--max-steps", "3", "B^3000 B")
    assert (code, out) == (3, "")
    assert err == "error: no cycle found within 3 steps\n"


def test_no_subcommand_changes_the_recursion_limit(capsys, tmp_path):
    limit = sys.getrecursionlimit()
    calls = [
        ["canon", "B B B"],
        ["eq", "B B B B", "B (B B)"],
        ["is-monomial", "B (B B)"],
        ["rho", "B"],
        ["rho", "--engine", "lambda", "B B"],
        ["rho", "--engine", "restricted", "B"],
        ["rho", "--checkpoint", str(tmp_path / "ck"), "B"],
        ["iterate", "--count", "3", "--stats", "B"],
        ["antirho", "--k", "0", "--n", "1", "--steps", "10"],
    ]
    commands = {cli.build_parser().parse_args(c).func.__name__ for c in calls}
    assert commands == {name for name in vars(cli) if name.startswith("cmd_")}
    for argv in calls:
        assert main(argv) in (0, 1)
        assert sys.getrecursionlimit() == limit
    capsys.readouterr()
