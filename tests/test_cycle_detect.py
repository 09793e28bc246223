"""Cycle detection on canonical forms: values, checkpointing, resume."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bluebird import bterm as bt
from bluebird import cycle_detect, lambda_oracle, walk
from bluebird.canonical import DegreeSeq, apply_poly, canonicalize, seq_to_bterm
from bluebird.cycle_detect import (
    RhoResult,
    SearchState,
    find_rho,
    iterate,
    load_checkpoint,
    save_checkpoint,
)
from bluebird.errors import CheckpointIO, CycleNotFound, FormatVersionMismatch

from .support import brute_rho, eager_orbit, floyd_canonical, stepper  # noqa: F401


class Kill(Exception):
    """Stands in for a process being shot mid-run."""


def killing_hook(after):
    calls = {"n": 0}
    def hook(state):
        calls["n"] += 1
        if calls["n"] >= after:
            raise Kill
    return hook


COMPOSITION_POWERS = {
    "B": (6, 4),
    "B^1 B": (32, 20),
    "B^2 B": (258, 36),
    "B^3 B": (4240, 5796),
}


def test_composition_power_values():
    for text, want in COMPOSITION_POWERS.items():
        assert tuple(find_rho(text)) == want


def test_values_are_minimal():
    # the pointer algorithms must return the first repeat, not just some repeat
    for text in ("B", "B^1 B", "B^2 B"):
        want = brute_rho(bt.parse(text), limit=400)
        assert tuple(find_rho(text)) == want
        assert floyd_canonical(text) == want


def test_deep_term_budget_stop_at_default_recursion_limit():
    with pytest.raises(CycleNotFound):
        find_rho("B^2000 B", max_steps=10)


def test_rho_result_unpacks():
    entry, cycle = find_rho("B")
    assert (entry, cycle) == (6, 4)
    assert find_rho("B") == RhoResult(6, 4)


def test_iterate_golden_prefix():
    got = [s.text() for s in iterate("B", 6)]
    assert got == ["[0]", "[1]", "[0,0]", "[2]", "[1,0]", "[2,0]"]


def test_iterate_matches_flat_powers():
    from bluebird.canonical import canonicalize
    got = list(iterate("B^1 B", 10))
    want = [canonicalize(bt.flat(bt.parse("B^1 B"), k)) for k in range(1, 11)]
    assert got == want


def test_iterate_empty_for_nonpositive_count():
    assert list(iterate("B", 0)) == []
    assert list(iterate("B", -3)) == []


def _pointer_indices(st: SearchState) -> tuple[int, int]:
    """(i, j) with slow = X(i) and fast = X(j), by the search invariants."""
    if st.phase == 1:
        return 1 << (st.step.bit_length() - 1), 1 + st.step
    return st.step, st.step + st.candidate_c


_RUNS = hs.dictionaries(hs.integers(0, 6), hs.integers(1, 3), min_size=1, max_size=4).map(
    lambda runs: tuple(sorted(runs.items(), reverse=True)))


@settings(deadline=None, max_examples=60)
@given(_RUNS, hs.integers(1, 150), hs.integers(1, 150))
def test_lazy_states_match_the_eager_kernel(runs, stop, more):
    # the lazy-offset walk, a budget stop and its resume must hand out the
    # same run tuples as the eager reference kernel
    x = seq_to_bterm(DegreeSeq(runs))
    steps = stop + more
    orbit = eager_orbit(runs, 2 * steps + 2)
    assert [s.runs for s in iterate(x, steps)] == orbit[1:steps + 1]

    # equality across offsets: states of one walk, and fresh ones at offset 0
    first = state = DegreeSeq(runs)
    walk = [None, state]
    for _ in range(steps - 1):
        state = apply_poly(state, first)
        walk.append(state)
    assert [len(s) for s in walk[1:]] == [len(DegreeSeq(s)) for s in orbit[1:steps + 1]]
    for i in range(1, steps + 1):
        fresh = DegreeSeq(orbit[i])
        for j in range(i, steps + 1):
            assert (walk[i] == walk[j]) == (orbit[i] == orbit[j])
            assert (fresh == walk[j]) == (orbit[i] == orbit[j])

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck")
        for budget, resume in ((stop, False), (more, True)):
            try:
                r = find_rho(x, max_steps=budget, checkpoint_path=path, resume=resume)
            except CycleNotFound:
                st = load_checkpoint(path)
                i, j = _pointer_indices(st)
                assert (st.slow, st.fast) == (orbit[i], orbit[j])
                continue
            assert tuple(r) == brute_rho(x, limit=len(orbit))
            break


@pytest.mark.parametrize("text", ["B^2 B", "B^3 B"])
def test_hooked_states_sit_at_their_brent_indices(stepper, text):
    # with the default interval the hook sees one state per chunk; each
    # must be the orbit state that the search invariants name
    hooked, started = [], []
    r = find_rho(text, state_hook=hooked.append, on_start=started.append)
    assert tuple(r) == COMPOSITION_POWERS[text]
    assert started[0].stepper == stepper
    orbit = eager_orbit(canonicalize(bt.parse(text)).runs, 2 * sum(r))
    assert 2 < len(hooked) < 40
    for st in hooked:
        i, j = _pointer_indices(st)
        assert (st.slow, st.fast) == (orbit[i], orbit[j])


def test_rejects_unknown_algorithm():
    # the search is Brent's alone, so neither engine takes an algorithm
    for rho in (find_rho, lambda_oracle.rho_lambda):
        with pytest.raises(TypeError):
            rho("B", algorithm="brent")


class TestCheckpointFile:
    def test_fresh_file_layout(self, tmp_path):
        path = str(tmp_path / "ck")
        hook = killing_hook(3)
        with pytest.raises(Kill):
            find_rho("B^1 B", checkpoint_path=path,
                     checkpoint_interval=1, checkpoint_seconds=0.0,
                     state_hook=hook)
        lines = open(path).read().splitlines()
        assert len(lines) == 10
        assert lines[0] == "rho-checkpoint v1"
        assert lines[1] == "term: B B"
        assert lines[2] == "engine: canonical"
        assert lines[3] == "algorithm: brent"
        assert lines[4].startswith("phase: ")
        assert lines[5].startswith("step: ")
        assert lines[6].startswith("m: ")
        assert lines[7].startswith("candidate_c: ")
        assert lines[8].startswith("slow: ")
        assert lines[9].startswith("fast: ")

    def test_save_load_roundtrip(self, tmp_path):
        # one kill in each phase: B^2 B leaves phase 1 after 547 advances
        for after, phase in ((25, 1), (700, 2)):
            path = str(tmp_path / "ck")
            with pytest.raises(Kill):
                find_rho("B^2 B", checkpoint_path=path, checkpoint_interval=1,
                         checkpoint_seconds=0.0, state_hook=killing_hook(after))
            st = load_checkpoint(path)
            assert st.phase == phase
            path2 = str(tmp_path / "ck2")
            save_checkpoint(st, path2)
            assert open(path).read() == open(path2).read()
            assert load_checkpoint(path2) == st

    def test_load_rejects_other_version(self, tmp_path):
        path = str(tmp_path / "ck")
        path2 = str(tmp_path / "bad")
        with pytest.raises(Kill):
            find_rho("B", checkpoint_path=path, checkpoint_interval=1,
                     checkpoint_seconds=0.0, state_hook=killing_hook(2))
        lines = open(path).read().splitlines()
        lines[0] = "rho-checkpoint v99"
        with open(path2, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(FormatVersionMismatch):
            load_checkpoint(path2)

    def test_load_rejects_truncation_and_garbage(self, tmp_path):
        path = str(tmp_path / "ck")
        with pytest.raises(Kill):
            find_rho("B", checkpoint_path=path, checkpoint_interval=1,
                     checkpoint_seconds=0.0, state_hook=killing_hook(2))
        text = open(path).read()
        cut = str(tmp_path / "cut")
        with open(cut, "w") as fh:
            fh.write("\n".join(text.splitlines()[:6]))
        with pytest.raises(CheckpointIO):
            load_checkpoint(cut)
        junk = str(tmp_path / "junk")
        with open(junk, "w") as fh:
            fh.write("not a checkpoint at all\n")
        with pytest.raises(CheckpointIO):
            load_checkpoint(junk)

    @pytest.mark.parametrize("text", [
        "algorithm: brent\nphase: 1\nstep: 301\nm: -\ncandidate_c: -\n"
        "slow: 15*1,13*1,11*1,8*4,6*1,4*2,2*1,1*1\nfast: 16*1,13*2,11*1,7*4,5*1,3*2,1*1",
        "algorithm: brent\nphase: 2\nstep: 245\nm: -\ncandidate_c: 36\n"
        "slow: 15*1,13*1,10*1,7*6,4*2,1*3\nfast: 15*1,13*1,10*4,7*2,5*1,1*5",
    ])
    def test_resumes_v1_files_from_the_first_release(self, tmp_path, text):
        # files written by the state machines this search core replaced
        path = str(tmp_path / "ck")
        with open(path, "w") as fh:
            fh.write("rho-checkpoint v1\nterm: B (B B)\nengine: canonical\n" + text + "\n")
        assert tuple(find_rho("B^2 B", checkpoint_path=path, resume=True)) == (258, 36)

    @pytest.mark.parametrize("text,reason", [
        ("algorithm: floyd\nphase: 2\nstep: 13\nm: 288\ncandidate_c: -\n"
         "slow: 9*1,7*1,5*1,2*3\nfast: 17*1,14*2,12*1,8*4,6*1,4*1,2*1",
         "Floyd searches are no longer run"),
        ("algorithm: floyd\nphase: 3\nstep: 15\nm: 258\ncandidate_c: 288\n"
         "slow: 15*1,13*1,11*1,9*1,6*5,4*1,2*2,0*1\nfast: 15*2,13*1,9*4,6*2,4*1,0*5",
         "Floyd searches are no longer run"),
        ("algorithm: brent\nphase: 1\nstep: 301\nm: 77\ncandidate_c: -\n"
         "slow: 15*1,13*1,11*1,8*4,6*1,4*2,2*1,1*1\nfast: 16*1,13*2,11*1,7*4,5*1,3*2,1*1",
         "m must be '-'"),
        ("algorithm: brent\nphase: 2\nstep: 245\nm: 258\ncandidate_c: 36\n"
         "slow: 15*1,13*1,10*1,7*6,4*2,1*3\nfast: 15*1,13*1,10*4,7*2,5*1,1*5",
         "m must be '-'"),
        ("algorithm: brent\nphase: 1\nstep: 301\nm: -\ncandidate_c: 9\n"
         "slow: 15*1,13*1,11*1,8*4,6*1,4*2,2*1,1*1\nfast: 16*1,13*2,11*1,7*4,5*1,3*2,1*1",
         "phase 1 has no candidate_c"),
        ("algorithm: brent\nphase: 3\nstep: 15\nm: -\ncandidate_c: 36\n"
         "slow: 15*1,13*1,10*1,7*6,4*2,1*3\nfast: 15*1,13*1,10*4,7*2,5*1,1*5",
         "bad phase"),
    ], ids=["floyd-phase2", "floyd-phase3", "brent-phase1-m", "brent-phase2-m",
            "brent-phase1-c", "brent-phase3"])
    def test_refuses_files_a_brent_search_never_writes(self, tmp_path, text, reason):
        # the Floyd files come from the first release; a search must restart
        path = str(tmp_path / "ck")
        with open(path, "w") as fh:
            fh.write("rho-checkpoint v1\nterm: B (B B)\nengine: canonical\n" + text + "\n")
        with pytest.raises(CheckpointIO, match=reason):
            load_checkpoint(path)
        with pytest.raises(CheckpointIO, match=reason):
            find_rho("B^2 B", checkpoint_path=path, resume=True)
        assert os.path.exists(path)

    @pytest.mark.parametrize("fields", [
        "algorithm: brent\nphase: 2\nstep: 1\nm: -\ncandidate_c: 0",
        "algorithm: brent\nphase: 2\nstep: 1\nm: -\ncandidate_c: -7",
    ], ids=["brent-c0", "brent-c-7"])
    def test_load_rejects_impossible_counters(self, tmp_path, fields):
        # otherwise well formed; no search writes these, and resuming one
        # would print an answer such as (1, 0) or a negative entry
        path = str(tmp_path / "ck")
        with open(path, "w") as fh:
            fh.write("rho-checkpoint v1\nterm: B\nengine: canonical\n"
                     + fields + "\nslow: 0*1\nfast: 0*1\n")
        with pytest.raises(CheckpointIO, match="must be >= 1"):
            load_checkpoint(path)
        with pytest.raises(CheckpointIO, match="must be >= 1"):
            find_rho("B", checkpoint_path=path, resume=True)

    def test_resume_missing_file(self, tmp_path):
        with pytest.raises(CheckpointIO):
            find_rho("B", checkpoint_path=str(tmp_path / "absent"), resume=True)

    def test_resume_rejects_other_term(self, tmp_path):
        path = str(tmp_path / "ck")
        with pytest.raises(Kill):
            find_rho("B^1 B", checkpoint_path=path, checkpoint_interval=1,
                     checkpoint_seconds=0.0, state_hook=killing_hook(5))
        with pytest.raises(CheckpointIO, match="does not match"):
            find_rho("B^2 B", checkpoint_path=path, resume=True)

    def test_resume_accepts_equivalent_spelling(self, tmp_path):
        # the stored term is compared by canonical form, not by spelling
        path = str(tmp_path / "ck")
        with pytest.raises(Kill):
            find_rho("B^1 B", checkpoint_path=path, checkpoint_interval=1,
                     checkpoint_seconds=0.0, state_hook=killing_hook(5))
        r = find_rho("B B", checkpoint_path=path, resume=True)
        assert tuple(r) == (32, 20)


class TestKillResume:
    @pytest.mark.parametrize("after", [1, 100, 400, 790])
    def test_kill_points_across_phases(self, tmp_path, after):
        path = str(tmp_path / "ck")
        with pytest.raises(Kill):
            find_rho("B^2 B", checkpoint_path=path,
                     checkpoint_interval=1, checkpoint_seconds=0.0,
                     state_hook=killing_hook(after))
        assert os.path.exists(path)
        r = find_rho("B^2 B", checkpoint_path=path, resume=True)
        assert tuple(r) == (258, 36)
        assert not os.path.exists(path)

    def test_double_kill_then_finish(self, tmp_path):
        path = str(tmp_path / "ck")
        with pytest.raises(Kill):
            find_rho("B^2 B", checkpoint_path=path,
                     checkpoint_interval=1, checkpoint_seconds=0.0,
                     state_hook=killing_hook(50))
        with pytest.raises(Kill):
            find_rho("B^2 B", checkpoint_path=path, resume=True,
                     checkpoint_interval=1, checkpoint_seconds=0.0,
                     state_hook=killing_hook(200))
        r = find_rho("B^2 B", checkpoint_path=path, resume=True)
        assert tuple(r) == (258, 36)

    def test_budget_exhaustion_leaves_resumable_state(self, tmp_path):
        path = str(tmp_path / "ck")
        with pytest.raises(CycleNotFound):
            find_rho("B^2 B", max_steps=100,
                     checkpoint_path=path, checkpoint_seconds=0.0)
        assert os.path.exists(path)
        r = find_rho("B^2 B", checkpoint_path=path, resume=True)
        assert tuple(r) == (258, 36)

    def test_budget_stop_at_every_advance_resumes(self, stepper, tmp_path, monkeypatch):
        # B^2 B takes 1,097 advances, so the budgets stop the search in
        # both phases, at every anchor move and at the phase switch, and
        # between the advances of one phase-2 iteration. On the Python
        # stepper the counting step checks that every advance the searches
        # report went through cycle_detect.apply_poly; the compiled walk makes
        # them without it.
        calls, states = [0], []

        def counted(state, x):
            calls[0] += 1
            return apply_poly(state, x)

        monkeypatch.setattr(cycle_detect, "apply_poly", counted)
        path = str(tmp_path / "ck")
        for budget in range(2, 1101):
            try:
                r = find_rho("B^2 B", max_steps=budget,
                             checkpoint_path=path, on_start=states.append)
            except CycleNotFound:
                r = find_rho("B^2 B", max_steps=2000, checkpoint_path=path, resume=True,
                             on_start=states.append)
            assert (budget, tuple(r)) == (budget, (258, 36))
        assert {st.stepper for st in states} == {stepper}
        # a resumed search redoes no advance, so each budget costs one search
        assert sum(st.advances for st in states) == 1099 * 1097
        if stepper == "py":
            assert calls[0] == 1099 * 1097

    def test_interrupt_at_every_advance_resumes(self, tmp_path, monkeypatch):
        # Ctrl-C lands inside some advance; the checkpoint it writes must
        # resume to the same answer. Advance 1 is the fresh state, made
        # before the search runs; past 1,097 a Brent search has finished.
        monkeypatch.setattr(walk, "load", lambda: None)
        path = str(tmp_path / "ck")
        interrupts = 0
        for n in range(2, 1101):
            calls = [0]

            def interrupted(state, x):
                calls[0] += 1
                if calls[0] == n:
                    raise KeyboardInterrupt
                return apply_poly(state, x)

            monkeypatch.setattr(cycle_detect, "apply_poly", interrupted)
            try:
                r = find_rho("B^2 B", checkpoint_path=path)
            except KeyboardInterrupt:
                interrupts += 1
                monkeypatch.setattr(cycle_detect, "apply_poly", apply_poly)
                r = find_rho("B^2 B", checkpoint_path=path, resume=True)
            assert (n, tuple(r)) == (n, (258, 36))
            assert not os.path.exists(path)
        assert interrupts == 1096

    def test_success_removes_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck")
        r = find_rho("B^1 B", checkpoint_path=path, checkpoint_interval=1,
                     checkpoint_seconds=0.0)
        assert tuple(r) == (32, 20)
        assert not os.path.exists(path)
