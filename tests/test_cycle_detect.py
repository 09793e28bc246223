"""Cycle detection on canonical forms: values, checkpointing, resume."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bluebird import bterm as bt
from bluebird import cycle_detect, cycles, lambda_oracle, restricted, walk
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
    """Kills, budget stops and interrupts, each resumed to the same answer:
    canonical B^2 B here, and the other engines' small orbits in the
    subclasses below. advances counts the advances of one whole search and
    calls the calls of its Python advance (the calls advance_calls counts);
    the budget sweep stops at every stride-th advance."""

    text, want, advances, calls, double_kill = "B^2 B", (258, 36), 1097, 1097, (50, 200)
    stride = 1

    def rho(self, **kw):
        return find_rho(self.text, **kw)

    def advance_calls(self, monkeypatch, at=None):
        """Counts the calls of the Python advance, and raises
        KeyboardInterrupt in the at-th."""
        calls = [0]

        def counted(state, x):
            calls[0] += 1
            if calls[0] == at:
                raise KeyboardInterrupt
            return apply_poly(state, x)

        monkeypatch.setattr(cycle_detect, "apply_poly", counted)
        return calls

    @pytest.mark.parametrize("after", [1, 100, 400, 790])
    def test_kill_points_across_phases(self, tmp_path, after):
        path = str(tmp_path / "ck")
        with pytest.raises(Kill):
            self.rho(checkpoint_path=path,
                     checkpoint_interval=1, checkpoint_seconds=0.0,
                     state_hook=killing_hook(after))
        assert os.path.exists(path)
        r = self.rho(checkpoint_path=path, resume=True)
        assert tuple(r) == self.want
        assert not os.path.exists(path)

    def test_double_kill_then_finish(self, tmp_path):
        path = str(tmp_path / "ck")
        first, second = self.double_kill
        with pytest.raises(Kill):
            self.rho(checkpoint_path=path,
                     checkpoint_interval=1, checkpoint_seconds=0.0,
                     state_hook=killing_hook(first))
        with pytest.raises(Kill):
            self.rho(checkpoint_path=path, resume=True,
                     checkpoint_interval=1, checkpoint_seconds=0.0,
                     state_hook=killing_hook(second))
        r = self.rho(checkpoint_path=path, resume=True)
        assert tuple(r) == self.want

    def test_budget_exhaustion_leaves_resumable_state(self, tmp_path):
        path = str(tmp_path / "ck")
        with pytest.raises(CycleNotFound):
            self.rho(max_steps=100,
                     checkpoint_path=path, checkpoint_seconds=0.0)
        assert os.path.exists(path)
        r = self.rho(checkpoint_path=path, resume=True)
        assert tuple(r) == self.want

    def test_budget_stop_at_every_advance_resumes(self, stepper, tmp_path, monkeypatch):
        # B^2 B takes 1,097 advances, so the budgets stop the search in
        # both phases, at every anchor move and at the phase switch, and
        # between the advances of one phase-2 iteration. Where each advance
        # is one call, the Python stepper's counted calls check that every
        # advance the searches report went through it; the compiled walk
        # makes them without it.
        calls, states = self.advance_calls(monkeypatch), []
        path = str(tmp_path / "ck")
        budgets = range(2, self.advances + 4, self.stride)
        for budget in budgets:
            try:
                r = self.rho(max_steps=budget,
                             checkpoint_path=path, on_start=states.append)
            except CycleNotFound:
                r = self.rho(max_steps=2 * self.advances, checkpoint_path=path, resume=True,
                             on_start=states.append)
            assert (budget, tuple(r)) == (budget, self.want)
        assert {st.stepper for st in states} == {stepper}
        # a resumed search redoes no advance, so each budget costs one search
        assert sum(st.advances for st in states) == len(budgets) * self.advances
        if stepper == "py" and self.calls == self.advances:
            assert calls[0] == len(budgets) * self.advances

    def test_interrupt_at_every_advance_resumes(self, tmp_path, monkeypatch):
        # Ctrl-C lands inside some advance; the checkpoint it writes must
        # resume to the same answer. Call 1 makes the fresh state, before
        # the search runs; past the last call a Brent search has finished.
        monkeypatch.setattr(walk, "load", lambda *source: None)
        path = str(tmp_path / "ck")
        interrupts = 0
        for n in range(2, self.calls + 4):
            self.advance_calls(monkeypatch, n)
            try:
                r = self.rho(checkpoint_path=path)
            except KeyboardInterrupt:
                interrupts += 1
                self.advance_calls(monkeypatch)
                r = self.rho(checkpoint_path=path, resume=True)
            assert (n, tuple(r)) == (n, self.want)
            assert not os.path.exists(path)
        assert interrupts == self.calls - 1

    def test_success_removes_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck")
        r = self.rho(checkpoint_path=path, checkpoint_interval=1,
                     checkpoint_seconds=0.0)
        assert tuple(r) == self.want
        assert not os.path.exists(path)


class TestKillResumeLambda(TestKillResume):
    # B^1 B: 133 advances, 84 chunks of one, and e + c - 1 = 51 calls
    text, want, advances, calls, double_kill = "B^1 B", (32, 20), 133, 51, (20, 40)
    normal = staticmethod(lambda_oracle._normal)

    def rho(self, **kw):
        lo = lambda_oracle
        return cycles.run(lo.engine(lo.bterm_to_lambda(bt.parse(self.text))), **kw)

    def advance_calls(self, monkeypatch, at=None):
        calls = [-1]  # call 0 normalizes the base, before the search

        def counted(code, max_steps):
            calls[0] += 1
            if calls[0] == at:
                raise KeyboardInterrupt
            return self.normal(code, max_steps)

        monkeypatch.setattr(lambda_oracle, "_normal", counted)
        return calls

    @pytest.fixture
    def stepper(self):
        return "py"

    @pytest.mark.parametrize("after", [1, 20, 50, 70])
    def test_kill_points_across_phases(self, tmp_path, after):
        super().test_kill_points_across_phases(tmp_path, after)


class TestKillResumeRestricted(TestKillResume):
    # B^1 B, the degree-2 base: 1,129 advances. The chain below stops it
    # at every advance; the budget sweep, the same search core as the
    # canonical one, at every fifth advance
    text, want, advances, calls, double_kill = "B^1 B", (274, 36), 1129, None, (50, 200)
    stride = 5

    def rho(self, **kw):
        return cycles.run(restricted.engine(self.text), **kw)

    @pytest.fixture(params=["c", "py"])
    def stepper(self, request, monkeypatch):
        if request.param == "py":
            monkeypatch.setattr(restricted, "fits", lambda eng: False)
        elif walk.load(walk.RSOURCE) is None:
            pytest.skip("no C compiler to build the compiled restricted walk")
        return request.param

    def stop_everywhere(self, monkeypatch, path, stop):
        """Interrupts the search after the n-th advance of a run (stop(n)
        sets it up) and resumes it from the checkpoint that writes, a chunk
        of one advance at most behind, with n + 1 while runs leave the
        checkpoint where it was and n = 2 once one has moved it on: so every
        advance stops some run. Returns the answer and the number of stops."""
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # thousands of saves
        n, last, stops = 2, None, 0
        while True:
            stop(n)
            try:
                return self.rho(checkpoint_path=path, checkpoint_interval=1,
                                checkpoint_seconds=3600.0, resume=last is not None), stops
            except KeyboardInterrupt:
                stops += 1
                with open(path) as fh:
                    text = fh.read()
                n = n + 1 if text == last else 2
                last = text

    @pytest.mark.parametrize("every", [1, 4])
    def test_interrupt_at_every_advance_resumes(self, stepper, tmp_path, monkeypatch, every):
        # Ctrl-C inside a walk call, after the n-th advance of the run and
        # maybe a compaction: the ids the search holds then name other nodes,
        # and the checkpoint holds the terms read back after the last chunk;
        # the fresh run's first advance makes the state the search starts from
        monkeypatch.setattr(restricted, "COMPACT_EVERY", every)
        cls = restricted.CStepper if stepper == "c" else restricted.PyStepper
        real, at, made = cls.walk, [0], [0]

        def interrupted(self, a, b, k, both):
            out = real(self, a, b, min(k, at[0] - made[0]), both)
            made[0] += out[2]
            if made[0] == at[0]:
                raise KeyboardInterrupt
            return out

        def stop(n):
            at[0], made[0] = n, 0

        monkeypatch.setattr(cls, "walk", interrupted)
        r, stops = self.stop_everywhere(monkeypatch, str(tmp_path / "ck"), stop)
        assert tuple(r) == self.want and stops > 820  # the chunks of one search
