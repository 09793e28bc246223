"""The package API that bench/run.py calls, on tiny inputs.

The benchmark script is kept unchanged between versions, so it keeps
calling these names with these keywords; a rename or a dropped keyword
would otherwise only show when the benchmark runs.
"""

import pytest

import bluebird as bb
import bluebird.lambda_oracle  # noqa: F401  (the benchmark imports it by name too)


def test_find_rho_checkpointed_stop_and_resume(tmp_path):
    path = str(tmp_path / "ck")
    states, hooked = [], []
    kw = dict(checkpoint_path=path, checkpoint_interval=10, checkpoint_seconds=60.0,
              state_hook=hooked.append, on_start=states.append)
    with pytest.raises(bb.CycleNotFound):
        bb.find_rho("B^1 B", max_steps=20, **kw)
    assert tuple(bb.find_rho("B^1 B", resume=True, **kw)) == (32, 20)
    assert len(states) == 2 and hooked
    assert all(st.advances > 0 and st.phase in (1, 2) for st in states)
    assert hooked[-1].fast == hooked[-1].slow


def test_restricted_entry_points():
    r = bb.find_rho_restricted(bb.monomial_rterm(0), algorithm="brent", max_steps=100,
                               rewrite_budget=1000)
    assert tuple(r) == (9, 4)
    eng = bb.RestrictedEngine(1000)
    base = eng.normalize(eng.intern(bb.monomial_rterm(1)))
    cur = base
    for _ in range(2):
        cur = eng.normalize(eng.app(cur, base))
    assert isinstance(eng.extern(base).fn, bb.restricted.RConst)
    assert bb.restricted.format_rterm(eng.extern(cur)) == "B (B B (B B))"
    assert eng.steps == 1


def test_lambda_oracle_entry_points():
    lo = bb.lambda_oracle
    assert tuple(lo.rho_lambda(lo.K, max_steps=100)) == (1, 2)
    term = lo.bterm_to_lambda(bb.parse("B B"))
    nf = lo.normalize(lo.App(term, term))
    assert isinstance(nf, lo.Abs)
    assert lo.equivalent(lo.bterm_to_lambda(bb.parse("B B B B")),
                         lo.bterm_to_lambda(bb.parse("B (B B)")))
    assert bb.canonical_via_lambda(bb.App(bb.B, bb.B)).runs == ((1, 1),)


def test_decide_entry_points():
    a, b = bb.parse("B B B B"), bb.parse("B (B B)")
    assert bb.equivalent_bterms(a, b)
    assert bb.canonicalize(a).runs == bb.canonicalize(b).runs


def test_kernel_and_checkpoint_file(tmp_path):
    fa, cd = bb.fast_apply, bb.cycle_detect
    base = bb.canonicalize(bb.parse("B^2 B")).runs
    rbase = fa.raise_runs(base)
    second = fa.apply_runs(base, rbase)
    st = cd.SearchState(term_text="B^2 B", algorithm="brent", phase=1, step=1,
                        m=None, candidate_c=None, slow=base, fast=second, base=base)
    path = str(tmp_path / "probe.ck")
    cd.save_checkpoint(st, path)
    back = cd.load_checkpoint(path)
    assert (back.slow, back.fast, back.step) == (st.slow, st.fast, st.step)


def test_hook_and_checkpoint_hand_out_plain_runs(tmp_path):
    # the traced orbit-b4 probe feeds the states that state_hook and
    # load_checkpoint hand out to fast_apply.apply_runs, and rebuilds a
    # SearchState from them for save_checkpoint
    fa, cd = bb.fast_apply, bb.cycle_detect
    rbase = fa.raise_runs(bb.canonicalize(bb.parse("B^2 B")).runs)
    path = str(tmp_path / "ck")
    hooked = []
    with pytest.raises(bb.CycleNotFound):
        bb.find_rho("B^2 B", max_steps=50, checkpoint_path=path, checkpoint_interval=1,
                    state_hook=hooked.append)
    back = cd.load_checkpoint(path)
    for st in hooked + [back]:
        for runs in (st.slow, st.fast, st.base):
            assert type(runs) is tuple
            assert all(type(run) is tuple and len(run) == 2 for run in runs)
            assert bb.DegreeSeq(runs).runs == runs
    assert (back.slow, back.fast, back.step) == (hooked[-1].slow, hooked[-1].fast,
                                                hooked[-1].step)
    assert all(b.fast == fa.apply_runs(a.fast, rbase) for a, b in zip(hooked, hooked[1:]))


def test_search_core_entry_points():
    def f(x):
        return (x * x + 1) % 255

    want = (3, 6)  # from 3: 3, 10, 101, 2, 5, 26, 167, 95, 101, ...
    assert bb.cycles.brent_rho(3, f, 1000) == want
    assert bb.cycles.floyd_rho(3, f, max_steps=1000) == want


@pytest.mark.parametrize("text,want,calls", [
    ("B", (6, 4), 37),
    ("B^1 B", (32, 20), 201),
    ("B^2 B", (258, 36), 1413),
    ("B^3 B", (4240, 5796), 31661),
])
def test_floyd_rho_advance_counts(text, want, calls):
    # the traced lambda-b3 run reports these calls as cycles.floyd_advances
    first = bb.canonicalize(bb.parse(text))
    n = [0]

    def f(state):
        n[0] += 1
        return bb.apply_poly(state, first)

    assert bb.cycles.floyd_rho(first, f) == want
    assert n[0] == calls
