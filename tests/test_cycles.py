"""Pointer-chase cycle finders on synthetic orbits, checked against brute force."""

import inspect
import random

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from bluebird import bterm as bt
from bluebird import cli, cycle_detect, cycles, lambda_oracle, restricted
from bluebird.cycle_detect import find_rho
from bluebird.cycles import (
    MAX_STEPS,
    RhoResult,
    Stepper,
    brent_rho,
    floyd_rho,
    search,
    start,
)
from bluebird.errors import CycleNotFound
from bluebird.restricted import find_rho_restricted, monomial_rterm


def brute(first, f, limit=10_000):
    seen = {}
    x, i = first, 1
    while i <= limit:
        if x in seen:
            return seen[x], i - seen[x]
        seen[x] = i
        x = f(x)
        i += 1
    raise AssertionError("no repeat")


def test_known_small_orbits():
    # tail of length 3 into a 4-cycle: 0 1 2 3 4 5 6 -> 3
    f = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 3}.get
    assert floyd_rho(0, f) == (4, 4)
    assert brent_rho(0, f) == (4, 4)


def test_fixpoint_orbit():
    f = lambda x: 7
    assert floyd_rho(7, f) == (1, 1)
    assert brent_rho(7, f) == (1, 1)
    assert floyd_rho(3, f) == (2, 1)
    assert brent_rho(3, f) == (2, 1)


def test_pure_cycle_orbit():
    f = lambda x: (x + 1) % 6
    assert floyd_rho(0, f) == (1, 6)
    assert brent_rho(0, f) == (1, 6)


def test_against_brute_force_random_functions():
    rng = random.Random(20260814)
    for _ in range(200):
        n = rng.randint(1, 60)
        table = [rng.randrange(n) for _ in range(n)]
        f = lambda x: table[x]
        start = rng.randrange(n)
        want = brute(start, f)
        assert floyd_rho(start, f) == want
        assert brent_rho(start, f) == want


def test_budget_exhaustion():
    succ = lambda x: x + 1
    with pytest.raises(CycleNotFound):
        floyd_rho(0, succ, max_steps=100)
    with pytest.raises(CycleNotFound):
        brent_rho(0, succ, max_steps=100)


@given(hs.data())
def test_budget_stop_then_resume_matches_brute_force(data):
    n = data.draw(hs.integers(1, 40))
    table = data.draw(hs.lists(hs.integers(0, n - 1), min_size=n, max_size=n))
    first = data.draw(hs.integers(0, n - 1))
    budget = data.draw(hs.integers(0, 4 * n + 4))
    f = table.__getitem__
    st = start(first, f)
    try:
        got = search(st, Stepper(f), budget)
    except CycleNotFound:
        # Brent needs fewer than 7 n advances on n states
        got = search(st, Stepper(f), 7 * n)
    assert got == floyd_rho(first, f) == brute(first, f)


def test_one_default_budget():
    for fn in (find_rho, find_rho_restricted, lambda_oracle.rho_lambda,
               floyd_rho, brent_rho, search):
        assert inspect.signature(fn).parameters["max_steps"].default == MAX_STEPS
    assert cli.build_parser().parse_args(["rho", "B"]).max_steps == MAX_STEPS


def test_every_engine_returns_one_result_type():
    f = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 3}.get
    results = [
        (find_rho("B"), (6, 4)),
        (find_rho_restricted(monomial_rterm(0)), (9, 4)),
        (lambda_oracle.rho_lambda(lambda_oracle.K), (1, 2)),
        (brent_rho(0, f), (4, 4)),
        (floyd_rho(0, f), (4, 4)),
    ]
    for got, want in results:
        assert type(got) is RhoResult
        assert got == want
        assert (got.entry, got.cycle) == want
    assert cycle_detect.RhoResult is RhoResult


ORBITS = {
    "canonical": cycle_detect.engine,
    "restricted": restricted.engine,
    "lambda": lambda text: lambda_oracle.engine(lambda_oracle.bterm_to_lambda(bt.parse(text))),
}


@pytest.mark.parametrize("engine,text", [
    ("canonical", "B"), ("canonical", "B^2 B"), ("restricted", "B"), ("restricted", "B (B B)"),
    ("lambda", "B"), ("lambda", "B^1 B")])
def test_states_round_trip_through_one_line(engine, text):
    # every state a search passes, as state_hook gets it, is one printable
    # line in a checkpoint and decodes back to itself; so is the term
    states, build = [], ORBITS[engine]
    cycles.run(build(text), checkpoint_interval=1,
               state_hook=lambda st: states.extend((st.slow, st.fast)))
    orbit = build(text)
    lines = [orbit.encode(s) for s in states]
    assert all(line.isprintable() for line in lines + [orbit.term])
    assert (orbit.parse or orbit.decode)(orbit.term) == orbit.first
    decoded = [orbit.decode(line) for line in lines]
    stepper = orbit.stepper(None, 1)  # after decode, as on a resume
    try:
        assert [orbit.plain(s) for s in decoded] == states
    finally:
        stepper.close()
    if (engine, text) == ("lambda", "B^1 B"):
        # prefix strings hold chr(i + 2) for variable i, so index 8 is a newline
        assert any("\n" in s for s in states) and all("\x00" in s for s in states)
