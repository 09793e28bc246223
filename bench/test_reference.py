"""Tests of the benchmark's reference code, which is written apart from
bluebird; the lambda oracle is the only part of the package used here, as
the judge of beta-eta equality."""

import random

import pytest

import reference as ref


def test_kernel_applies_the_golden_pair():
    # [4,1,0] applied to [2,0]
    assert ref.apply(((4, 1), (1, 1), (0, 1)), ((2, 1), (0, 1))) == (
        (5, 1), (3, 1), (2, 1), (0, 1))


@pytest.mark.parametrize("text,want", [
    ("B", (6, 4)),
    ("B^1 B", (32, 20)),
    ("B^2 B", (258, 36)),
    ("B^3 B", (4240, 5796)),
])
def test_brute_force_walk_reproduces_the_published_rho(text, want):
    base = ref.canonical(ref.parse(text))
    assert ref.brute_rho(base, 20_000) == want
    states = ref.orbit(base, ref.certificate_indices(*want))
    assert ref.rho_certificate(states.__getitem__, *want) == []


def test_certificate_rejects_a_multiple_of_the_cycle():
    base = ref.canonical(ref.parse("B^2 B"))
    states = ref.orbit(base, ref.certificate_indices(258, 72))
    assert ref.rho_certificate(states.__getitem__, 258, 72) != []


def test_text_round_trips_and_deep_terms_are_handled():
    rng = random.Random(0)
    for n in (1, 5, 40, 300):
        t = ref.random_term(rng, n)
        assert ref.leaves(t) == n
        assert ref.parse(ref.format_term(t)) == t
    deep = ref.parse("B (" * 2999 + "B B" + ")" * 2999)
    assert ref.leaves(deep) == 3001
    assert ref.canonical(deep) == ref.canonical(ref.parse("B^3000 B")) == ((3000, 1),)


def _lambda_nf(t):
    from bluebird import bterm as bt
    from bluebird import lambda_oracle as lo
    return lo.normalize(lo.bterm_to_lambda(bt.parse(ref.format_term(t))))


def test_rewriter_keeps_lambda_normal_forms_up_to_seven_leaves():
    contracted = 0
    for n in range(1, 8):
        for t in ref.all_terms(n):
            nf = _lambda_nf(t)
            for path in ref.redexes(t):
                u = ref.contract_at(t, path)
                assert ref.leaves(u) == n - 1
                assert _lambda_nf(u) == nf
                contracted += 1
    assert contracted > 100


def test_restricted_contractor_follows_the_rule():
    # the arity-0 constant: B a b c -> a (b c); arity 1 takes one more
    assert ref.restricted_nf((((0, 5), 6), 7)) == (5, (6, 7))
    assert ref.restricted_nf(((((1, 5), 6), 7), 8)) == (5, ((6, 7), 8))
    assert ref.restricted_nf(((0, 0), 0)) == ((0, 0), 0)
