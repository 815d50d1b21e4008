import itertools

import pytest
from hypothesis import given, strategies as st

from posetmatch import (
    OccurrenceFlavor,
    Permutation,
    antichain,
    chain,
    is_occurrence,
    poset_from_permutation,
    poset_from_relations,
    restrict,
)
from posetmatch.core import (
    format_permutation,
    format_poset,
    parse_permutation,
    parse_poset,
)
from posetmatch.errors import CycleError, FormatError, RangeError

from conftest import random_poset

permutations_st = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(Permutation)


def test_closure_adds_transitive_pair():
    P = poset_from_relations(3, [(1, 2), (2, 3)])
    assert P.less(1, 3)
    assert P == chain(3)


def test_empty_relation_is_antichain():
    assert poset_from_relations(4, []) == antichain(4)


def test_two_cycle_raises():
    with pytest.raises(CycleError):
        poset_from_relations(2, [(1, 2), (2, 1)])


def test_long_cycle_raises():
    with pytest.raises(CycleError):
        poset_from_relations(4, [(1, 2), (2, 3), (3, 1)])


def test_out_of_range_raises():
    with pytest.raises(RangeError):
        poset_from_relations(3, [(1, 4)])


def test_identity_permutation_gives_chain():
    for n in range(1, 8):
        assert poset_from_permutation(Permutation(range(1, n + 1))) == chain(n)


def test_reversal_gives_antichain():
    for n in range(1, 8):
        assert poset_from_permutation(Permutation(range(n, 0, -1))) == antichain(n)


def test_231_single_relation():
    P = poset_from_permutation(Permutation([2, 3, 1]))
    assert P.relations() == [(1, 2)]


def test_d_sigma_rows_match_pairwise_definition(rng):
    for n in [1, 2, 60] + [rng.randint(1, 60) for _ in range(20)]:
        img = list(range(1, n + 1))
        rng.shuffle(img)
        P = poset_from_permutation(Permutation(img))
        assert P.up == tuple(sum(1 << j for j in range(i + 1, n) if img[i] < img[j]) for i in range(n))
        assert P.down == tuple(sum(1 << i for i in range(j) if img[i] < img[j]) for j in range(n))


@given(permutations_st)
def test_d_sigma_is_a_valid_poset(sigma):
    P = poset_from_permutation(sigma)
    for a in range(1, P.n + 1):
        assert not P.less(a, a)
        for b in range(1, P.n + 1):
            assert not (P.less(a, b) and P.less(b, a))
            for c in range(1, P.n + 1):
                if P.less(a, b) and P.less(b, c):
                    assert P.less(a, c)


def test_restrict_examples():
    assert restrict(chain(5), {2, 4}) == chain(2)
    assert restrict(antichain(4), {1, 3}) == antichain(2)
    assert restrict(poset_from_permutation(Permutation([2, 3, 1])), {1, 2}) == chain(2)
    with pytest.raises(RangeError):
        restrict(chain(3), {0, 1})


def test_restrict_is_functorial(rng):
    for _ in range(30):
        P = random_poset(rng, 7)
        outer = sorted(rng.sample(range(1, 8), 5))
        inner_rel = sorted(rng.sample(range(1, 6), 3))
        composed = restrict(restrict(P, outer), inner_rel)
        direct = restrict(P, [outer[i - 1] for i in inner_rel])
        assert composed == direct


def test_restrict_matches_pairwise_reference(rng):
    # reference: the relation read pair by pair through P.less
    for _ in range(200):
        n = rng.randint(0, 12)
        P = random_poset(rng, n)
        subset = [rng.randint(1, n) for _ in range(rng.randint(0, 2 * n))] if n else []
        elems = sorted(set(subset))
        m = len(elems)
        want = poset_from_relations(m, [
            (i + 1, j + 1) for i, a in enumerate(elems) for j, b in enumerate(elems) if P.less(a, b)])
        for got in (restrict(P, subset), restrict(P, subset + subset[:3])):
            assert got == want
            assert got.down == tuple(sum(1 << i for i in range(m) if got.up[i] >> j & 1) for j in range(m))
    assert restrict(chain(4), []) == antichain(0)


def test_is_occurrence_examples():
    flavors = [OccurrenceFlavor(i, j, u) for i in (0, 1) for j in (0, 1) for u in (0, 1)]
    for flavor in flavors:
        assert is_occurrence((1, 2, 3), chain(3), chain(3), flavor)
    non_inj = OccurrenceFlavor(induced=False, injective=False)
    assert is_occurrence((1, 1), antichain(2), chain(2), non_inj)
    assert not is_occurrence((1, 1), chain(2), chain(2), non_inj)


def test_induced_occurrence_implies_plain(rng):
    for _ in range(50):
        P = random_poset(rng, 3)
        Q = random_poset(rng, 5)
        for assignment in itertools.product(range(1, 6), repeat=3):
            if is_occurrence(assignment, P, Q, OccurrenceFlavor(induced=True)):
                assert is_occurrence(assignment, P, Q, OccurrenceFlavor(induced=False))


def test_is_occurrence_rejects_bad_shapes():
    with pytest.raises(RangeError):
        is_occurrence((1,), chain(2), chain(2), OccurrenceFlavor())
    with pytest.raises(RangeError):
        is_occurrence((1, 5), chain(2), chain(2), OccurrenceFlavor())


def test_poset_file_roundtrip(rng):
    for _ in range(30):
        P = random_poset(rng, rng.randint(1, 8))
        assert parse_poset(format_poset(P)) == P


def test_poset_writer_emits_covers_only():
    text = format_poset(chain(4))
    relation_lines = [l for l in text.splitlines() if l.startswith("r")]
    assert relation_lines == ["r 1 2", "r 2 3", "r 3 4"]


def test_poset_parser_accepts_comments_and_errors():
    P = parse_poset("# a chain\np 3\nr 1 2\nr 2 3\n")
    assert P == chain(3)
    for bad in ["", "r 1 2", "p 3\nq 1", "p x", "p 3\nr 1", "p 3\np 3"]:
        with pytest.raises(FormatError):
            parse_poset(bad)


def test_permutation_roundtrip_and_errors():
    sigma = Permutation([3, 1, 2])
    assert parse_permutation(format_permutation(sigma)) == sigma
    for bad in ["", "1 1", "1 3", "a b"]:
        with pytest.raises(FormatError):
            parse_permutation(bad)
