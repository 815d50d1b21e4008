import itertools
import random
import time
import tracemalloc
from collections import Counter
from math import comb, factorial

import pytest

from posetmatch import (
    OccurrenceFlavor,
    Permutation,
    antichain,
    chain,
    count_chain_occurrences,
    count_occurrences,
    count_occurrences_in_chain,
    enumerate_occurrences,
    is_occurrence,
    match_permutation,
    poset_from_permutation,
    poset_from_relations,
)
from posetmatch.errors import RangeError, SizeError, SizeLimitError, TimeoutError
from posetmatch.lecount import canonical_code, count_automorphisms_bruteforce, count_le_bruteforce
from posetmatch import occur
from posetmatch.occur import _search_order, automorphism_maps

from conftest import brute_automorphisms, brute_occurrences, poset_classes, random_poset, relabel

ALL_FLAVORS = [OccurrenceFlavor(bool(i), bool(j), bool(u))
               for i in (0, 1) for j in (0, 1) for u in (0, 1)]

N_POSET = poset_from_relations(4, [(1, 3), (2, 3), (2, 4)])


def test_enumerate_chain2_in_chain3():
    occs = enumerate_occurrences(chain(2), chain(3), OccurrenceFlavor(injective=True))
    assert [o.assignment for o in occs] == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_nonkinjective_antichain():
    occs = enumerate_occurrences(antichain(2), chain(2), OccurrenceFlavor())
    assert len(occs) == 4


def test_enumerate_unlabeled_orbit_representative():
    flavor = OccurrenceFlavor(induced=True, injective=True, unlabeled=True)
    occs = enumerate_occurrences(antichain(2), antichain(2), flavor)
    assert [o.assignment for o in occs] == [(1, 2)]


def test_enumerate_budget():
    with pytest.raises(SizeLimitError):
        enumerate_occurrences(chain(4), chain(10), OccurrenceFlavor(), budget=100)


def test_enumerate_budget_is_not_negative():
    with pytest.raises(RangeError, match="-1"):
        enumerate_occurrences(chain(1), chain(3), OccurrenceFlavor(), budget=-1)
    with pytest.raises(SizeLimitError):
        enumerate_occurrences(chain(1), chain(3), OccurrenceFlavor(), budget=0)


def test_count_examples():
    Q = poset_from_permutation(Permutation([2, 3, 1]))
    assert count_occurrences(chain(2), Q, OccurrenceFlavor(True, True, False)) == 1
    assert count_occurrences(antichain(3), antichain(3), OccurrenceFlavor(True, True, False)) == 6
    assert count_occurrences(antichain(3), antichain(3), OccurrenceFlavor(True, True, True)) == 1


def test_enumerate_budget_bounds_output_not_map_space():
    # 12^6 (about 3.0M) candidate maps, but only C(12, 6) = 924 occurrences
    occs = enumerate_occurrences(chain(6), chain(12), OccurrenceFlavor(True, True, False))
    assert len(occs) == comb(12, 6) == 924
    assert occs[0].assignment == (1, 2, 3, 4, 5, 6)
    assert occs[-1].assignment == (7, 8, 9, 10, 11, 12)


# patterns whose automorphism orbits on maps differ in size: fixed points
# of a swap of two blocks, or of a permutation of antichain elements
SYMMETRIC_PATTERNS = [antichain(3), poset_from_permutation(Permutation([3, 4, 1, 2])),
                      poset_from_relations(3, [(1, 2)])]


def test_count_matches_enumeration(rng):
    pairs = [(random_poset(rng, 3), random_poset(rng, 5)) for _ in range(25)]
    pairs += [(P, random_poset(rng, 5)) for P in SYMMETRIC_PATTERNS for _ in range(4)]
    for P, Q in pairs:
        for flavor in ALL_FLAVORS:
            oracle = brute_occurrences(P, Q, flavor)
            occs = enumerate_occurrences(P, Q, flavor)
            assert count_occurrences(P, Q, flavor) == len(occs) == len(oracle)
            assert [o.assignment for o in occs] == oracle


def test_search_order_places_the_most_constrained_first():
    # 1 is isolated and 2 < 3 < 4: the chain goes first, from its lowest
    # label, and the isolated element last, where the count adds it by
    # popcount; constraints of one kind alone tie, and label order decides
    P = poset_from_relations(4, [(2, 3), (3, 4)])
    assert _search_order(P, False) == [1, 2, 3, 0]
    assert _search_order(antichain(4), False) == _search_order(chain(4), False) == [0, 1, 2, 3]
    # induced, with incomparable pairs the more selective: 1, incomparable
    # to all others, goes first; of 1 < 2, 3, 4, the pairwise incomparable
    # 2, 3, 4 go before 1
    assert _search_order(P, True) == [0, 1, 2, 3]
    Q = poset_from_relations(4, [(1, 2), (1, 3), (1, 4)])
    assert _search_order(Q, True) == [1, 2, 3, 0]
    # 30 pairwise incomparable bottoms below a 170-chain: each chain element
    # has 199 constraints, each bottom 170, so the order starts at the chain
    # however many constraints there are
    R = poset_from_relations(200, [(b, 31) for b in range(1, 31)] + [(c, c + 1) for c in range(31, 200)])
    assert _search_order(R, False)[0] == 30


def reference_search_order(P, dense):
    """The order _search_order must give, written plainly: a max over the
    unplaced elements by (constraints to the placed, to the unplaced, -label)."""
    rows = [P.up[v] | P.down[v] for v in range(P.n)]
    if dense:
        rows = [((1 << P.n) - 1) & ~row & ~(1 << v) for v, row in enumerate(rows)]
    placed, order, left = 0, [], list(range(P.n))
    while left:
        v = max(left, key=lambda v: ((rows[v] & placed).bit_count(), (rows[v] & ~placed).bit_count(), -v))
        left.remove(v)
        order.append(v)
        placed |= 1 << v
    return order


def test_search_order_matches_its_reference():
    for k in range(1, 10):
        for p in (0.2, 0.5, 0.8):
            for s in range(30):
                P = random_poset(random.Random(s), k, p)
                for dense in (False, True):
                    assert _search_order(P, dense) == reference_search_order(P, dense), (P, dense)


def test_induced_counts_in_dense_texts_search_by_incomparable_pairs(monkeypatch):
    # the dense order is chosen iff the count is induced and more than a
    # third of the text's ordered pairs are related: 3 * |relations| > n * n
    seen, order = [], occur._search_order
    monkeypatch.setattr(occur, "_search_order", lambda P, dense: seen.append(dense) or order(P, dense))

    def dense(Q, induced):
        seen.clear()
        for injective in (False, True):
            count_occurrences(N_POSET, Q, OccurrenceFlavor(induced, injective))
        assert len(set(seen)) == 1, seen
        return seen[0]

    assert dense(chain(12), True)
    assert not dense(chain(12), False)
    assert not dense(antichain(12), True)
    # three levels of two, each below the next: 12 relations, 3 * 12 = 6 * 6;
    # 1 < 2 makes 13 (3 * |relations| = n * n + 1 has no solution)
    levels = [(a, b) for a in range(1, 7) for b in range(1, 7) if (a + 1) // 2 < (b + 1) // 2]
    assert len(poset_from_relations(6, levels).relations()) == 12
    assert not dense(poset_from_relations(6, levels), True)
    assert dense(poset_from_relations(6, levels + [(1, 2)]), True)


def test_counts_match_oracle_when_search_order_is_not_label_order(rng):
    # relabeled pairs: counts search the most constrained elements first,
    # enumeration keeps label order; k = 1 and 2 are all tail, and the
    # symmetric patterns' Burnside ties fall on any of their elements
    pairs = [(relabel(rng, random_poset(rng, k)), relabel(rng, random_poset(rng, 5)))
             for k in (1, 2, 3, 4) for _ in range(6)]
    pairs += [(relabel(rng, P), relabel(rng, random_poset(rng, 4))) for P in SYMMETRIC_PATTERNS
              for _ in range(3)]
    for P, Q in pairs:
        for flavor in ALL_FLAVORS:
            oracle = brute_occurrences(P, Q, flavor)
            assert count_occurrences(P, Q, flavor) == len(oracle), (P, Q, flavor)
            assert [o.assignment for o in enumerate_occurrences(P, Q, flavor)] == oracle


@pytest.mark.parametrize("seed", [1, 7, 9])
def test_counts_are_relabel_invariant_beyond_the_oracle(seed):
    # k = 7, n = 30 (up to 4.7 million maps); the seeds give |Aut(P)| = 2, 1 and 6
    rng = random.Random(seed)
    P, Q = random_poset(rng, 7, 0.4), random_poset(rng, 30, 0.3)
    P2, Q2 = relabel(rng, P), relabel(rng, Q)
    for flavor in ALL_FLAVORS:
        assert count_occurrences(P, Q, flavor) == count_occurrences(P2, Q2, flavor), flavor


def test_unlabeled_count_honours_a_passed_deadline(monkeypatch):
    # antichain(2) has two automorphisms, so the count runs two searches,
    # each far shorter than the interval between deadline checks; the
    # first, which lists or counts Aut(P), must be the one that raises
    calls = []
    search = occur._count_maps
    monkeypatch.setattr(occur, "_count_maps", lambda P, *args, **kw: calls.append(P) or search(P, *args, **kw))
    for injective in (False, True):
        calls.clear()
        with pytest.raises(TimeoutError):
            count_occurrences(antichain(2), chain(3), OccurrenceFlavor(False, injective, True),
                              deadline=time.monotonic() - 1)
        assert len(calls) == 1


@pytest.mark.parametrize("k, n", [(3, 2000), (4, 400), (4, 300)])
def test_count_deadline_bounds_work_that_grows_with_the_text(k, n):
    # every search has fewer than 4,096 nodes, but the third-to-last
    # element tries about n images and, for each, sums over about n
    # candidates of the second-to-last; the deadline counts those steps,
    # also at k = 4 and n = 300, where the sums run on pair tables
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        count_occurrences(antichain(k), antichain(n), OccurrenceFlavor(False, True, False),
                          deadline=start + 0.05)
    assert time.monotonic() - start < 1


def test_injective_pattern_larger_than_text_searches_nothing():
    # no injective map fits 11 elements into 10, so no search is needed; one
    # would run for seconds, past the deadline (the unlabeled flavors count
    # or list Aut(P) before it)
    for flavor in ALL_FLAVORS:
        if flavor.injective:
            deadline = time.monotonic() + 0.5
            assert count_occurrences(antichain(11), antichain(10), flavor, deadline=deadline) == 0
            start = time.monotonic()
            assert enumerate_occurrences(antichain(9), antichain(8), flavor) == []
            assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("k, m", [(8, 2), (7, 3), (6, 4)])
def test_unlabeled_antichain_in_antichain_is_multisets(k, m, rng):
    # orbits of all maps antichain(k) -> antichain(m) under the k! relabelings
    # are the multisets of size k drawn from m elements; non-induced maps of
    # an antichain are all maps, into any text
    for induced in (False, True):
        flavor = OccurrenceFlavor(induced=induced, injective=False, unlabeled=True)
        assert count_occurrences(antichain(k), antichain(m), flavor) == comb(m + k - 1, k)
    Q = random_poset(rng, m + 2, 0.5)
    assert Q.relations()
    flavor = OccurrenceFlavor(induced=False, injective=False, unlabeled=True)
    assert count_occurrences(antichain(k), Q, flavor) == comb(Q.n + k - 1, k)


def test_unlabeled_count_runs_one_search_per_distinct_fold(monkeypatch):
    # the 4,140 cycle partitions of Aut(antichain(8)) fold to antichain(c)
    # for c = 1..8: eight counting searches, after the one that lists Aut
    calls = []
    search = occur._count_maps
    monkeypatch.setattr(occur, "_count_maps", lambda P, *args, **kw: calls.append(P) or search(P, *args, **kw))
    flavor = OccurrenceFlavor(induced=False, injective=False, unlabeled=True)
    assert count_occurrences(antichain(8), antichain(2), flavor) == comb(9, 8)
    assert sorted(P.n for P in calls[1:]) == list(range(1, 9))
    assert len(calls) == 9


def test_unlabeled_non_injective_count_holds_no_list_of_automorphisms():
    # Aut(antichain(7)) has 5,040 members but only 877 cycle classes (set
    # partitions of 7), so a count that tallies classes as the search meets
    # them stays well under what a list of the members takes (0.62 MB)
    tracemalloc.start()
    try:
        assert count_occurrences(antichain(7), antichain(2), OccurrenceFlavor(False, False, True)) == 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300_000, peak


def test_unlabeled_injective_count_does_not_list_automorphisms(monkeypatch):
    # only the identity fixes an injective map, so |Aut(P)| is counted, not listed
    monkeypatch.setattr(occur, "automorphism_maps", lambda P: pytest.fail("Aut(P) listed"))
    for induced in (False, True):
        assert count_occurrences(antichain(3), antichain(4), OccurrenceFlavor(induced, True, True)) == 4


def test_only_unlabeled_non_injective_counts_list_and_fold_automorphisms(monkeypatch):
    # a labeled count is one search of P in the text; an unlabeled injective
    # count is two, |Aut(P)| on P and then the text; neither builds cycle
    # leaders or folds, though Aut(P) here has two members
    calls = []

    def spy(name):
        inner = getattr(occur, name)
        monkeypatch.setattr(occur, name, lambda *args, **kw: calls.append((name, args)) or inner(*args, **kw))

    for name in ("_count_maps", "_cycle_leaders", "_fold_cycles"):
        spy(name)
    P, Q = SYMMETRIC_PATTERNS[1], random_poset(random.Random(3), 6, 0.5)
    for flavor in ALL_FLAVORS:
        if flavor.unlabeled and not flavor.injective:
            continue
        calls.clear()
        count_occurrences(P, Q, flavor)
        searches = [(P, P), (P, Q)] if flavor.unlabeled else [(P, Q)]
        assert [name for name, _ in calls] == ["_count_maps"] * len(searches), flavor
        assert all(args[0] is a and args[1] is b for (_, args), (a, b) in zip(calls, searches)), flavor
        if not flavor.unlabeled:
            with pytest.raises(TimeoutError):
                count_occurrences(P, Q, flavor, deadline=time.monotonic() - 1)


# automorphisms whose cycles are not modules (a swap of two 2-chains pairs
# each bottom with a top it is incomparable to) fold to nothing for induced
# flavors; the star's and the antichain's cycles are modules
NON_MODULE_CYCLES = [poset_from_relations(4, [(1, 2), (3, 4)]),
                     poset_from_relations(6, [(1, 2), (3, 4), (5, 6)]),
                     poset_from_relations(5, [(1, b) for b in range(2, 6)]), antichain(4)]


def test_counts_match_oracle_when_cycles_are_not_modules(rng):
    for P in NON_MODULE_CYCLES:
        for P2 in (P, relabel(rng, P)):
            Q = random_poset(rng, rng.randint(3, 7 if P.n <= 5 else 5))
            for flavor in ALL_FLAVORS:
                assert count_occurrences(P2, Q, flavor) == len(brute_occurrences(P2, Q, flavor)), \
                    (P2, Q, flavor)


def test_every_poset_class_up_to_four_elements_agrees_with_the_oracle():
    # each of the 25 classes on 0-4 elements as pattern and as text, in
    # every flavor, naturally labeled and relabeled: all closed forms of
    # k < 3, every Aut(P) tally and every tail of three or four elements
    assert [len(poset_classes(n)) for n in range(5)] == [1, 1, 2, 5, 16]
    classes = [P for n in range(5) for P in poset_classes(n)]
    rng = random.Random(13)
    for P in classes:
        for Q in classes:
            P2, Q2 = relabel(rng, P), relabel(rng, Q)
            for flavor in ALL_FLAVORS:
                expected = len(brute_occurrences(P, Q, flavor))
                assert count_occurrences(P, Q, flavor) == expected, (P, Q, flavor)
                assert count_occurrences(P2, Q2, flavor) == expected, (P2, Q2, flavor)


@pytest.mark.parametrize("flavor", ALL_FLAVORS)
def test_degenerate_sizes(flavor):
    # the empty pattern has one occurrence, the empty map, in every text;
    # a one-element pattern has one per text element; nonempty patterns
    # have none in the empty text
    empty = antichain(0)
    for Q in (empty, chain(5), antichain(4), N_POSET):
        assert count_occurrences(empty, Q, flavor) == 1
        assert [o.assignment for o in enumerate_occurrences(empty, Q, flavor)] == [()]
        assert count_occurrences(chain(1), Q, flavor) == Q.n
        assert len(enumerate_occurrences(chain(1), Q, flavor)) == Q.n
    for P in (chain(2), antichain(2), N_POSET):
        assert count_occurrences(P, empty, flavor) == 0
        assert enumerate_occurrences(P, empty, flavor) == []


def test_counts_of_fewer_than_three_elements_match_the_rows():
    # counts of k < 3 elements are closed without a search; here they meet
    # counts taken from the text's rows: r related and i incomparable
    # ordered pairs of distinct elements, and n elements
    rng = random.Random(29)
    texts = [T for n in (40, 300, 2000) for T in
             (chain(n), antichain(n), poset_from_permutation(Permutation(rng.sample(range(1, n + 1), n))))]
    texts += [random_poset(rng, n, 0.1) for n in (40, 300, 2000)]
    for Q in texts:
        n = Q.n
        r = sum(map(int.bit_count, Q.up))
        i = n * (n - 1) - 2 * r
        for flavor in ALL_FLAVORS:
            # antichain(2) maps to ordered pairs, incomparable ones if induced, and
            # to the n equal pairs if not injective; unlabeled counts are orbits
            # under the swap, which fixes just the equal pairs
            fixed = 0 if flavor.injective else n
            pairs = (i if flavor.induced else n * (n - 1)) + fixed
            expected = {antichain(0): 1, chain(1): n, chain(2): r,
                        antichain(2): (pairs + fixed) // 2 if flavor.unlabeled else pairs}
            for P, count in expected.items():
                assert count_occurrences(P, Q, flavor) == count, (P, n, flavor)
                with pytest.raises(TimeoutError):
                    count_occurrences(P, Q, flavor, deadline=time.monotonic() - 1)


def test_enumeration_and_automorphisms_come_in_lexicographic_order(rng):
    # forward checking drops branches that hold no leaf; it must not
    # reorder the leaves of the others
    pairs = [(random_poset(rng, rng.randint(2, 4)), random_poset(rng, rng.randint(5, 9)))
             for _ in range(24)]
    pairs += [(P, random_poset(rng, 7)) for P in SYMMETRIC_PATTERNS]
    pairs = [(relabel(rng, P), relabel(rng, Q)) if i % 2 else (P, Q) for i, (P, Q) in enumerate(pairs)]
    for P, Q in pairs:
        for flavor in ALL_FLAVORS:
            maps = [o.assignment for o in enumerate_occurrences(P, Q, flavor)]
            assert all(a < b for a, b in zip(maps, maps[1:])), (P, Q, flavor)
            assert len(maps) == count_occurrences(P, Q, flavor)
        for R in (P, Q, relabel(rng, antichain(5))):
            auts = automorphism_maps(R)
            assert auts == sorted(set(auts))


def test_in_place_level_matches_oracle(rng):
    # counts loop over the third-to-last element's images in place, at the
    # root when k = 3; in non-induced searches its rows narrow both, one or
    # neither of the last two sets, and injective counts must keep the last
    # two apart where nothing else does: when they are incomparable
    seen, pairs = set(), []
    for _ in range(48):
        P = relabel(rng, random_poset(rng, rng.randint(3, 5)))
        a, b, c = (v + 1 for v in _search_order(P, False)[-3:])
        seen.add((P.n, P.comparable(a, b) + P.comparable(a, c), P.comparable(b, c)))
        pairs.append((P, relabel(rng, random_poset(rng, rng.randint(3, 6)))))
    assert {k for k, _, _ in seen} == {3, 4, 5}
    assert {narrowed for _, narrowed, _ in seen} == {0, 1, 2}
    assert {(3, 2, False), (4, 0, False), (5, 1, False)} <= seen
    # n = 60: cutoff n**3 >> 17 is 1, and in a sparse text the second-to-last
    # has both one candidate or none (popcount) and more (big-int step)
    Q = random_poset(rng, 60, 0.04)
    pairs += [(poset_from_relations(3, [(1, 2), (1, 3)]), Q), (poset_from_relations(3, [(1, 2)]), Q)]
    for P, Q in pairs:
        for flavor in ALL_FLAVORS:
            assert count_occurrences(P, Q, flavor) == len(brute_occurrences(P, Q, flavor)), (P, Q, flavor)


def test_large_text_counts_match_independent_oracles(rng):
    # n = 60-130 straddles the cutoff n**3 >> 17 (1 at n = 60, 16 at
    # n = 130) above which the last two elements' pairs are counted in one
    # big-int step, so both tail branches run; chain(k) has one labeled
    # injective occurrence per k-chain of Q, and antichain(k) has k! induced
    # ones per k-antichain
    for trial in range(6):
        n = 60 + 14 * trial
        Q = random_poset(rng, n, rng.uniform(0.02, 0.3))
        R = relabel(rng, Q)
        for k in (2, 3, 4):
            chains = count_chain_occurrences(k, Q)
            for induced in (False, True):
                flavor = OccurrenceFlavor(induced, True, False)
                assert count_occurrences(chain(k), Q, flavor) == chains, (n, k, induced)
                assert count_occurrences(chain(k), R, flavor) == chains, (n, k, induced)
        apart = {a: {b for b in range(1, n + 1) if b != a and not Q.comparable(a, b)}
                 for a in range(1, n + 1)}
        pairs = [(a, b) for a in range(1, n + 1) for b in apart[a] if a < b]
        triples = sum(1 for a, b in pairs for c in apart[a] & apart[b] if c > b)
        flavor = OccurrenceFlavor(True, True, False)
        for k, antichains in ((2, len(pairs)), (3, triples)):
            expected = antichains * factorial(k)
            assert count_occurrences(antichain(k), Q, flavor) == expected, (n, k)
            assert count_occurrences(antichain(k), R, flavor) == expected, (n, k)


def test_automorphisms_match_brute(rng):
    for _ in range(40):
        P = random_poset(rng, rng.randint(1, 6))
        assert automorphism_maps(P) == brute_automorphisms(P)
        assert count_automorphisms_bruteforce(P) == len(brute_automorphisms(P))


def test_unlabeled_injective_is_labeled_over_aut(rng):
    for _ in range(20):
        P = random_poset(rng, rng.randint(1, 5))
        Q = random_poset(rng, 6)
        auts = len(automorphism_maps(P))
        for induced in (False, True):
            labeled = count_occurrences(P, Q, OccurrenceFlavor(induced, True, False))
            unlabeled = count_occurrences(P, Q, OccurrenceFlavor(induced, True, True))
            assert labeled == unlabeled * auts


def test_induced_at_most_plain(rng):
    for _ in range(20):
        P = random_poset(rng, 3)
        Q = random_poset(rng, 5)
        for injective in (False, True):
            for unlabeled in (False, True):
                ind = count_occurrences(P, Q, OccurrenceFlavor(True, injective, unlabeled))
                plain = count_occurrences(P, Q, OccurrenceFlavor(False, injective, unlabeled))
                assert ind <= plain


def test_match_examples():
    assert match_permutation(Permutation([1, 2]), Permutation([2, 3, 1]), True) == 1
    assert match_permutation(Permutation([1]), Permutation([4, 1, 3, 2]), True) == 4
    assert match_permutation(Permutation([1, 2, 3]), Permutation([1, 2, 3, 4]), True) == 4
    assert match_permutation(Permutation([1, 2, 3]), Permutation([1, 2]), True) == 0


def test_match_counts_poset_isomorphic_index_sets():
    # (2,3,1) and (3,1,2) present the same poset (one edge plus an isolated
    # element), so both kinds of index set count as matches.
    sigma_p = Permutation([2, 3, 1])
    sigma_q = Permutation([3, 1, 2, 6, 5, 4])
    assert match_permutation(sigma_p, sigma_q, True) == 1
    flavor = OccurrenceFlavor(True, True, True)
    P = poset_from_permutation(sigma_p)
    Q = poset_from_permutation(sigma_q)
    assert count_occurrences(P, Q, flavor) == 1


def test_match_agrees_with_occurrences(rng):
    patterns = [Permutation(p) for k in (2, 3) for p in itertools.permutations(range(1, k + 1))]
    for _ in range(15):
        img = list(range(1, 7))
        rng.shuffle(img)
        sigma_q = Permutation(img)
        Q = poset_from_permutation(sigma_q)
        for sigma_p in patterns:
            P = poset_from_permutation(sigma_p)
            for induced in (True, False):
                expected = count_occurrences(P, Q, OccurrenceFlavor(induced, True, True))
                assert match_permutation(sigma_p, sigma_q, induced) == expected
            # index sets of Q some ordering of which is an induced occurrence
            flavor = OccurrenceFlavor(induced=True, injective=True)
            scan = sum(
                1 for index_set in itertools.combinations(range(1, 7), P.n)
                if any(is_occurrence(order, P, Q, flavor)
                       for order in itertools.permutations(index_set))
            )
            assert match_permutation(sigma_p, sigma_q, True) == scan


def test_multi_level_induced_matches_agree_with_an_index_set_scan(rng):
    # k = 5 and 6 place two or three elements before the third-to-last, so
    # its images recur from node to node and, in texts of n <= 50, are
    # counted on their pair tables; the scan counts the index sets I of tau
    # whose pattern presents a poset isomorphic to D(sigma)
    def simple(img):
        n = len(img)
        return not any(max(img[a:b]) - min(img[a:b]) == b - a - 1
                       for a in range(n) for b in range(a + 2, n + 1) if b - a < n)

    patterns = [img for img in itertools.permutations(range(1, 6)) if simple(img)]
    assert len(patterns) == 6
    while len(patterns) < 8:
        if simple(img := tuple(rng.sample(range(1, 7), 6))):
            patterns.append(img)
    codes = {}

    def code(img):
        if img not in codes:
            codes[img] = canonical_code(Permutation(img))
        return codes[img]

    total = 0
    for n in (14, 15, 16):
        tau = rng.sample(range(1, n + 1), n)
        Q = poset_from_permutation(Permutation(tau))
        shapes = {k: Counter(tuple(sorted(values).index(v) + 1 for v in values)
                             for values in itertools.combinations(tau, k)) for k in (5, 6)}
        for sigma in patterns:
            expected = sum(m for img, m in shapes[len(sigma)].items() if code(img) == code(sigma))
            assert match_permutation(Permutation(sigma), Permutation(tau), True) == expected, (sigma, tau)
            total += expected
            P = poset_from_permutation(Permutation(sigma))
            unlabeled = count_occurrences(P, Q, OccurrenceFlavor(False, True, True))
            labeled = count_occurrences(P, Q, OccurrenceFlavor(False, True, False))
            assert unlabeled * len(automorphism_maps(P)) == labeled, (sigma, tau)
    assert total > 0


def test_chain_occurrences_examples(rng):
    assert count_chain_occurrences(1, antichain(5)) == 5
    with pytest.raises(RangeError, match="chain length must be >= 1"):
        count_chain_occurrences(0, chain(3))
    Q = random_poset(rng, 7)
    assert count_chain_occurrences(2, Q) == len(Q.relations())


def test_chain_longer_than_text_is_counted_without_rounds(monkeypatch):
    # a k-chain has k distinct elements: k > |Q| gives 0 before any DP round
    calls, walk = [], occur._bits
    monkeypatch.setattr(occur, "_bits", lambda row: calls.append(row) or walk(row))
    assert count_chain_occurrences(1000, antichain(3)) == 0
    assert calls == []
    for n in (1, 2, 5):
        assert count_chain_occurrences(n, chain(n)) == 1
        assert count_chain_occurrences(n + 1, chain(n)) == 0


def test_chain_longer_than_height_stops_at_the_first_empty_round(monkeypatch):
    # height(Q) < k <= |Q|: the first round whose counts are all 0 ends the DP
    start = time.monotonic()
    assert count_chain_occurrences(1000, antichain(2000)) == 0
    assert time.monotonic() - start < 0.1
    rounds, walk = [], occur._bits
    monkeypatch.setattr(occur, "_bits", lambda row: rounds.append(row) or walk(row))
    Q = poset_from_relations(6, [(1, 2), (2, 3), (4, 5)])
    assert count_chain_occurrences(6, Q) == 0
    assert len(rounds) == 3 * Q.n
    assert count_chain_occurrences(3, Q) == 1


def test_chain_occurrences_against_subset_scan(rng):
    for _ in range(15):
        Q = random_poset(rng, 7)
        for k in (1, 2, 3):
            brute = sum(
                1 for sub in itertools.combinations(range(1, 8), k)
                if all(Q.comparable(a, b) for a, b in itertools.combinations(sub, 2))
            )
            assert count_chain_occurrences(k, Q) == brute


def test_chain_occurrences_equal_injective_counts(rng):
    for _ in range(10):
        Q = random_poset(rng, 6)
        for k in (1, 2, 3):
            flavor = OccurrenceFlavor(induced=False, injective=True)
            assert count_chain_occurrences(k, Q) == count_occurrences(chain(k), Q, flavor)


def test_occurrences_in_chain_examples():
    assert count_occurrences_in_chain(chain(2), 3) == 3
    assert count_occurrences_in_chain(antichain(2), 2) == 2
    assert count_occurrences_in_chain(N_POSET, 6) == 5 * comb(6, 4)
    with pytest.raises(SizeError):
        count_occurrences_in_chain(chain(3), 2)


def test_occurrences_in_chain_against_engine(rng):
    for _ in range(15):
        P = random_poset(rng, rng.randint(1, 5))
        q = rng.randint(P.n, 8)
        flavor = OccurrenceFlavor(induced=False, injective=True)
        assert count_occurrences_in_chain(P, q) == count_occurrences(P, chain(q), flavor)


def test_chain_texts_recover_extension_counts_by_binomial_inversion():
    # labeled non-induced non-injective counts in chain(q) are the strict
    # order polynomial sum_j s_j * C(q, j), whose top coefficient s_k is
    # e(P), so the k-th difference of the counts at q = 0..k is e(P)
    rng = random.Random(909)
    for _ in range(200):
        P = relabel(rng, random_poset(rng, rng.randint(0, 6)))
        k = P.n
        counts = [count_occurrences(P, chain(q), OccurrenceFlavor()) for q in range(k + 1)]
        assert sum((-1) ** (k - q) * comb(k, q) * c for q, c in enumerate(counts)) == count_le_bruteforce(P), P
