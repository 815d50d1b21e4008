import itertools
import random

import pytest

from posetmatch import (
    OccurrenceFlavor,
    OccurrenceMap,
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
from posetmatch.decomp import dilworth, gallai_tree, quotient
from posetmatch.errors import CycleError, FormatError, RangeError
from posetmatch.lecount import downset_lattice, inflate, lattice_as_poset
from posetmatch.occur import _cycle_leaders, _fold_cycles, automorphism_maps

from conftest import poset_classes, random_poset, reference_closure, relabel


def test_closure_adds_transitive_pair():
    P = poset_from_relations(3, [(1, 2), (2, 3)])
    assert P.less(1, 3)
    assert P == chain(3)


def test_empty_relation_is_antichain():
    assert poset_from_relations(4, []) == antichain(4)


def test_two_cycle_raises():
    with pytest.raises(CycleError, match=r"^closure creates a cycle through 1$"):
        poset_from_relations(2, [(1, 2), (2, 1)])


def test_long_cycle_raises():
    with pytest.raises(CycleError, match=r"^closure creates a cycle through 1$"):
        poset_from_relations(4, [(1, 2), (2, 3), (3, 1)])


def test_out_of_range_raises():
    with pytest.raises(RangeError):
        poset_from_relations(3, [(1, 4)])


def test_pair_errors_come_in_pair_order():
    for n, pairs, error, message in [
            (3, [(1, 4)], RangeError, "relation (1, 4) outside 1..3"),
            (3, [(0, 2), (2, 2)], RangeError, "relation (0, 2) outside 1..3"),
            (3, [(1, 2), (2, 2), (5, 1)], CycleError, "reflexive pair (2, 2)"),
            (3, [(2, 1), (1, 2), (3, 3)], CycleError, "reflexive pair (3, 3)"),
            (0, [(1, 1)], RangeError, "relation (1, 1) outside 1..0")]:
        with pytest.raises(error) as info:
            poset_from_relations(n, pairs)
        assert str(info.value) == message, pairs


def closure_inputs():
    """Seeded pair lists for the closure: natural and shuffled labels, in
    shuffled order, with repeated and transitively redundant pairs; every
    third has one or two implied pairs reversed, closing cycles, and up to
    three pairs drawn in either direction, which may join cycles by paths."""
    rng = random.Random(30)
    yield 3, [(1, 2), (2, 3), (3, 2)]
    yield 5, [(1, 2), (2, 4), (4, 3), (3, 5), (5, 4)]
    for i in range(600):
        n = rng.choice([rng.randint(1, 12), rng.randint(13, 90)])
        prob = rng.choice([0.05, 0.2, rng.random()])
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < prob]
        rows = reference_closure(n, pairs)
        implied = [(a + 1, b + 1) for a, row in enumerate(rows) for b in range(n) if row >> b & 1]
        pairs += rng.sample(pairs, len(pairs) // 3) + rng.sample(implied, len(implied) // 4)
        if i % 3 == 2:
            pairs += [(b, a) for a, b in rng.sample(implied, min(len(implied), rng.randint(1, 2)))]
            pairs += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3) if n > 1 else 0)]
        if i % 2:
            perm = rng.sample(range(1, n + 1), n)
            pairs = [(perm[a - 1], perm[b - 1]) for a, b in pairs]
        rng.shuffle(pairs)
        yield n, pairs


def test_closure_matches_warshall_reference():
    # the up rows, the down rows as their transpose, and the cycle's least
    # element, which may only reach the cycle through smaller ones
    cycles = 0
    for n, pairs in closure_inputs():
        want = reference_closure(n, pairs)
        if isinstance(want, int):
            cycles += 1
            with pytest.raises(CycleError) as info:
                poset_from_relations(n, pairs)
            assert str(info.value) == "closure creates a cycle through %d" % want, (n, pairs)
            continue
        P = poset_from_relations(n, pairs)
        assert P.up == want, (n, pairs)
        assert P.down == tuple(sum(1 << i for i in range(n) if want[i] >> j & 1) for j in range(n)), (n, pairs)
    assert cycles >= 150
    with pytest.raises(CycleError, match=r"^closure creates a cycle through 2$"):
        poset_from_relations(3, [(1, 2), (2, 3), (3, 2)])


def test_identity_permutation_gives_chain():
    for n in range(1, 8):
        assert poset_from_permutation(Permutation(range(1, n + 1))) == chain(n)


def test_reversal_gives_antichain():
    for n in range(1, 8):
        assert poset_from_permutation(Permutation(range(n, 0, -1))) == antichain(n)


def test_231_single_relation():
    P = poset_from_permutation(Permutation([2, 3, 1]))
    assert P.relations() == [(1, 2)]
    assert repr(P) == "Poset(n=3, relations=[(1, 2)])"


def test_d_sigma_rows_match_pairwise_definition(rng):
    for n in [1, 2, 60] + [rng.randint(1, 60) for _ in range(20)]:
        img = list(range(1, n + 1))
        rng.shuffle(img)
        P = poset_from_permutation(Permutation(img))
        assert P.up == tuple(sum(1 << j for j in range(i + 1, n) if img[i] < img[j]) for i in range(n))
        assert P.down == tuple(sum(1 << i for i in range(j) if img[i] < img[j]) for j in range(n))


def test_d_sigma_is_a_valid_poset():
    # every permutation with n <= 7, 5,914 in all
    for n in range(8):
        for img in itertools.permutations(range(1, n + 1)):
            P = poset_from_permutation(Permutation(img))
            for a in range(1, n + 1):
                assert not P.less(a, a), img
                for b in range(1, n + 1):
                    assert not (P.less(a, b) and P.less(b, a)), img
                    for c in range(1, n + 1):
                        if P.less(a, b) and P.less(b, c):
                            assert P.less(a, c), img


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


def seeded_posets(count=60):
    """The same random posets on 1..9 elements for every caller, every
    other one relabeled."""
    rng = random.Random(0xB10C)
    for i in range(count):
        P = random_poset(rng, rng.randint(1, 9))
        yield relabel(rng, P) if i % 2 else P


def cycles_of(g):
    """The cycles of the permutation g (images of 1..n), each listed from
    its least element, in order of those."""
    cycles, seen = [], set()
    for v in range(1, len(g) + 1):
        if v not in seen:
            cycle = [v]
            while g[cycle[-1] - 1] != v:
                cycle.append(g[cycle[-1] - 1])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def blockwise(P, blocks):
    """The poset on the blocks by definition: block A lies below block B
    iff some a in A precedes some b in B."""
    return poset_from_relations(len(blocks), [
        (i, j) for i, A in enumerate(blocks, 1) for j, B in enumerate(blocks, 1)
        if i != j and any(P.less(a, b) for a in A for b in B)])


def assert_rows_transposed(P):
    assert len(P.up) == len(P.down) == P.n, P
    assert all(row >> P.n == 0 for row in P.up + P.down), P
    assert all(P.up[i] >> j & 1 == P.down[j] >> i & 1 for i in range(P.n) for j in range(P.n)), P


def test_every_constructor_hands_poset_transposed_rows(rng):
    for n in range(6):
        assert_rows_transposed(chain(n))
        assert_rows_transposed(antichain(n))
    for P in seeded_posets():
        tree = gallai_tree(P)
        built = [P, poset_from_permutation(Permutation(rng.sample(range(1, P.n + 1), P.n))),
                 restrict(P, rng.sample(range(1, P.n + 1), rng.randint(0, P.n))),
                 inflate(P, [rng.randint(1, 3) for _ in range(P.n)]),
                 lattice_as_poset(downset_lattice(P, dilworth(P)))]
        if tree.children:
            built.append(quotient(P, [child.elements for child in tree.children]))
        built += [node.quotient for node in tree.nodes() if node.kind == "prime"]
        for g in automorphism_maps(P):
            built += [fold for induced in (False, True)
                      if (fold := _fold_cycles(P, _cycle_leaders(g), induced)) is not None]
        for Q in built:
            assert_rows_transposed(Q)


def test_quotients_and_folds_match_the_block_definition():
    # a node's children and the singletons outside it are modules of P;
    # non-induced folds take every automorphism, whose cycles need not be
    # modules, so that a rule reading one member per block is caught
    rows = lambda Q: (Q.n, Q.up, Q.down)
    for P in seeded_posets():
        for node in gallai_tree(P).nodes():
            blocks = [child.elements for child in node.children]
            blocks += [(x,) for x in range(1, P.n + 1) if x not in node.elements]
            if node.children:
                assert rows(quotient(P, blocks)) == rows(blockwise(P, blocks)), (P, blocks)
        for g in automorphism_maps(P):
            want = blockwise(P, cycles_of(g))
            assert rows(_fold_cycles(P, _cycle_leaders(g), False)) == rows(want), (P, g)


def test_is_occurrence_examples():
    flavors = [OccurrenceFlavor(i, j, u) for i in (0, 1) for j in (0, 1) for u in (0, 1)]
    for flavor in flavors:
        assert is_occurrence((1, 2, 3), chain(3), chain(3), flavor)
    non_inj = OccurrenceFlavor(induced=False, injective=False)
    assert is_occurrence((1, 1), antichain(2), chain(2), non_inj)
    assert not is_occurrence((1, 1), chain(2), chain(2), non_inj)
    occurrence = OccurrenceMap((1, 1))
    assert len(occurrence) == antichain(2).n and is_occurrence(occurrence, antichain(2), chain(2), non_inj)


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


def test_cover_pairs_match_the_definition():
    # b covers a iff a < b and no c has a < c < b, listed by a, then b
    rng = random.Random(31)
    posets = [P for n in range(6) for P in poset_classes(n)]
    posets += [relabel(rng, P) for P in posets]
    for _ in range(40):
        n = rng.randint(1, 60)
        P = random_poset(rng, n, rng.choice([0.05, 0.2, 0.5]))
        posets += [P, relabel(rng, P), poset_from_permutation(Permutation(rng.sample(range(1, n + 1), n)))]
    for P in posets:
        want = [(a, b) for a in range(1, P.n + 1) for b in range(1, P.n + 1)
                if P.less(a, b) and not P.up[a - 1] & P.down[b - 1]]
        assert P.cover_pairs() == want, P


def test_poset_parser_accepts_comments_and_errors():
    P = parse_poset("# a chain\np 3\nr 1 2\nr 2 3\n")
    assert P == chain(3)
    for bad in ["", "r 1 2", "p 3\nq 1", "p x", "p 3\nr 1", "p 3\np 3"]:
        with pytest.raises(FormatError):
            parse_poset(bad)


def test_poset_parser_counts_blank_and_comment_lines():
    with pytest.raises(FormatError, match=r"^line 5: unknown directive 'q'$"):
        parse_poset("# header\n\np 3\n  # indented\nq 1 2\n")


def test_permutation_roundtrip_and_errors():
    sigma = Permutation([3, 1, 2])
    assert parse_permutation(format_permutation(sigma)) == sigma
    assert hash(Permutation((3, 1, 2))) == hash(sigma)
    assert len({sigma, Permutation([3, 1, 2]), Permutation([1, 2, 3])}) == 2
    assert repr(sigma) == "Permutation((3, 1, 2))"
    for bad in ["", "1 1", "1 3", "a b"]:
        with pytest.raises(FormatError):
            parse_permutation(bad)
