"""Tests for down-set lattices, extension counting, and canonical codes."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from posetmatch import (
    Permutation,
    antichain,
    canonical_code,
    chain,
    count_automorphisms_dim2,
    count_le_downset_dp,
    count_linear_extensions,
    dilworth,
    downset_lattice,
    gallai_tree,
    inflate,
    lattice_as_poset,
    poset_from_permutation,
    poset_from_relations,
    restrict,
    width,
)
from posetmatch.errors import MemoryBudgetError, RangeError, SizeLimitError
from posetmatch.lecount import DEFAULT_NODE_BUDGET, _sweep, count_automorphisms_bruteforce, count_le_bruteforce

from posetmatch import core, lecount

from conftest import poset_classes, random_poset, relabel


def brute_downsets(P):
    """All down-sets of P by subset scan."""
    out = []
    for bits in range(1 << P.n):
        S = {i + 1 for i in range(P.n) if bits >> i & 1}
        if all(y in S for x in S for y in range(1, P.n + 1) if P.less(y, x)):
            out.append(frozenset(S))
    return out


def key_to_set(key, chains):
    return frozenset(x for chain_, k in zip(chains, key) for x in chain_[:k])


# --- down-set lattice -------------------------------------------------------

def test_lattice_chain():
    P = chain(4)
    lat = downset_lattice(P, dilworth(P))
    assert len(lat.nodes) == 5
    assert lat.empty_key != lat.full_key


def test_lattice_antichain():
    P = antichain(3)
    lat = downset_lattice(P, dilworth(P))
    assert len(lat.nodes) == 8


def test_lattice_matches_brute(rng):
    for _ in range(20):
        P = random_poset(rng, rng.randint(1, 7))
        for R in (P, relabel(rng, P)):
            lat = downset_lattice(R, dilworth(R))
            chains = lat.chain_assignment.chains
            got = {key_to_set(k, chains) for k in lat.nodes}
            assert got == set(brute_downsets(R))
            assert len(got) == len(lat.nodes)


def test_lattice_predecessors_drop_one_element(rng):
    for _ in range(10):
        P = random_poset(rng, rng.randint(0, 7))
        for R in (P, relabel(rng, P)):
            lat = downset_lattice(R, dilworth(R))
            chains = lat.chain_assignment.chains
            keys = {key_to_set(key, chains): key for key in lat.nodes}
            for key, preds in lat.nodes.items():
                S = key_to_set(key, chains)
                for prev in preds:
                    T = key_to_set(prev, chains)
                    assert len(S - T) == 1 and T < S
                maximal = [x for x in S if not any(R.less(x, y) for y in S)]
                assert preds == sorted(keys[S - {x}] for x in maximal)


def test_lattice_as_poset_is_containment(rng):
    P = random_poset(rng, 5)
    lat = downset_lattice(P, dilworth(P))
    L = lattice_as_poset(lat)
    assert L.n == len(lat.nodes)
    chains = lat.chain_assignment.chains
    keys = sorted(lat.nodes, key=lambda key: (sum(key), key))
    sets = [key_to_set(k, chains) for k in keys]
    for i in range(L.n):
        for j in range(L.n):
            assert L.less(i + 1, j + 1) == (sets[i] < sets[j])


# --- counting engines -------------------------------------------------------

def test_le_chain_is_one():
    assert count_le_downset_dp(chain(7)) == 1
    assert count_linear_extensions(chain(7)) == 1


def test_le_antichain_is_factorial():
    assert count_le_downset_dp(antichain(4)) == 24
    assert count_linear_extensions(antichain(4)) == 24


def test_le_n_poset():
    # 1<3, 2<3, 2<4 has exactly 5 linear extensions
    P = poset_from_relations(4, [(1, 3), (2, 3), (2, 4)])
    assert count_le_downset_dp(P) == 5
    assert count_linear_extensions(P) == 5
    assert count_le_bruteforce(P) == 5


def test_le_engines_agree(rng):
    for _ in range(40):
        P = random_poset(rng, rng.randint(1, 8))
        expected = count_le_bruteforce(P)
        for R in (P, relabel(rng, P)):
            assert count_le_downset_dp(R) == expected
            assert count_linear_extensions(R) == expected


def test_le_engines_agree_on_every_poset_class_up_to_five_elements():
    # the 1, 1, 2, 5, 16 and 63 classes on 0-5 elements
    assert len(poset_classes(5)) == 63
    for P in (P for n in range(6) for P in poset_classes(n)):
        expected = count_le_bruteforce(P)
        assert count_le_downset_dp(P) == expected, P
        assert count_linear_extensions(P) == expected, P


def test_le_disjoint_chains_closed_form():
    # two chains of sizes a and b have C(a+b, a) extensions
    for a in range(1, 7):
        for b in range(1, 7):
            P = poset_from_relations(
                a + b,
                [(i, i + 1) for i in range(1, a)]
                + [(a + i, a + i + 1) for i in range(1, b)],
            )
            assert count_le_downset_dp(P) == math.comb(a + b, a)


def test_le_brute_budget():
    # both oracles refuse more than nine elements, with the same message
    for oracle in (count_le_bruteforce, count_automorphisms_bruteforce):
        with pytest.raises(SizeLimitError, match=r"^\|P\| = 10 exceeds oracle budget 9$"):
            oracle(antichain(10))


def test_le_memory_budget():
    with pytest.raises(MemoryBudgetError):
        count_le_downset_dp(antichain(30))


def test_levels_hold_the_extension_count_of_every_downset(rng):
    # every down-set is its part off the row chain plus a row prefix t in
    # [L, U], met once, with e(D) in lane t - L and no lane past U
    posets = [antichain(0), chain(1), chain(6)] + [random_poset(rng, rng.randint(0, 7)) for _ in range(40)]
    for P in posets:
        for R in (P, relabel(rng, P)):
            prefix, W, levels = _sweep(R, dilworth(R).chains)
            seen = []
            for size, level in enumerate(levels):
                for off, (L, U, row) in level.items():
                    assert off.bit_count() == size and not off & prefix[-1] and L <= U
                    assert row >> (U - L + 1) * W == 0
                    for t in range(L, U + 1):
                        D = off | prefix[t]
                        e = row >> (t - L) * W & (1 << W) - 1
                        assert e == count_le_bruteforce(restrict(R, [x + 1 for x in range(R.n) if D >> x & 1]))
                        seen.append(D)
            expected = sorted(sum(1 << (x - 1) for x in S) for S in brute_downsets(R))
            assert sorted(seen) == expected


def _projected(P):
    return math.prod(len(c) + 1 for c in dilworth(P).chains)


def test_le_downset_budget_counts_real_downsets():
    # a random D(sigma) with n = 40 has about 13,000 down-sets against a
    # projected 3.2 million, so the sweep fits the default budget
    rng = random.Random("dsigma40/5")
    img = list(range(1, 41))
    rng.shuffle(img)
    P = poset_from_permutation(Permutation(img))
    assert _projected(P) > DEFAULT_NODE_BUDGET
    assert count_le_downset_dp(P) == count_linear_extensions(P)


def test_le_downset_budget_stops_the_sweep():
    # 2^width fits the budget, the real down-sets pass it
    P = poset_from_relations(53, [(i, i + 1) for i in range(4, 53)])  # antichain(3) beside chain(50)
    assert 2 ** width(P) <= 100 < len(downset_lattice(P, dilworth(P)).nodes) <= _projected(P)
    with pytest.raises(MemoryBudgetError, match=r"^down-sets over 4 chains exceed node budget 100$"):
        count_le_downset_dp(P, node_budget=100)


def test_le_downset_budget_between_real_and_projected():
    # antichain(3) beside a ladder a_1 < ... < a_30, b_1 < ... < b_30, a_i < b_i:
    # 8 * 496 down-sets, far fewer than the projected count
    n, rungs = 63, 30
    pairs = [(i, i + 1) for i in range(4, 3 + rungs)] + [(i, i + 1) for i in range(4 + rungs, n)]
    P = poset_from_relations(n, pairs + [(3 + i, 3 + rungs + i) for i in range(1, rungs + 1)])
    real = len(downset_lattice(P, dilworth(P)).nodes)
    assert real == 8 * 496 and 2 ** width(P) < real < _projected(P)
    expected = math.comb(n, 3) * 6 * count_linear_extensions(restrict(P, range(4, n + 1)))
    assert count_le_downset_dp(P, node_budget=real) == expected
    with pytest.raises(MemoryBudgetError, match=r"^down-sets over 5 chains exceed node budget %d$" % (real - 1)):
        count_le_downset_dp(P, node_budget=real - 1)
    with pytest.raises(MemoryBudgetError, match=r"^2\^5 down-sets over 5 chains exceed node budget 31$"):
        count_le_downset_dp(P, node_budget=31)


def band_prime(rng, k, length):
    """k chains of length on shuffled labels, element i of each below element
    i + 2 + U(0, 1) of every other: the extensions workload's width-k primes."""
    labels = list(range(1, k * length + 1))
    rng.shuffle(labels)
    chains = [labels[c * length:(c + 1) * length] for c in range(k)]
    pairs = [p for c in chains for p in zip(c, c[1:])]
    for a in chains:
        for b in chains:
            for i in range(length):
                j = i + 2 + rng.randint(0, 1)
                if a is not b and j < length:
                    pairs.append((a[i], b[j]))
    return poset_from_relations(k * length, pairs)


def test_le_downset_budget_is_exact_on_band_primes():
    # a budget of exactly the down-sets met passes, one less is refused, for
    # the sweep on P and for the recursion's sweep on the inflated quotient
    for seed in range(4):
        P = band_prime(random.Random("band/%d" % seed), 5, 8)
        tree = gallai_tree(P)
        assert tree.kind == "prime" and [node.kind for node in tree.nodes()].count("prime") == 1
        Q = inflate(tree.quotient, [len(c.elements) for c in tree.children])
        expected = count_le_downset_dp(P)
        for engine, R in ((count_le_downset_dp, P), (count_linear_extensions, Q)):
            real = len(downset_lattice(R, dilworth(R)).nodes)
            assert 2 ** width(R) < real
            assert engine(P, node_budget=real) == expected
            over = r"^down-sets over %d chains exceed node budget %d$" % (width(R), real - 1)
            with pytest.raises(MemoryBudgetError, match=over):
                engine(P, node_budget=real - 1)


def test_leaf_only_primes_are_swept_as_is(monkeypatch):
    # restrict of every element is P itself, so a prime whose children are
    # all leaves builds no quotient and inflates nothing
    calls = []
    for module, name in ((lecount, "inflate"), (core, "_collapse")):
        monkeypatch.setattr(module, name, lambda *args, f=getattr(module, name): calls.append(f) or f(*args))
    for P in (band_prime(random.Random("band/0"), 5, 8), poset_from_permutation(Permutation([2, 4, 1, 3]))):
        tree = gallai_tree(P)
        assert tree.kind == "prime" and all(child.kind == "leaf" for child in tree.children)
        assert count_linear_extensions(P) == count_le_downset_dp(P)
        assert calls == []
        whole = restrict(P, range(1, P.n + 1))
        assert whole == P and whole is P


def test_lanes_hold_the_full_count(rng):
    # disjoint chains have the multinomial of their sizes as e(P), the very
    # bound the lane width is drawn from
    shapes = [[12] * 3, [12] * 4, [12] * 5, [8] * 6]
    while len(shapes) < 16:
        sizes = [rng.randint(1, 12) for _ in range(rng.randint(3, 6))]
        if math.prod(s + 1 for s in sizes) <= 200_000:
            shapes.append(sizes)
    # rows at the switch from one multiply by the all-ones lanes to the byte
    # scan, which comes at 4096 // W lanes: 256 lanes at W = 16 for (1, b),
    # and 170 at W = 24 for (3, b); a row has b + 1 lanes
    shapes += [[1, 255], [1, 256], [1, 257], [3, 169], [3, 170], [3, 171]]
    for sizes in shapes:
        ends = list(itertools.accumulate(sizes))
        P = poset_from_relations(ends[-1], [(x, x + 1) for x in range(1, ends[-1]) if x not in ends])
        expected = math.factorial(ends[-1]) // math.prod(map(math.factorial, sizes))
        assert count_le_downset_dp(P) == count_le_downset_dp(relabel(rng, P)) == expected


def test_long_rows_take_the_linear_scan():
    # rows of thousands of lanes.  N and D(2413) are the same poset, and N
    # inflated by m has sum over i of C(m - 1 + i, i) C(3m - i, m) extensions:
    # a's and b's up to the last b, i a's among them, then the other a's
    # before every c, and the d's anywhere after the last b
    m = 300
    closed = sum(math.comb(m - 1 + i, i) * math.comb(3 * m - i, m) for i in range(m + 1))
    N = poset_from_relations(4, [(1, 3), (2, 3), (2, 4)])
    X = poset_from_permutation(Permutation([2, 4, 1, 3]))
    for P, expected in ((chain(2000), 1), (inflate(N, [m] * 4), closed), (inflate(X, [m] * 4), closed)):
        start = time.monotonic()
        assert count_le_downset_dp(P) == count_linear_extensions(P) == expected
        assert time.monotonic() - start < 2


def test_le_negative_budget_is_refused():
    # 1 < 2 beside 3 has no prime node, the N poset is prime
    N = poset_from_relations(4, [(1, 3), (2, 3), (2, 4)])
    assert gallai_tree(N).kind == "prime"
    for P in (poset_from_relations(3, [(1, 2)]), N):
        for engine in (count_le_downset_dp, count_linear_extensions):
            with pytest.raises(RangeError, match=r"^node budget must be >= 0, got -1$"):
                engine(P, node_budget=-1)


def test_le_recurse_handles_wide_antichain():
    # the recursive engine sees a parallel node, no lattice needed
    assert count_linear_extensions(antichain(12)) == math.factorial(12)


# --- inflate ----------------------------------------------------------------

def test_inflate_chain_of_chains():
    Q = inflate(chain(2), [2, 3])
    assert Q.n == 5
    assert Q.relations() == chain(5).relations()


def test_inflate_identity():
    P = poset_from_relations(4, [(1, 3), (2, 3), (2, 4)])
    Q = inflate(P, [1, 1, 1, 1])
    assert Q.relations() == P.relations()


def test_inflate_antichain_blocks():
    Q = inflate(antichain(2), [2, 2])
    # two disjoint 2-chains
    assert sorted(Q.relations()) == [(1, 2), (3, 4)]


def test_inflate_rejects_bad_sizes():
    with pytest.raises(RangeError, match="3 chain sizes for a 2-element quotient"):
        inflate(chain(2), [2, 3, 4])
    with pytest.raises(RangeError, match="1 chain sizes for a 3-element quotient"):
        inflate(chain(3), [2])
    for sizes in ([0, 1], [1, -2]):
        with pytest.raises(RangeError, match="chain size -?[0-9]+ is below 1"):
            inflate(chain(2), sizes)
    with pytest.raises(RangeError, match="chain size 0 is below 1"):
        inflate(chain(3), [1, 0, 1])


def test_inflate_checks_lengths_under_optimize():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("from posetmatch import chain, inflate\n"
              "from posetmatch.errors import RangeError\n"
              "try:\n    inflate(chain(2), [2, 3, 4])\n"
              "except RangeError as e:\n    print(e)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "3 chain sizes for a 2-element quotient\n"


def closure_inflate(quotient, sizes):
    """inflate by definition: chains linked end to start, then closed."""
    offsets = list(itertools.accumulate(sizes, initial=0))
    pairs = [(offsets[i] + t, offsets[i] + t + 1) for i in range(quotient.n) for t in range(1, sizes[i])]
    pairs += [(offsets[a], offsets[b - 1] + 1) for a, b in quotient.relations()]
    return poset_from_relations(offsets[-1], pairs)


def test_inflate_matches_closure(rng):
    for _ in range(60):
        P = random_poset(rng, rng.randint(0, 8))
        for R in (P, relabel(rng, P)):
            sizes = [rng.randint(1, 4) for _ in range(R.n)]
            got, want = inflate(R, sizes), closure_inflate(R, sizes)
            assert (got.n, got.up, got.down) == (want.n, want.up, want.down)


def test_inflate_keeps_width(rng):
    for _ in range(10):
        P = random_poset(rng, rng.randint(2, 5))
        sizes = [rng.randint(1, 3) for _ in range(P.n)]
        assert width(inflate(P, sizes)) == width(P)


def test_inflate_le_consistency(rng):
    for _ in range(8):
        P = random_poset(rng, rng.randint(1, 4))
        sizes = [rng.randint(1, 2) for _ in range(P.n)]
        Q = inflate(P, sizes)
        if Q.n <= 8:
            assert count_le_downset_dp(Q) == count_le_bruteforce(Q)


# --- canonical codes --------------------------------------------------------

def code(seq):
    return canonical_code(Permutation(seq))


def test_code_identifies_isomorphic_patterns():
    # D(2,3,1) and D(3,1,2) are both a 2-chain plus an isolated point
    assert code((2, 3, 1)) == code((3, 1, 2))


def test_code_distinguishes():
    assert code((1, 2)) != code((2, 1))
    assert code((1, 2, 3)) != code((2, 3, 1))
    # D() has no Gallai tree, so its code is fixed apart from the fold
    assert code(()) not in {code(s) for n in range(1, 4) for s in itertools.permutations(range(1, n + 1))}


def test_code_iff_isomorphic_small():
    def iso(a, b):
        P = poset_from_permutation(Permutation(a))
        Q = poset_from_permutation(Permutation(b))
        return any(
            all(
                P.less(i + 1, j + 1) == Q.less(f[i], f[j])
                for i in range(P.n)
                for j in range(P.n)
            )
            for f in itertools.permutations(range(1, P.n + 1))
        )

    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for a in perms:
            for b in perms:
                same = code(a) == code(b)
                assert same == iso(a, b), (a, b)


def test_code_is_orderable():
    codes = [code(s) for s in itertools.permutations((1, 2, 3))]
    assert sorted(codes)[0] == min(codes)


# --- automorphisms ----------------------------------------------------------

def test_auts_examples():
    assert count_automorphisms_dim2(Permutation((1,))) == 1
    assert count_automorphisms_dim2(Permutation((1, 2, 3))) == 1
    assert count_automorphisms_dim2(Permutation((3, 2, 1))) == 6
    assert count_automorphisms_dim2(Permutation((2, 1, 3))) == 2
    # 2413 is prime but rigid: every element has a distinct degree pair
    assert count_automorphisms_dim2(Permutation((2, 4, 1, 3))) == 1
    # two disjoint 2-chains can be swapped
    assert count_automorphisms_dim2(Permutation((3, 4, 1, 2))) == 2


def test_auts_match_brute(rng):
    for n in range(6):
        for sigma in itertools.permutations(range(1, n + 1)):
            perm = Permutation(sigma)
            P = poset_from_permutation(perm)
            assert count_automorphisms_dim2(perm) == \
                count_automorphisms_bruteforce(P), sigma
