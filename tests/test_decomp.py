import functools
import itertools
import operator

import pytest

from posetmatch import (
    Permutation,
    antichain,
    chain,
    dilworth,
    gallai_tree,
    intrinsic_width,
    is_module,
    poset_from_permutation,
    poset_from_relations,
    quotient,
    restrict,
    width,
)
from posetmatch.decomp import reconstruct, tree_to_sexpr
from posetmatch.errors import NotAModuleError, RangeError

from conftest import pairwise_gallai, random_poset, relabel
from posetmatch import decomp


def brute_modules(P):
    found = []
    for r in range(1, P.n + 1):
        for sub in itertools.combinations(range(1, P.n + 1), r):
            if is_module(P, sub):
                found.append(frozenset(sub))
    return found


def brute_width(P):
    best = 1
    for r in range(1, P.n + 1):
        for sub in itertools.combinations(range(1, P.n + 1), r):
            if all(not P.comparable(a, b) for a, b in itertools.combinations(sub, 2)):
                best = max(best, r)
    return best


def test_is_module_examples(rng):
    P = random_poset(rng, 6)
    for x in range(1, 7):
        assert is_module(P, {x})
    assert is_module(P, set(range(1, 7)))
    Q = poset_from_permutation(Permutation([2, 3, 1]))
    assert not is_module(Q, {2, 3})
    with pytest.raises(RangeError):
        is_module(Q, {0})


def test_is_module_matches_its_definition(rng):
    # every element outside T lies above all of T, below all of T or apart
    # from all of T; brute_modules calls is_module, so it is no oracle here.
    # The least module holding a seed is the meet of the modules holding it
    for n in range(8):
        for P in (random_poset(rng, n), relabel(rng, random_poset(rng, n)), random_poset(rng, n, 0.3)):
            assert is_module(P, ())
            modules = []
            for mask in range(1, 1 << n):
                sub = [t for t in range(1, n + 1) if mask >> (t - 1) & 1]
                uniform = all(len({(P.less(z, t), P.less(t, z)) for t in sub}) == 1
                              for z in range(1, n + 1) if z not in sub)
                assert is_module(P, sub) == uniform, (P, sub)
                if uniform:
                    modules.append(mask)
            for seed in range(1, 1 << n):
                least = functools.reduce(operator.and_, (m for m in modules if m & seed == seed))
                assert decomp._min_module(P, seed, (1 << n) - 1) == least, (P, seed)


def test_gallai_chain_and_antichain():
    t = gallai_tree(chain(3))
    assert t.kind == "series" and [c.kind for c in t.children] == ["leaf"] * 3
    t = gallai_tree(antichain(3))
    assert t.kind == "parallel" and len(t.children) == 3
    assert gallai_tree(chain(1)).kind == "leaf"


def test_gallai_2413_is_prime():
    P = poset_from_permutation(Permutation([2, 4, 1, 3]))
    # oracle: no 2- or 3-subset is a module
    for r in (2, 3):
        for sub in itertools.combinations(range(1, 5), r):
            assert not is_module(P, sub)
    t = gallai_tree(P)
    assert t.kind == "prime" and len(t.children) == 4


def test_gallai_strong_modules_are_nodes(rng):
    # every strong module found by brute force is a tree node (or a union
    # of consecutive series children / a subset of parallel children, the
    # degenerate weak-strong cases)
    for _ in range(15):
        P = random_poset(rng, rng.randint(2, 7))
        tree = gallai_tree(P)
        node_sets = {frozenset(node.elements) for node in tree.nodes()}
        unions = set()
        for node in tree.nodes():
            kids = [frozenset(c.elements) for c in node.children]
            if node.kind == "series":
                for i in range(len(kids)):
                    for j in range(i, len(kids)):
                        unions.add(frozenset().union(*kids[i:j + 1]))
            elif node.kind == "parallel":
                for r in range(1, len(kids) + 1):
                    for combo in itertools.combinations(kids, r):
                        unions.add(frozenset().union(*combo))
        modules = brute_modules(P)
        for module in modules:
            strong = all(
                other <= module or module <= other or not (other & module)
                for other in modules
            )
            if strong:
                assert module in node_sets or module in unions


def test_gallai_reconstruct(rng):
    for _ in range(40):
        P = random_poset(rng, rng.randint(1, 8))
        assert reconstruct(gallai_tree(P)) == P


def test_every_gallai_node_reconstructs_its_subposet(rng):
    for i in range(300):
        P = random_poset(rng, rng.randint(1, 14))
        P = relabel(rng, P) if i % 2 else P
        for node in gallai_tree(P).nodes():
            assert reconstruct(node) == restrict(P, node.elements), (P, node.elements)


def test_gallai_trees_are_equal_iff_posets_are(rng):
    # the two primes on four elements differ only in their quotients
    prime_2413 = gallai_tree(poset_from_permutation(Permutation([2, 4, 1, 3])))
    prime_3142 = gallai_tree(poset_from_permutation(Permutation([3, 1, 4, 2])))
    assert prime_2413 != prime_3142
    for _ in range(200):
        n = rng.randint(1, 5)
        P, Q = random_poset(rng, n), random_poset(rng, n)
        assert (gallai_tree(P) == gallai_tree(Q)) == (P == Q), (P, Q)


def test_prime_quotients_have_no_nontrivial_module(rng):
    for _ in range(40):
        P = random_poset(rng, rng.randint(2, 8))
        for node in gallai_tree(P).nodes():
            if node.kind != "prime":
                continue
            q = node.quotient
            assert q.n >= 4
            for r in range(2, q.n):
                for sub in itertools.combinations(range(1, q.n + 1), r):
                    assert not is_module(q, sub)


def assert_matches_pairwise(P):
    stack = [(gallai_tree(P), pairwise_gallai(P))]
    while stack:
        node, (kind, elements, children, quot) = stack.pop()
        assert (node.kind, node.elements, node.quotient) == (kind, elements, quot)
        assert [child.elements for child in node.children] == [child[1] for child in children]
        stack.extend(zip(node.children, children))


def substitute(Q, blocks):
    """Q with element i replaced by the poset blocks[i - 1]."""
    offsets = [sum(b.n for b in blocks[:i]) for i in range(len(blocks) + 1)]
    pairs = [(offsets[i] + a, offsets[i] + b) for i, block in enumerate(blocks) for a, b in block.relations()]
    for a, b in Q.relations():
        pairs += [(offsets[a - 1] + u, offsets[b - 1] + v)
                  for u in range(1, blocks[a - 1].n + 1) for v in range(1, blocks[b - 1].n + 1)]
    return poset_from_relations(offsets[-1], pairs)


def test_gallai_matches_pairwise_class_search(rng):
    for i in range(240):
        P = random_poset(rng, rng.randint(1, 12))
        assert_matches_pairwise(relabel(rng, P) if i % 2 else P)


def test_gallai_matches_pairwise_on_inflated_primes(rng):
    # the least element's class is the first block, of two to four
    # elements; relabeled, that element may sit inside any block, so that
    # the refinement splits its class into several parts
    for img in ([2, 4, 1, 3], [2, 5, 3, 1, 4]):
        Q = poset_from_permutation(Permutation(img))
        for _ in range(30):
            blocks = [rng.choice((chain, antichain))(rng.randint(1, 4)) for _ in img]
            blocks[0] = rng.choice((chain, antichain))(rng.randint(2, 4))
            P = substitute(Q, blocks)
            assert_matches_pairwise(P)
            assert_matches_pairwise(relabel(rng, P))
            root = gallai_tree(P)
            assert root.kind == "prime" and len(root.children) == len(img)
            assert root.children[0].elements == tuple(range(1, blocks[0].n + 1))


def test_prime_class_search_makes_linear_min_module_calls(rng, monkeypatch):
    # the pairwise scan made about n^2 / 2 calls on a prime D(sigma)
    calls = []
    counted = decomp._min_module
    monkeypatch.setattr(decomp, "_min_module", lambda *args: calls.append(1) or counted(*args))
    img = list(range(1, 61))
    rng.shuffle(img)
    gallai_tree(poset_from_permutation(Permutation(img)))
    assert 0 < len(calls) <= 60


def test_prime_class_search_absorbs_parts_until_one_fills_the_node(rng, monkeypatch):
    # relabeled, the least element x may sit inside any block, so that its
    # class splits into several parts; a part met before the first outside
    # class is absorbed by a proper minimal module, and one outside ends
    # the search
    outcomes = []
    counted = decomp._min_module

    def recorded(P, seed, scope):
        module = counted(P, seed, scope)
        outcomes.append(module == scope)
        return module

    monkeypatch.setattr(decomp, "_min_module", recorded)
    absorbed = 0
    for img in ([2, 4, 1, 3], [2, 5, 3, 1, 4]):
        Q = poset_from_permutation(Permutation(img))
        for _ in range(40):
            blocks = [rng.choice((chain, antichain))(rng.randint(1, 3)) for _ in img]
            blocks[0] = chain(rng.randint(3, 5))
            P = relabel(rng, substitute(Q, blocks))
            outcomes.clear()
            root = gallai_tree(P)
            assert root.kind == "prime" and len(root.children) == len(img)
            assert outcomes.count(True) == 1 and outcomes[-1]
            assert len(outcomes) <= len(root.children[0].elements)
            absorbed += len(outcomes) - 1
            assert_matches_pairwise(P)
    assert absorbed > 0


def test_prime_class_search_makes_at_most_class_size_plus_one_min_module_calls(rng, monkeypatch):
    # one closure per part of the refinement would make about n calls on a
    # prime D(sigma); x's class absorbs parts until one fills the node
    calls = []
    counted = decomp._min_module
    monkeypatch.setattr(decomp, "_min_module", lambda *args: calls.append(1) or counted(*args))
    img = list(range(1, 61))
    while True:
        rng.shuffle(img)
        P = poset_from_permutation(Permutation(img))
        calls.clear()
        root = gallai_tree(P)
        if root.kind == "prime":
            break
    primes = [node for node in root.nodes() if node.kind == "prime"]
    assert 0 < len(calls) <= sum(len(node.children[0].elements) + 1 for node in primes)


def test_quotient_examples():
    assert quotient(chain(4), [{1, 2}, {3, 4}]) == chain(2)
    assert quotient(antichain(4), [{1, 2}, {3, 4}]) == antichain(2)
    P = poset_from_permutation(Permutation([2, 4, 1, 3]))
    assert quotient(P, [{1}, {2}, {3}, {4}]) == P
    with pytest.raises(NotAModuleError):
        quotient(poset_from_permutation(Permutation([2, 3, 1])), [{2, 3}, {1}])
    with pytest.raises(NotAModuleError):
        quotient(chain(3), [{1, 2}])
    with pytest.raises(NotAModuleError, match="block 1 is empty"):
        quotient(chain(3), [set(), {1, 2, 3}])
    with pytest.raises(NotAModuleError, match="element 2 appears in two blocks"):
        quotient(chain(3), [{1, 2}, {2, 3}])


def test_dilworth_examples():
    assert dilworth(chain(6)).chains == ((1, 2, 3, 4, 5, 6),)
    assert len(dilworth(antichain(5)).chains) == 5


def test_dilworth_properties(rng):
    for _ in range(40):
        P = random_poset(rng, rng.randint(1, 8))
        cd = dilworth(P)
        seen = set()
        for seq in cd.chains:
            for a, b in zip(seq, seq[1:]):
                assert P.less(a, b)
            seen.update(seq)
        assert seen == set(range(1, P.n + 1))
        assert len(cd.chains) == brute_width(P) == width(P)
    # every D(sigma) with n <= 6, as is and relabeled, so that the labels
    # need not be a linear extension
    for n in range(1, 7):
        for img in itertools.permutations(range(1, n + 1)):
            D = poset_from_permutation(Permutation(img))
            for P in (D, relabel(rng, D)):
                cd = dilworth(P)
                assert sorted(x for seq in cd.chains for x in seq) == list(range(1, n + 1))
                assert all(P.less(a, b) for seq in cd.chains for a, b in zip(seq, seq[1:]))
                assert len(cd.chains) == brute_width(P)


def test_intrinsic_width_examples():
    assert intrinsic_width(chain(7)) == 1
    assert intrinsic_width(antichain(5)) == 1
    assert intrinsic_width(antichain(0)) == 1
    assert intrinsic_width(poset_from_permutation(Permutation([2, 4, 1, 3]))) == 2


def test_sexpr_forms():
    assert tree_to_sexpr(gallai_tree(chain(3))) == "(S 1 2 3)"
    assert tree_to_sexpr(gallai_tree(antichain(3))) == "(P 1 2 3)"
    s = tree_to_sexpr(gallai_tree(poset_from_permutation(Permutation([2, 4, 1, 3]))))
    assert s == "(X[2 4 1 3] 1 2 3 4)"
    # D(2413) relabeled so that 4 < 2 and 4 < 3: no permutation encodes the
    # quotient in this labeling, so its cover pairs are listed
    relabeled = poset_from_relations(4, [(1, 2), (4, 2), (4, 3)])
    assert tree_to_sexpr(gallai_tree(relabeled)) == "(X[1<2,4<2,4<3] 1 2 3 4)"
