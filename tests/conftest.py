import itertools
import random
import sys

import pytest

from posetmatch import OccurrenceFlavor, Permutation, is_occurrence, poset_from_relations


def random_poset(rng, n, prob=None):
    """Seeded random poset: Bernoulli upper-triangular relation, closed."""
    if prob is None:
        prob = rng.random()
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
             if rng.random() < prob]
    return poset_from_relations(n, pairs)


def relabel(rng, P):
    """P with its elements renamed by a seeded random permutation, so the
    labels need not be a linear extension."""
    perm = list(range(1, P.n + 1))
    rng.shuffle(perm)
    return poset_from_relations(P.n, [(perm[a - 1], perm[b - 1]) for a, b in P.relations()])


def staircase(steps):
    """sigma = 1, then alternately sigma (+) 21 and sigma (-) 12, steps
    times: the Gallai tree of D(sigma) alternates series and parallel
    nodes over steps + 1 levels."""
    img = [1]
    for step in range(steps):
        n = len(img)
        if step % 2 == 0:
            img = img + [n + 2, n + 1]
        else:
            img = [v + 2 for v in img] + [1, 2]
    return Permutation(img)


def brute_automorphisms(P):
    """Aut(P) by testing every bijection; independent of the library's search."""
    flavor = OccurrenceFlavor(induced=True, injective=True)
    return [perm for perm in itertools.permutations(range(1, P.n + 1))
            if is_occurrence(perm, P, P, flavor)]


def brute_occurrences(P, Q, flavor):
    """Occurrence assignments by testing all |Q|^|P| maps, in lexicographic
    order; for unlabeled flavors only the least member of each orbit under
    precomposition with Aut(P)."""
    auts = brute_automorphisms(P) if flavor.unlabeled else None
    out = []
    for assignment in itertools.product(range(1, Q.n + 1), repeat=P.n):
        if not is_occurrence(assignment, P, Q, flavor):
            continue
        if auts is not None:
            orbit = [tuple(assignment[a[v] - 1] for v in range(P.n)) for a in auts]
            if assignment != min(orbit):
                continue
        out.append(assignment)
    return out


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def low_recursion_limit():
    """Lower the interpreter's recursion limit for one test, so that any
    walk recursing once per tree level or pattern element fails."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    yield 250
    sys.setrecursionlimit(old)
