import functools
import itertools
import random
import sys

import pytest

from posetmatch import OccurrenceFlavor, Permutation, is_occurrence, poset_from_relations, restrict
from posetmatch.decomp import _min_module
from posetmatch.sat import _block_local


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


def pairwise_gallai(P, elements=None):
    """The strong-module tree of P as nested (kind, elements, children,
    quotient), built by definition: components of the comparability graph
    and of its complement, and prime classes by the pairwise scan, in
    which y joins the class of x iff the minimal module holding x and y
    is proper."""
    elements = tuple(range(1, P.n + 1)) if elements is None else elements
    if len(elements) == 1:
        return ("leaf", elements, [], None)

    def components(linked):
        out, left = [], list(elements)
        while left:
            comp, stack = {left[0]}, [left[0]]
            while stack:
                a = stack.pop()
                for b in left:
                    if b not in comp and linked(a, b):
                        comp.add(b)
                        stack.append(b)
            out.append(tuple(sorted(comp)))
            left = [b for b in left if b not in comp]
        return out

    kind, parts, quot = "parallel", components(P.comparable), None
    if len(parts) == 1:
        kind, parts = "series", components(lambda a, b: not P.comparable(a, b))
        parts.sort(key=lambda part: sum(P.less(b, part[0]) for b in elements))
    if len(parts) == 1:
        kind, parts, left = "prime", [], list(elements)
        scope = sum(1 << (e - 1) for e in elements)
        while left:
            x = left[0]
            parts.append(tuple(y for y in left if y == x or
                               _min_module(P, 1 << (x - 1) | 1 << (y - 1), scope) != scope))
            left = [y for y in left if y not in parts[-1]]
        quot = restrict(P, [part[0] for part in parts])
    return (kind, elements, [pairwise_gallai(P, part) for part in parts], quot)


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


@functools.lru_cache(maxsize=None)
def poset_classes(n):
    """One poset per isomorphism class on n elements, by brute force.  Each
    class has a naturally labeled member (label by a linear extension), so
    the subsets of the pairs a < b, closed, meet every class; the first met
    of each canonical form, the least sorted relation list over all n!
    relabelings, is kept."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    perms = list(itertools.permutations(range(1, n + 1)))
    closed, found = set(), {}
    for mask in range(1 << len(pairs)):
        P = poset_from_relations(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
        if P not in closed:
            closed.add(P)
            code = min(sorted((perm[a - 1], perm[b - 1]) for a, b in P.relations()) for perm in perms)
            found.setdefault(tuple(code), P)
    return tuple(found.values())


def structured_scan(f, P, Q):
    """The structured verifier's answer by checking each candidate map on
    its own, in product order over the (r, s) vectors: r_i picks the
    bracket of tau^x_i hosting pi^x_i, s_i the row of tau^C_i hosting
    pi^C_i.  Returns (pairs, all_induced, all_block_local)."""
    n, m = f.n, f.m
    plain = OccurrenceFlavor(induced=False, injective=True)
    induced = OccurrenceFlavor(induced=True, injective=True)
    pairs, all_induced, all_local = [], True, True
    for r in itertools.product((0, 1), repeat=n):
        for s in itertools.product(range(7), repeat=m):
            assignment = []
            for i in range(n):
                assignment += range(8 * i + 4 * r[i] + 1, 8 * i + 4 * r[i] + 5)
            for i in range(m):
                start = 8 * n + 35 * i + 5 * s[i]
                assignment += range(start + 1, start + 6)
            if is_occurrence(assignment, P, Q, plain):
                pairs.append((r, s))
                all_induced = all_induced and is_occurrence(assignment, P, Q, induced)
                all_local = all_local and _block_local(f, assignment)
    return tuple(pairs), all_induced, all_local


def reference_count_satisfying(f):
    """#SAT by testing each of the 2^n assignments in turn; bit v - 1 of
    an assignment is variable v."""
    return sum(all(any(((bits >> (var - 1)) & 1 == 1) == positive for var, positive in clause)
                   for clause in f.clauses)
               for bits in range(1 << f.n))


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
