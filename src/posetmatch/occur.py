"""Occurrence enumeration and counting for every flavor.

One backtracker with forward checking does all the searching: it
assigns pattern elements one at a time, each image narrows the bitmask
candidate sets of the elements still to come, and an image that leaves
one of them empty is dropped at once.  Counting, enumeration (a leaf
visitor that collects maps), automorphisms (induced injective
self-occurrences) and permutation pattern matching (occurrences between
dimension-2 posets) all run on it.  Leaf visitors get label order, so
maps come out in lexicographic order.  Counts place first the element
with the most constraints to those placed, counting related pairs, or
incomparable ones in induced searches where those are the scarcer kind,
and leave the last two elements unsearched: the third-to-last loops
over its own images, with no call per image, and for each adds the
pairs of the last two by a popcount per candidate of the second-to-last
or by meeting its pair table with the node's (_count_maps has the rule).

Unlabeled occurrences are orbits under precomposition with Aut(P).  A
labeled count is one search, and an unlabeled injective count two:
|Aut(P)|, then the text, since only the identity fixes an injective
map.  Only unlabeled non-injective counts walk Aut(P), tallying it by
cycle class for Burnside's lemma: the maps f with f∘g = f for an
automorphism g are the occurrences of the fold P/<g>, one element per
cycle of g, so the backtracker counts one labeled poset per distinct
fold.  The orbit-minimum leaf filter serves enumeration only.
"""

import sys
from collections import Counter

from . import errors
from .core import OccurrenceFlavor, OccurrenceMap, _bits, _collapse, poset_from_permutation
from .errors import _check

DEFAULT_ENUM_BUDGET = 1_000_000

__all__ = [
    "enumerate_occurrences",
    "count_occurrences",
    "match_permutation",
    "count_chain_occurrences",
    "automorphism_maps",
]


def _search_order(P, dense):
    """P's elements, most constrained first (fail-first).

    A constraint is a pair of P's elements whose images must be related,
    or, when dense, a pair whose images must be incomparable: an induced
    search in a text with more related than incomparable pairs prunes
    more by the scarcer kind.  Each next element is the one with the most
    constraints to the elements already placed; ties go to the one with
    the most to the elements not yet placed, then to the lowest label.
    """
    rows = [P.up[v] | P.down[v] for v in range(P.n)]
    if dense:
        rows = [((1 << P.n) - 1) & ~row & ~(1 << v) for v, row in enumerate(rows)]
    # a key packs both counts, the unplaced one in its low shift bits; > leaves ties to the lowest label
    left, order, shift = (1 << P.n) - 1, [], P.n.bit_length()
    while left:
        best, placed = -1, ~left
        for v in _bits(left):
            if (key := (rows[v] & placed).bit_count() << shift | (rows[v] & left).bit_count()) > best:
                best, pick = key, v
        order.append(pick)
        left ^= 1 << pick
    return order


def _count_maps(P, Q, induced, injective, deadline=None, visit=None):
    """Count occurrence maps of P in Q by backtracking with forward checking.

    Each level carries the candidate sets of every element not yet
    placed; placing an element ANDs its image's rows into the sets of the
    later elements it constrains, and an image that empties one is
    skipped.  When visit is given, pattern elements are assigned in label
    order and candidates lowest element first, so leaves are reached in
    lexicographic order of assignment vectors; visit is called with the
    assignment at every leaf, and the leaf counts only if it returns a
    true value.  A count of k < 3 elements is closed without a search.
    A longer one fixes its order once by _search_order and ends, with no
    leaf, at the node of the third-to-last element (the root when k = 3),
    which loops over its images x itself: each narrows the last two
    sets, and the second-to-last adds, over its candidates y, the size of
    what y's rows leave of the last one's set: by a popcount per
    candidate, or by one big-int AND of x's table of allowed pairs, built
    once per search, with the node's pairs, both with the rows stacked at
    stride n + 1.  A pair set costs n**3 >> 17 popcounts to form (cutoff)
    and n**2 >> 12 to meet (share), so a node turns to the tables once
    its images' candidates past share add up to 2 * cutoff, at once for
    n <= 50, and the root (k = 3), which meets each image once, forms one
    for an image with more than cutoff; none past n = 362.  The deadline
    is checked once before a closed form, and in a search on crossing
    each multiple of 4,096 steps: a node is one, and so is each image the
    third-to-last tries and each candidate it sums one by one; the at
    most n tables of a search count none.
    """
    k, n = P.n, Q.n
    # one frame per pattern element, and 100 left for the callers
    if k + 100 > sys.getrecursionlimit():
        raise errors.SizeLimitError("a %d-element pattern is too deep for the recursion limit of %d"
                                    % (k, sys.getrecursionlimit()))
    full = (1 << n) - 1
    # rows[x] holds x itself only for incomparable or unconstrained pairs of a non-injective search
    incomparable = [full & ~(Q.up[j] | Q.down[j] | injective << j) for j in range(n)] if induced else None
    # dense: the incomparable rows hold n * n - 2 * |up| bits, fewer than 2 * |up|
    order = range(k) if visit else _search_order(P, induced and 3 * sum(map(int.bit_count, Q.up)) > n * n)
    # links[i]: (j, rows) for each later j-th element that the i-th one constrains: the
    # image of order[j] lies in rows[image of order[i]], related to it as order[j] to order[i]
    kinds = (incomparable, Q.up, Q.down)
    links = [[(j, rows) for j in range(i + 1, k)
              if (rows := kinds[P.up[v] >> order[j] & 1 or 2 * (P.down[v] >> order[j] & 1)]) is not None]
             for i, v in enumerate(order)]
    if visit is None and k < 3:  # closed forms: the empty map, one map per image, or the pairs
        _check(deadline, "occurrence count")
        if k < 2:
            return n ** k
        rows = dict(links[0]).get(1)  # None marks an unconstrained pair
        return n * (n - injective) if rows is None else sum(map(int.bit_count, rows))
    assignment = [0] * k
    cutoff = n ** 3 >> 17
    share = n * n >> 12 if cutoff < n else cutoff
    if visit is None:
        # ends[x]: what the second-to-last at x leaves to the last; near[x], far[x]: what the
        # third-to-last at x leaves to the last two; None marks an unconstrained pair
        tail = [dict(links[i]).get(j) for i, j in ((k - 2, k - 1), (k - 3, k - 2), (k - 3, k - 1))]
        anywhere = [full & ~(injective << x) for x in range(n)] if None in tail else None
        ends, near, far = (anywhere if rows is None else rows for rows in tail)
        if cutoff < n:
            # stacked holds ends[x] in block x at stride n + 1; spread copies
            # an n-bit set to every block of n bits, diagonal keeps bit t of
            # block t, moved to the start of block t at stride n + 1
            stacked = sum(row << (n + 1) * x for x, row in enumerate(ends))
            spread = ((1 << n * n) - 1) // ((1 << n) - 1)
            diagonal = ((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)
            tables = [None] * n  # x's pairs (y, z), y in near[x] and z in far[x] & ends[y], at bit (n + 1) * y + z

    def extend(i, used, cands):
        nonlocal count, nodes
        nodes += 1
        if deadline is not None and nodes % 4096 == 0:
            _check(deadline, "occurrence count")
        if i == k:  # only visitors reach leaves, and count those they return true for
            count += bool(visit(assignment))
            return
        cand = cands[i] & ~used if injective else cands[i]
        if i == k - 3 and visit is None:
            # the third-to-last loops over its own images x; c and rest are
            # what x leaves of the last two sets
            before, after = (cands[k - 2] & ~used, cands[k - 1] & ~used) if injective else cands[k - 2:]
            spare, least = (2 * cutoff, share) if i else (1, cutoff)
            while cand and spare > 0:
                x = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                c, rest = before & near[x], after & far[x]
                size = c.bit_count()
                nodes += size + 1
                if deadline is not None and nodes % 4096 <= size:
                    _check(deadline, "occurrence count")
                if not rest:
                    continue
                if size > least:
                    if not i:  # the root meets each image once
                        count += (stacked & (c * spread & diagonal) * rest).bit_count()
                        continue
                    spare -= size - least
                while c:
                    count += (rest & ends[(c & -c).bit_length() - 1]).bit_count()
                    c &= c - 1
            if cand:  # the images left meet their tables with the node's pairs
                pairs, steps = (before * spread & diagonal) * after, cand.bit_count()
                nodes += steps
                if deadline is not None and nodes % 4096 < steps:
                    _check(deadline, "occurrence count")
                while cand:
                    x = (cand & -cand).bit_length() - 1
                    cand &= cand - 1
                    if tables[x] is None:
                        tables[x] = stacked & (near[x] * spread & diagonal) * far[x]
                    count += (tables[x] & pairs).bit_count()
            return
        v, ahead = order[i], links[i]
        while cand:
            bit = cand & -cand
            x = bit.bit_length() - 1
            later = cands.copy()
            for j, rows in ahead:
                later[j] &= rows[x]
                if not later[j]:
                    break
            else:
                assignment[v] = x + 1
                extend(i + 1, used | bit, later)
            cand &= cand - 1

    count, nodes = 0, -1  # the first node, 0, checks the deadline
    extend(0, 0, [full] * k)
    return count


def automorphism_maps(P):
    """All automorphisms of P as tuples (image of 1, ..., image of n).

    They are the induced injective occurrences of P in itself: an
    injective self-map of a finite set is a bijection, and inducedness
    makes it reflect the order as well as preserve it.  Returned in
    lexicographic order.
    """
    out = []
    _count_maps(P, P, True, True, visit=lambda assignment: out.append(tuple(assignment)))
    return out


def _cycle_leaders(g):
    """Each element's cycle leader under g: the least element of its cycle."""
    leaders = [0] * len(g)
    for v in range(len(g)):
        u = v
        while not leaders[u]:
            leaders[u], u = v + 1, g[u] - 1
    return tuple(leaders)


def _fold_cycles(P, leaders, induced):
    """P/<g> for the automorphism g with these cycle leaders: one element
    per cycle, in order of its head (least element).  Returns P for the
    identity, and None for induced flavors when some cycle is not a module,
    since then no map constant on the cycles is induced."""
    cycles = {}
    for v, lead in enumerate(leaders, 1):
        cycles.setdefault(lead, []).append(v)
    if len(cycles) == P.n:
        return P
    if induced and any((P.up[v], P.down[v]) != (P.up[lead - 1], P.down[lead - 1])
                       for v, lead in enumerate(leaders)):
        return None  # a cycle, an antichain, is a module iff its members share their rows
    return _collapse(P, list(cycles.values()))


def _is_orbit_minimum(P):
    """Predicate on assignments: true iff the assignment is the
    lexicographically least member of its orbit under precomposition
    with Aut(P), so each unlabeled occurrence passes exactly once."""
    perms = [[img - 1 for img in aut] for aut in automorphism_maps(P)]

    def is_minimum(assignment):
        tup = tuple(assignment)
        return all(tuple(assignment[i] for i in perm) >= tup for perm in perms)

    return is_minimum


def enumerate_occurrences(P, Q, flavor, budget=DEFAULT_ENUM_BUDGET):
    """All occurrence maps in lexicographic order of assignment vectors.

    With flavor.unlabeled, only the lexicographically least member of each
    orbit under precomposition with Aut(P) is emitted.  The budget, which
    must be >= 0, bounds the output: SizeLimitError is raised as soon as
    more than budget maps would be returned.  An injective flavor with
    more pattern than text elements has no occurrence and searches nothing.
    """
    if budget < 0:
        raise errors.RangeError("enumeration budget must be >= 0, got %r" % (budget,))
    if flavor.injective and P.n > Q.n:
        return []
    keep = _is_orbit_minimum(P) if flavor.unlabeled else None
    out = []

    def collect(assignment):
        if keep is None or keep(assignment):
            if len(out) == budget:
                raise errors.SizeLimitError(
                    "occurrences of a %d-element pattern in a %d-element text exceed "
                    "the enumeration budget of %d maps" % (P.n, Q.n, budget))
            out.append(OccurrenceMap(tuple(assignment)))

    _count_maps(P, Q, flavor.induced, flavor.injective, visit=collect)
    return out


def count_occurrences(P, Q, flavor, deadline=None):
    """Number of occurrences of P in Q of the given flavor.

    A labeled count is one search.  Unlabeled counts are orbits under
    precomposition with Aut(P), counted by Burnside's lemma: the sum over
    automorphisms g of the occurrences of the fold P/<g> (the maps f with
    f∘g = f, see _fold_cycles), divided by |Aut(P)|.  Non-injective ones
    tally Aut(P) by cycle class, listing no member, and search once per
    distinct fold; an injective one, which only the identity fixes, is
    two searches: |Aut(P)|, then the text.  The deadline covers every
    search and is checked as each starts and every 4,096 steps of it: a
    step is a search node, an image of the third-to-last pattern element
    or a candidate it leaves to the second-to-last to be summed one by
    one, not through its pair table.  An injective flavor with more
    pattern than text elements gives 0 by pigeonhole, before any search.
    """
    if flavor.injective and P.n > Q.n:
        return 0
    if flavor.unlabeled and not flavor.injective:
        classes = Counter()  # Aut(P) by cycle class, tallied under the deadline

        def tally(g):
            classes[_cycle_leaders(g)] += 1

        _count_maps(P, P, True, True, deadline, tally)
        folds = Counter()  # None gathers the classes that no induced map is constant on
        for leaders, weight in classes.items():
            folds[_fold_cycles(P, leaders, flavor.induced)] += weight
        order = classes.total()
    else:
        # f∘g = f forces f(v) = f(g(v)): an injective count needs |Aut(P)|, not Aut(P)
        folds, order = {P: 1}, _count_maps(P, P, True, True, deadline) if flavor.unlabeled else 1
    total = sum(weight * _count_maps(fold, Q, flavor.induced, flavor.injective, deadline)
                for fold, weight in folds.items() if fold is not None)
    if total % order:
        raise errors.ConstraintError("Burnside sum %d over %d automorphisms" % (total, order))
    return total // order


def match_permutation(sigma_P, sigma_Q, induced):
    """Count matches of the pattern permutation in the text permutation.

    induced=True counts index sets I whose induced subposet of D(sigma_Q)
    is isomorphic to D(sigma_P); such index sets are in bijection with the
    unlabeled induced injective occurrences.  (This is slightly wider than
    requiring sigma_Q restricted to I to be order-isomorphic to sigma_P:
    distinct patterns can present isomorphic posets, and the strict
    reading would break the bijection.)  induced=False counts orbits of
    coinversion-preserving injective maps, i.e. unlabeled non-induced
    injective occurrences of D(sigma_P) in D(sigma_Q).
    """
    flavor = OccurrenceFlavor(induced=induced, injective=True, unlabeled=True)
    return count_occurrences(poset_from_permutation(sigma_P), poset_from_permutation(sigma_Q), flavor)


def count_chain_occurrences(k, Q):
    """Number of k-element chains of Q, by dynamic programming.

    c_j(v) = sum of c_{j-1}(u) over u < v; each round reads only the last, so
    no element order is needed.  Polynomial in |Q| and k; 0 at once if k > |Q|, and once a round is all 0.
    """
    if k < 1:
        raise errors.RangeError("chain length must be >= 1")
    if k > Q.n:
        return 0
    prev = [1] * Q.n
    for _ in range(k - 1):
        prev = [sum(map(prev.__getitem__, _bits(row))) for row in Q.down]
        if not any(prev):
            return 0
    return sum(prev)
