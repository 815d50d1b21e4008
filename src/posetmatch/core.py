"""Ground types: posets, permutations, occurrence flavors, and their I/O.

Posets live on the ground set {1, ..., n} and store the full transitive
closure of their strict order, so relation queries are O(1).  Permutations
encode dimension-2 posets through D(sigma): i precedes j iff i < j and
sigma(i) < sigma(j).
"""

import sys
from dataclasses import dataclass

from .errors import CycleError, FormatError, RangeError

__all__ = [
    "Poset",
    "Permutation",
    "OccurrenceFlavor",
    "OccurrenceMap",
    "poset_from_relations",
    "poset_from_permutation",
    "restrict",
    "is_occurrence",
    "chain",
    "antichain",
    "parse_poset",
    "format_poset",
    "parse_permutation",
    "format_permutation",
]


class Poset:
    """A strict partial order on 1..n, transitively closed.

    The relation is stored as bitmask rows: ``up[i]`` has bit j set iff
    element i+1 strictly precedes element j+1, and ``down`` is the transpose;
    both are required.  Instances are immutable; build them with
    poset_from_relations, poset_from_permutation, restrict, chain or antichain.
    """

    __slots__ = ("n", "up", "down", "_hash")

    def __init__(self, n, up, down):
        self.n = n
        self.up = tuple(up)
        self.down = tuple(down)
        self._hash = hash((n, self.up))

    def less(self, a, b):
        """True iff a strictly precedes b (1-based elements)."""
        return (self.up[a - 1] >> (b - 1)) & 1 == 1

    def comparable(self, a, b):
        return self.less(a, b) or self.less(b, a)

    def relations(self):
        """All strict pairs (a, b) with a < b in the order, 1-based."""
        return [(i + 1, j + 1) for i, row in enumerate(self.up) for j in _bits(row)]

    def cover_pairs(self):
        """Pairs (a, b) where b covers a (no element strictly between)."""
        return [(i + 1, j + 1) for i, row in enumerate(self.up) for j in _bits(row) if not row & self.down[j]]

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.up == other.up

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Poset(n=%d, relations=%r)" % (self.n, self.relations())


class Permutation:
    """A bijection of 1..n given by its image sequence."""

    __slots__ = ("n", "img")

    def __init__(self, img):
        img = tuple(img)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise FormatError("not a permutation of 1..%d: %r" % (len(img), img))
        self.n = len(img)
        self.img = img

    def inverse(self):
        inv = [0] * self.n
        for i, v in enumerate(self.img):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def __repr__(self):
        return "Permutation(%r)" % (self.img,)


@dataclass(frozen=True)
class OccurrenceFlavor:
    """Which notion of occurrence is being counted.

    induced: images must reproduce incomparabilities as well as relations.
    injective: the map must be injective.
    unlabeled: count orbits under precomposition with automorphisms of the
    pattern instead of individual maps.
    """

    induced: bool = False
    injective: bool = False
    unlabeled: bool = False


@dataclass(frozen=True)
class OccurrenceMap:
    """assignment[v-1] is the image of pattern element v in the text."""

    assignment: tuple

    def __len__(self):
        return len(self.assignment)


def _bits(mask):
    """The positions of mask's set bits, lowest first, one step per bit."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def poset_from_relations(n, pairs):
    """Transitive closure of the given strict relations on 1..n.

    Raises CycleError if the closure would relate an element to itself,
    RangeError if a pair mentions an element outside 1..n.
    """
    up = [0] * n
    for a, b in pairs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise RangeError("relation (%d, %d) outside 1..%d" % (a, b, n))
        if a == b:
            raise CycleError("reflexive pair (%d, %d)" % (a, b))
        up[a - 1] |= 1 << (b - 1)
    # Warshall closure, one bitmask row at a time.
    for k in range(n):
        rowk = up[k]
        if not rowk:
            continue
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= rowk
    for i in range(n):
        if up[i] & (1 << i):
            raise CycleError("closure creates a cycle through %d" % (i + 1))
    down = [0] * n
    for i, row in enumerate(up):
        while row:
            down[(row & -row).bit_length() - 1] |= 1 << i
            row &= row - 1
    return Poset(n, up, down)


def poset_from_permutation(sigma):
    """The dimension-<=2 poset D(sigma): i < j and sigma(i) < sigma(j)."""
    n = sigma.n
    by_value = sorted(range(n), key=sigma.img.__getitem__)
    up, down = [0] * n, [0] * n
    # one sweep over the values each way, holding the positions of the values seen
    above = 0
    for i in reversed(by_value):
        up[i] = above >> (i + 1) << (i + 1)
        above |= 1 << i
    below = 0
    for i in by_value:
        down[i] = below & ((1 << i) - 1)
        below |= 1 << i
    return Poset(n, up, down)


def _permutation_encoding(Q):
    """A permutation rho with D(rho) equal to Q, or None.

    In D(rho), rho(i) - 1 counts the j < i below i and the j > i
    incomparable to i; Q is encodable iff those counts give a
    permutation that encodes Q.
    """
    k = Q.n
    rho = [1 + (Q.down[i] & ((1 << i) - 1)).bit_count()
           + k - 1 - i - ((Q.up[i] | Q.down[i]) >> (i + 1)).bit_count() for i in range(k)]
    if sorted(rho) != list(range(1, k + 1)):
        return None
    perm = Permutation(rho)
    return perm if poset_from_permutation(perm) == Q else None


def restrict(P, subset):
    """Induced subposet on `subset`, relabeled 1..|subset| in natural order; P itself for all of P."""
    elems = sorted(set(subset))
    for x in elems:
        if not 1 <= x <= P.n:
            raise RangeError("element %r outside 1..%d" % (x, P.n))
    return P if len(elems) == P.n else _collapse(P, [(x,) for x in elems])


def _collapse(P, blocks):
    """The poset on a list of disjoint blocks of P's elements, in its order:
    block A lies below block B iff some member of A precedes some member of
    B, a partial order when the blocks are modules or automorphism cycles."""
    k = len(blocks)
    which = {x - 1: i for i, block in enumerate(blocks) for x in block}
    masks, rows, up, down = [0] * k, [0] * k, [0] * k, [0] * k
    for x, i in which.items():
        masks[i] |= 1 << x
        rows[i] |= P.up[x]
    keep = sum(masks)
    for i, row in enumerate(rows):
        row &= keep & ~masks[i]
        while row:
            j = which[(row & -row).bit_length() - 1]
            up[i] |= 1 << j
            down[j] |= 1 << i
            row &= ~masks[j]
    return Poset(k, up, down)


def is_occurrence(f, P, Q, flavor):
    """Check whether f is an occurrence of P in Q of the given flavor.

    The unlabeled field is ignored: it is a counting convention, not a
    property of a single map.
    """
    assignment = f.assignment if isinstance(f, OccurrenceMap) else tuple(f)
    if len(assignment) != P.n:
        raise RangeError("map has %d entries, pattern has %d" % (len(assignment), P.n))
    for q in assignment:
        if not 1 <= q <= Q.n:
            raise RangeError("image %r outside 1..%d" % (q, Q.n))
    if flavor.injective and len(set(assignment)) != P.n:
        return False
    for v in range(1, P.n + 1):
        for w in range(1, P.n + 1):
            if v == w:
                continue
            if P.less(v, w) and not Q.less(assignment[v - 1], assignment[w - 1]):
                return False
            if flavor.induced and Q.less(assignment[v - 1], assignment[w - 1]) and not P.less(v, w):
                return False
    return True


def chain(n):
    """The total order 1 < 2 < ... < n."""
    return poset_from_permutation(Permutation(range(1, n + 1)))


def antichain(n):
    """n pairwise-incomparable elements."""
    return Poset(n, [0] * n, [0] * n)


# --- textual formats -------------------------------------------------------
#
# Poset files: first non-comment line "p <n>", then "r <a> <b>" lines, each
# asserting a < b.  Lines starting with "#" are comments.  Writers emit the
# cover relation only; readers accept any generating set.


def _lines(text, comment):
    """(line number, fields) of each line of text that is neither blank
    nor, once stripped, starts with the comment prefix."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith(comment):
            yield lineno, line.split()


def _ints(fields, message, *args):
    """The fields as ints; FormatError(message % args) if one is not an integer."""
    try:
        return [int(field) for field in fields]
    except ValueError:
        raise FormatError(message % args)


def parse_poset(text):
    n = None
    pairs = []
    for lineno, parts in _lines(text, "#"):
        if parts[0] == "p":
            if n is not None:
                raise FormatError("line %d: duplicate p line" % lineno)
            if len(parts) != 2:
                raise FormatError("line %d: expected 'p <n>'" % lineno)
            n, = _ints(parts[1:], "line %d: bad count %r", lineno, parts[1])
            if n < 0:
                raise FormatError("line %d: negative count" % lineno)
            if n > sys.maxsize:
                raise FormatError("line %d: count %s exceeds %d" % (lineno, parts[1], sys.maxsize))
        elif parts[0] == "r":
            if n is None:
                raise FormatError("line %d: 'r' before 'p'" % lineno)
            if len(parts) != 3:
                raise FormatError("line %d: expected 'r <a> <b>'" % lineno)
            pairs.append(tuple(_ints(parts[1:], "line %d: bad relation", lineno)))
        else:
            raise FormatError("line %d: unknown directive %r" % (lineno, parts[0]))
    if n is None:
        raise FormatError("missing 'p <n>' line")
    return poset_from_relations(n, pairs)


def format_poset(P):
    lines = ["p %d" % P.n]
    for a, b in P.cover_pairs():
        lines.append("r %d %d" % (a, b))
    return "\n".join(lines) + "\n"


def parse_permutation(text):
    parts = text.split()
    if not parts:
        raise FormatError("empty permutation")
    return Permutation(_ints(parts, "non-integer entry in permutation"))


def format_permutation(sigma):
    return " ".join(str(v) for v in sigma.img) + "\n"
