"""Linear-extension counting and dimension-2 automorphism counting.

Two polynomial engines are provided: a down-set DP over a Dilworth chain
cover, summing each group of down-sets with one part off the longest
chain in the packed lanes of one int, and a recursion over the Gallai
tree that handles prime quotients by inflating each quotient element to
a chain (inflation preserves the quotient's width, so the DP stays
polynomial for bounded intrinsic width).  Exhaustive oracles live here too.

Counts are plain Python integers (arbitrary precision).
"""

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, permutations
from math import comb, factorial, prod

from .core import (OccurrenceFlavor, Poset, _bits, _permutation_encoding, poset_from_permutation,
                   poset_from_relations)
from .decomp import dilworth, fold_tree, gallai_tree
from .errors import MemoryBudgetError, RangeError, SizeError, SizeLimitError
from .occur import count_occurrences

DEFAULT_NODE_BUDGET = 2_000_000
DEFAULT_ORACLE_BUDGET = 9

__all__ = ["DownSetLattice", "CanonicalCode", "downset_lattice", "lattice_as_poset", "count_le_downset_dp",
           "inflate", "count_linear_extensions", "count_occurrences_in_chain", "count_automorphisms_dim2",
           "canonical_code", "count_automorphisms_bruteforce", "count_le_bruteforce"]


@dataclass(frozen=True)
class DownSetLattice:
    """Down-sets keyed by chain-prefix vectors.

    nodes maps the key (|D ∩ C_1|, ..., |D ∩ C_k|) of each down-set D to
    the sorted list of keys it covers (D minus one maximal element).
    """

    nodes: dict
    chain_assignment: object

    @property
    def empty_key(self):
        return (0,) * len(self.chain_assignment.chains)

    @property
    def full_key(self):
        return tuple(len(c) for c in self.chain_assignment.chains)


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Byte string identifying a dimension-<=2 poset up to isomorphism."""

    code: bytes


def _sweep(P, chains):
    """The down-sets of P over the cover, grouped by their part D' off its longest chain, the row.

    The t that make D' plus the first t row elements a down-set form an interval [L, U], and
    e(D', t) = e(D', t - 1) + the sum of e(D' - c[-1], t) over chains c whose top can leave D'.
    A row e(D', L..U) is one int of W-bit lanes, W whole bytes above the multinomial of the
    chain sizes, which bounds every e(D).  Returns the row's prefix masks, W and the levels of
    groups by |D'|: dicts from D' to [L, U, row].  A chain's table holds, per t, c[t]'s bit,
    off-row down row and row elements below, and past its end a row that no D' holds."""
    row = max(chains, key=len, default=())
    prefix = list(accumulate((1 << (x - 1) for x in row), initial=0))
    on, off = prefix[-1], ~prefix[-1]
    below_row = [P.down[x - 1] & off for x in row] + [-1]
    tables = [(sum(1 << (x - 1) for x in c),
               [(1 << (x - 1), P.down[x - 1] & off, (P.down[x - 1] & on).bit_count()) for x in c] + [(0, -1, 0)])
              for c in chains if c is not row]
    B = (_multinomial([len(c) for c in chains]).bit_length() + 8) // 8
    W = 8 * B
    ones = list(accumulate(range(min(len(row) + 1, 4096 // W)), lambda a, _: a << W | 1, initial=0))

    def levels():
        level = {0: [0, 0, 1]}
        while level:
            for D, group in level.items():
                L, U, acc = group
                while not below_row[U] & ~D:
                    U += 1
                if U - L + 1 < len(ones):
                    acc = acc * ones[U - L + 1] & (1 << (U - L + 1) * W) - 1
                else:
                    data = acc.to_bytes((U - L + 1) * B, "little")
                    sums = accumulate(int.from_bytes(data[i:i + B], "little") for i in range(0, len(data), B))
                    acc = int.from_bytes(b"".join(s.to_bytes(B, "little") for s in sums), "little")
                group[1:] = U, acc
            yield level
            nxt = {}
            for D, (L, U, acc) in level.items():
                out = ~D
                for m, table in tables:
                    bit, below, low = table[(D & m).bit_count()]
                    if not below & out:
                        part = acc >> (low - L) * W if low > L else acc
                        group = nxt.get(D | bit)
                        if group:
                            group[2] += part
                        else:
                            nxt[D | bit] = [low if low > L else L, U, part]
            level = nxt

    return prefix, W, levels()


def downset_lattice(P, cd):
    """The lattice of down-sets of P over the chain cover cd.  D covers D
    minus each maximal element: a chain's last member in D whose up row misses D."""
    chains = [[x - 1 for x in c] for c in cd.chains]
    masks = [sum(1 << x for x in c) for c in chains]
    prefix, _, levels = _sweep(P, cd.chains)
    nodes = {}
    for D in (off | prefix[t] for level in levels for off, (L, U, _) in level.items() for t in range(L, U + 1)):
        key = tuple((D & m).bit_count() for m in masks)
        nodes[key] = sorted(key[:j] + (t - 1,) + key[j + 1:]
                            for j, (c, t) in enumerate(zip(chains, key)) if t and not P.up[c[t - 1]] & D)
    return DownSetLattice(nodes, cd)


def lattice_as_poset(lattice):
    """The down-set lattice ordered by inclusion, as a Poset.

    Nodes are numbered 1..N in order of (size, key); inclusion is the
    transitive closure of the lattice's covers.
    """
    keys = sorted(lattice.nodes, key=lambda key: (sum(key), key))
    index = {key: i for i, key in enumerate(keys, 1)}
    return poset_from_relations(len(keys), [(index[c], index[key]) for key in keys for c in lattice.nodes[key]])


def count_le_downset_dp(P, node_budget=DEFAULT_NODE_BUDGET):
    """e(P) by the down-set sweep of _sweep over a Dilworth cover of P: each group of
    down-sets with one part off the longest chain is an interval, summed in packed lanes.

    node_budget bounds the down-sets met, the same as one at a time, the empty one included:
    k chains hold an antichain with 2^k down-sets, so 2^k past it is refused at once;
    otherwise MemoryBudgetError is raised after the first level of groups that takes the
    count past it (a projected count prod(|C_j| + 1) that fits passes).
    A negative node_budget raises RangeError.
    """
    if node_budget < 0:
        raise RangeError("node budget must be >= 0, got %r" % (node_budget,))
    chains = dilworth(P).chains
    over = "down-sets over %d chains exceed node budget %d" % (len(chains), node_budget)
    if 1 << len(chains) > node_budget:
        raise MemoryBudgetError("2^%d %s" % (len(chains), over))
    _, W, levels = _sweep(P, chains)
    met = 0
    for level in levels:
        met += sum(U - L + 1 for L, U, _ in level.values())
        if met > node_budget:
            raise MemoryBudgetError(over)
    ((L, U, row),) = level.values()
    return row >> (U - L) * W


def inflate(quotient, sizes):
    """Replace element i of the quotient by a chain of sizes[i].

    Relations lift uniformly, a quotient row to the blocks its set bits
    name, so the result has the quotient's width.
    """
    if len(sizes) != quotient.n:
        raise RangeError("%d chain sizes for a %d-element quotient" % (len(sizes), quotient.n))
    if any(s < 1 for s in sizes):
        raise RangeError("chain size %d is below 1" % min(sizes))
    offsets = list(accumulate(sizes, initial=0))
    blocks = [((1 << s) - 1) << o for o, s in zip(offsets, sizes)]
    up, down = [], []
    for i, block in enumerate(blocks):
        above, below = (sum(map(blocks.__getitem__, _bits(r[i]))) for r in (quotient.up, quotient.down))
        for x in range(offsets[i], offsets[i] + sizes[i]):
            up.append(above | block >> (x + 1) << (x + 1))
            down.append(below | block & ((1 << x) - 1))
    return Poset(offsets[-1], up, down)


def _multinomial(sizes):
    return prod(comb(n, s) for n, s in zip(accumulate(sizes), sizes))


def count_linear_extensions(P, node_budget=DEFAULT_NODE_BUDGET):
    """e(P) by a fold over the Gallai tree.

    Every module may be ordered internally without constraint from the
    rest of an extension, so e(node) is the product over children times a
    shuffle factor: 1 for series nodes, the multinomial of child sizes for
    parallel nodes, and for prime nodes the extension count of the
    quotient with each element inflated to a chain of the child's size;
    a prime whose children are all leaves is swept on its quotient as is.
    The empty poset has one (empty) extension.  node_budget, which must be
    >= 0, bounds each prime quotient's sweep as in count_le_downset_dp.
    """
    if node_budget < 0:
        raise RangeError("node budget must be >= 0, got %r" % (node_budget,))
    if P.n == 0:
        return 1

    def fold(node, counts):
        if node.kind == "leaf":
            return 1
        total = prod(counts)
        sizes = [len(c.elements) for c in node.children]
        if node.kind == "series":
            return total
        if node.kind == "parallel":
            return total * _multinomial(sizes)
        leaves = len(sizes) == len(node.elements)
        return total * count_le_downset_dp(node.quotient if leaves else inflate(node.quotient, sizes), node_budget)

    return fold_tree(gallai_tree(P), fold)


def count_occurrences_in_chain(P, q):
    """Injective occurrences of P in chain(q): e(P) * C(q, |P|)."""
    if P.n > q:
        raise SizeError("pattern size %d exceeds chain length %d" % (P.n, q))
    return count_linear_extensions(P) * comb(q, P.n)


def _code_and_auts(sigma):
    """Canonical code and |Aut| of D(sigma), folded over its Gallai tree.

    A child's subtree is the Gallai tree of sigma's pattern at its
    elements.  Parallel nodes allow permuting isomorphic children.  A
    prime quotient D(rho) has two realizers, by position and by value,
    and a nontrivial automorphism swaps them: one exists iff rho is an
    involution, and it lifts iff it pairs isomorphic children.
    """

    def fold(node, kids):
        if node.kind == "leaf":
            return b"L", 1
        codes = [code for code, _ in kids]
        auts = prod(count for _, count in kids)
        if node.kind == "series":
            return b"(S" + b"".join(codes) + b")", auts
        if node.kind == "parallel":
            groups = Counter(codes).values()
            return b"(P" + b"".join(sorted(codes)) + b")", auts * prod(map(factorial, groups))
        # a prime quotient of D(sigma) is D(rho) for exactly one rho
        rho = _permutation_encoding(node.quotient)
        inv = rho.inverse()
        by_value = [codes[v - 1] for v in inv.img]

        def variant(perm, ordered):
            head = ",".join(str(v) for v in perm.img).encode()
            return b"(X" + head + b"|" + b"".join(ordered) + b")"

        # the two realizer orderings: children by position with rho, and
        # children by value with rho inverse
        code = min(variant(rho, codes), variant(inv, by_value))
        lift = rho.img == inv.img and by_value == codes
        return code, auts * (2 if lift else 1)

    if sigma.n == 0:  # D() has no Gallai tree, and one automorphism: the empty map
        return b"", 1
    return fold_tree(gallai_tree(poset_from_permutation(sigma)), fold)


def canonical_code(sigma):
    """Isomorphism-canonical code of D(sigma), over its Gallai tree."""
    return CanonicalCode(_code_and_auts(sigma)[0])


def count_automorphisms_dim2(sigma):
    """|Aut(D(sigma))|, from the same pass over the Gallai tree as the code."""
    return _code_and_auts(sigma)[1]


def count_automorphisms_bruteforce(P):
    """|Aut(P)|: P's induced injective self-occurrences, by count_occurrences; oracle use only."""
    if P.n > DEFAULT_ORACLE_BUDGET:
        raise SizeLimitError("|P| = %d exceeds oracle budget %d" % (P.n, DEFAULT_ORACLE_BUDGET))
    return count_occurrences(P, P, OccurrenceFlavor(induced=True, injective=True))


def count_le_bruteforce(P):
    """Exhaustive e(P) over all total orders; oracle use only."""
    if P.n > DEFAULT_ORACLE_BUDGET:
        raise SizeLimitError("|P| = %d exceeds oracle budget %d" % (P.n, DEFAULT_ORACLE_BUDGET))
    count = 0
    for order in permutations(range(P.n)):
        seen = 0
        for x in order:
            if P.up[x] & seen:
                break
            seen |= 1 << x
        else:
            count += 1
    return count
