"""Modular (Gallai) decomposition, quotients, and Dilworth chain covers.

The decomposition follows Gallai's trichotomy: a poset on two or more
elements is parallel when its comparability graph is disconnected, series
when the complement is disconnected, and prime otherwise, in which case
the maximal proper strong modules partition the ground set.  These
classes come from two vertex partition refinements (Ehrenfeucht, Gabow,
McConnell and Sullivan 1994): each maximal module avoiding the least
element x is a class or lies in x's class.  x's class absorbs them in
turn by minimal modules until one fills the node, which makes that part a
class C_y, and x's class is x's maximal module avoiding y.  One closure
grows both the graph components and the minimal modules.
"""

from dataclasses import dataclass

from .core import Poset, _bits, _collapse, _permutation_encoding, restrict
from .errors import ConstraintError, NotAModuleError, RangeError

__all__ = [
    "GallaiTree",
    "ChainDecomposition",
    "is_module",
    "gallai_tree",
    "quotient",
    "dilworth",
    "width",
    "intrinsic_width",
    "tree_to_sexpr",
    "reconstruct",
]


@dataclass(frozen=True, eq=False, repr=False)
class GallaiTree:
    """One node of the strong-module tree.

    elements holds the global (1-based) ground-set subset this node
    induces; children are in quotient order for series nodes and sorted by
    smallest element otherwise.  quotient is the poset on the children (in
    child order) and is populated for prime nodes.  Comparing, hashing and
    printing walk the tree without recursion, so deep trees are safe.
    """

    kind: str  # "leaf" | "series" | "parallel" | "prime"
    elements: tuple
    children: tuple = ()
    quotient: Poset = None

    def nodes(self):
        """Every node of the subtree in pre-order, children left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __eq__(self, other):
        # the pre-order nodes with their child counts fix the tree's shape
        key = lambda tree: [(n.kind, n.elements, len(n.children), n.quotient) for n in tree.nodes()]
        return isinstance(other, GallaiTree) and key(self) == key(other)

    def __hash__(self):
        return hash((self.kind, self.elements))

    def __repr__(self):
        return "GallaiTree(%r)" % tree_to_sexpr(self)


@dataclass(frozen=True)
class ChainDecomposition:
    """Disjoint chains (increasing element sequences) covering the poset."""

    chains: tuple


def is_module(P, T):
    """True iff every element outside T relates to all of T uniformly."""
    mask = 0
    for x in T:
        if not 1 <= x <= P.n:
            raise RangeError("element %r outside 1..%d" % (x, P.n))
        mask |= 1 << (x - 1)
    return _min_module(P, mask, (1 << P.n) - 1) == mask


def _close(seed, scope, grow):
    """The least superset of the seed bitmask inside scope that holds
    grow(t) & scope for each of its members t.  Each member is taken once,
    the least waiting one first, and the growth stops when none is left or
    as soon as the set fills the scope."""
    T = todo = seed
    while todo:
        t = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        new = grow(t) & scope & ~T
        if new:
            T |= new
            if T == scope:
                break
            todo |= new
    return T


def _components(scope, neighbors):
    """Connected components of a graph on the scope bitmask, given by a
    neighbor-mask function, in order of their least elements."""
    comps = []
    while scope:
        comps.append(_close(scope & -scope, scope, neighbors))
        scope &= ~comps[-1]
    return comps


def _min_module(P, seed_mask, scope_mask):
    """Smallest module of P (within scope) containing the seed elements: an
    element outside a module relates to each member t as to the least
    member s, so the seed grows by the elements of the scope above or below
    exactly one of t and s, until it is closed or fills the scope.  An
    empty seed stays empty."""
    s = (seed_mask & -seed_mask).bit_length() - 1
    up, down = P.up, P.down
    return _close(seed_mask, scope_mask, lambda t: (up[t] ^ up[s]) | (down[t] ^ down[s]))


def _modules_avoiding(P, scope, vbit):
    """The scope's maximal modules avoiding vbit, by least element: a splitter z cuts each
    part of scope - vbit without z into its members above, below and incomparable to z,
    and the members of a part that splits are splitters again."""
    open_parts, done = [scope & ~vbit], []  # parts of two or more, singletons
    splitters = scope
    while splitters and open_parts:
        z = (splitters & -splitters).bit_length() - 1
        splitters &= splitters - 1
        cut = []
        for part in open_parts:
            up, down = part & P.up[z], part & P.down[z]
            if part >> z & 1 or part in (up, down) or not up | down:
                cut.append(part)
                continue
            splitters |= part
            for p in (up, down, part & ~(up | down)):
                if p:
                    (cut if p & (p - 1) else done).append(p)
        open_parts = cut
    return sorted(open_parts + done, key=lambda m: m & -m)


def _split(P, scope):
    """Gallai's trichotomy on a nonempty bitmask: the node kind, the
    children's bitmasks in GallaiTree child order, and the quotient on
    their least elements for prime nodes."""
    if scope & (scope - 1) == 0:
        return "leaf", [], None
    comps = _components(scope, lambda v: P.up[v] | P.down[v])
    if len(comps) > 1:
        return "parallel", comps, None

    cocomps = _components(scope, lambda v: ~(P.up[v] | P.down[v]))
    if len(cocomps) > 1:
        # across co-components every pair is comparable, so the more
        # elements lie below a co-component's least element, the higher
        # the co-component sits
        cocomps.sort(key=lambda m: (P.down[(m & -m).bit_length() - 1] & scope).bit_count())
        return "series", cocomps, None

    # Prime: every proper module lies in one class, so each maximal module
    # avoiding the least element x outside x's class is a class.  Walking
    # them, x's class so far grows to its minimal module with each part
    # while that is proper; the first part whose module fills the scope is
    # a class C_y, and x's class is x's maximal module avoiding y.
    xbit = scope & -scope
    parts = _modules_avoiding(P, scope, xbit)
    cls = xbit
    for part in parts:
        if not part & cls:
            cls = _min_module(P, cls | part, scope)
            if cls == scope:
                cls = next(p for p in _modules_avoiding(P, scope, part & -part) if p & xbit)
                break
    classes = [cls] + [part for part in parts if not part & cls]
    if len(classes) < 4:
        raise ConstraintError("prime node with %d children" % len(classes))
    return "prime", classes, restrict(P, [(m & -m).bit_length() for m in classes])


def gallai_tree(P):
    """The full strong-module tree of P, split top-down and breadth first
    so that each node's children follow it together in the work list, then
    assembled from the end, each node's elements merged from its children's."""
    if P.n < 1:
        raise RangeError("empty poset has no decomposition")
    masks = [(1 << P.n) - 1]
    splits = []  # splits[i]: (kind, index of first child, child count, quotient)
    for mask in masks:  # grows while it is walked
        kind, parts, quot = _split(P, mask)
        splits.append((kind, len(masks), len(parts), quot))
        masks.extend(parts)
    nodes = [None] * len(masks)
    for i in reversed(range(len(masks))):
        kind, first, count, quot = splits[i]
        children = tuple(nodes[first:first + count])
        elements = sorted([x for c in children for x in c.elements]) if count else [masks[i].bit_length()]
        nodes[i] = GallaiTree(kind, tuple(elements), children, quot)
    return nodes[0]


def fold_tree(tree, fold):
    """Evaluate fold(node, values of its children) children first, without
    recursion, and return the root's value."""
    values = {}
    for node in reversed(list(tree.nodes())):
        values[id(node)] = fold(node, [values.pop(id(c)) for c in node.children])
    return values[id(tree)]


def quotient(P, parts):
    """Poset on the given module partition; blocks are checked."""
    seen = 0
    for i, part in enumerate(parts, 1):
        if not part:
            raise NotAModuleError("block %d is empty" % i)
        if not is_module(P, part):
            raise NotAModuleError("block %r is not a module" % (sorted(part),))
        for x in part:
            bit = 1 << (x - 1)
            if seen & bit:
                raise NotAModuleError("element %d appears in two blocks" % x)
            seen |= bit
    if seen != (1 << P.n) - 1:
        raise NotAModuleError("blocks do not cover the ground set")
    return _collapse(P, parts)


def dilworth(P):
    """Minimum chain cover via maximum matching on the split graph.

    Matching a's copy to b's copy fuses a < b into a common chain; the
    cover has n - |matching| chains, which is the width.  The matching
    grows by one augmenting path per element, found by a depth-first
    search with an explicit stack that tries successors lowest first, so
    the cover depends on P alone.
    """
    n = P.n
    succ = [-1] * n  # succ[a] = b: a's copy is matched to b's copy
    pred = [-1] * n
    for root in range(n):
        visited = 0
        path = [root]  # left copies on the alternating path
        via = []  # via[i]: right copy leading from path[i] to path[i + 1]
        while path:
            free = P.up[path[-1]] & ~visited
            if not free:
                path.pop()
                if via:
                    via.pop()
                continue
            bit = free & -free
            visited |= bit
            b = bit.bit_length() - 1
            via.append(b)
            if pred[b] < 0:
                for x, y in zip(path, via):
                    succ[x], pred[y] = y, x
                break
            path.append(pred[b])
    chains = []
    for start in range(n):
        if pred[start] < 0:
            seq = [start]
            while succ[seq[-1]] >= 0:
                seq.append(succ[seq[-1]])
            chains.append(tuple(x + 1 for x in seq))
    return ChainDecomposition(tuple(chains))


def width(P):
    """Size of the largest antichain (Dilworth)."""
    return len(dilworth(P).chains)


def intrinsic_width(P):
    """Maximum width over prime quotients of the Gallai tree; 1 if none."""
    if P.n == 0:  # gallai_tree refuses it, and it has no prime quotient
        return 1
    return max((width(node.quotient) for node in gallai_tree(P).nodes() if node.kind == "prime"), default=1)


def tree_to_sexpr(tree):
    """Parenthesized serialization: leaf ids, (S ...), (P ...), (X[q] ...)."""

    def fold(node, parts):
        if node.kind == "leaf":
            return str(node.elements[0])
        inner = " ".join(parts)
        if node.kind != "prime":
            return "(%s %s)" % ("S" if node.kind == "series" else "P", inner)
        perm = _permutation_encoding(node.quotient)
        if perm is not None:
            enc = " ".join(str(v) for v in perm.img)
        else:
            enc = ",".join("%d<%d" % (a, b) for a, b in node.quotient.cover_pairs())
        return "(X[%s] %s)" % (enc, inner)

    return fold_tree(tree, fold)


def reconstruct(tree):
    """Rebuild restrict(P, tree.elements) from any node of gallai_tree(P),
    on its elements in natural order.  Each child is handed the siblings
    above and below it (later and earlier ones at a series node, at a prime
    node the ones its quotient rows' set bits name), and a leaf ORs them."""
    index = {e: i for i, e in enumerate(tree.elements)}
    mask = {}  # each node's elements, as bits at their positions in tree.elements
    fold_tree(tree, lambda node, kids: mask.setdefault(id(node), sum(kids) or 1 << index[node.elements[0]]))
    up, down = [0] * len(index), [0] * len(index)
    stack = [(tree, 0, 0)]
    while stack:
        node, above, below = stack.pop()
        if node.kind == "leaf":
            up[index[node.elements[0]]], down[index[node.elements[0]]] = above, below
        kids, before = [mask[id(c)] for c in node.children], 0
        for i, child in enumerate(node.children):
            a, b = (mask[id(node)] ^ before ^ kids[i], before) if node.kind == "series" else (0, 0)
            if node.kind == "prime":
                a, b = (sum(map(kids.__getitem__, _bits(r[i]))) for r in (node.quotient.up, node.quotient.down))
            before |= kids[i]
            stack.append((child, above | a, below | b))
    return Poset(len(index), up, down)
