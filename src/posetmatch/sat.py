"""3-SAT to permutation-pattern-matching reduction and its verifiers.

build_gadget turns a 3-CNF formula over n variables and m clauses into a
pattern permutation pi of length 4n+5m and a text permutation tau of
length 8n+35m, assembled from per-variable and per-clause blocks of
rational values and then rank-normalized.  verify_reduction counts
matches of pi in tau two independent ways and compares with exhaustive
#SAT.
"""

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .core import OccurrenceFlavor, Permutation, _ints, _lines, poset_from_permutation
from .errors import (
    ArityError,
    ConstraintError,
    FormatError,
    PolarityError,
    SizeLimitError,
    _check,
)
from .occur import count_occurrences

__all__ = [
    "Cnf3",
    "GadgetInstance",
    "VerifyReport",
    "parse_dimacs",
    "build_gadget",
    "count_satisfying",
    "verify_reduction",
]


@dataclass(frozen=True)
class Cnf3:
    """A 3-CNF formula: clauses are triples of (variable, is_positive)."""

    n: int
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise ArityError("clause %r does not have exactly 3 literals" % (clause,))
            polarity = {}
            for var, positive in clause:
                if not 1 <= var <= self.n:
                    raise FormatError("variable %d outside 1..%d" % (var, self.n))
                if polarity.setdefault(var, positive) != positive:
                    raise PolarityError("variable %d occurs with both polarities" % var)

    @property
    def m(self):
        return len(self.clauses)


@dataclass(frozen=True)
class GadgetInstance:
    """The reduction output plus the pre-normalization rational sequences."""

    pattern: Permutation
    text: Permutation
    pattern_values: tuple
    text_values: tuple


@dataclass(frozen=True)
class VerifyReport:
    method: str
    matches: int
    sat: int
    pairs: tuple = None  # (r, s) vectors accepted by the structured method
    all_induced: bool = None
    all_block_local: bool = None

    @property
    def verdict(self):
        return "PASS" if self.matches == self.sat else "FAIL"

    def __str__(self):
        return "matches=%d sat=%d verdict=%s" % (self.matches, self.sat, self.verdict)


def parse_dimacs(text):
    """DIMACS CNF subset: 'p cnf n m' then m lines of 3 literals ending in 0."""
    n = m = None
    clauses = []
    for lineno, parts in _lines(text, "c"):
        if parts[0] == "p":
            if n is not None:
                raise FormatError("line %d: duplicate header" % lineno)
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError("line %d: expected 'p cnf <n> <m>'" % lineno)
            n, m = _ints(parts[2:], "line %d: bad header counts", lineno)
            if n < 0 or m < 0:
                raise FormatError("line %d: negative count" % lineno)
        else:
            if n is None:
                raise FormatError("line %d: clause before header" % lineno)
            lits = _ints(parts, "line %d: non-integer literal", lineno)
            if not lits or lits[-1] != 0:
                raise FormatError("line %d: clause not terminated by 0" % lineno)
            lits = lits[:-1]
            if len(lits) != 3:
                raise ArityError("line %d: %d literals, expected 3" % (lineno, len(lits)))
            if any(lit == 0 for lit in lits):
                raise FormatError("line %d: zero literal inside clause" % lineno)
            clauses.append(tuple((abs(lit), lit > 0) for lit in lits))
    if n is None:
        raise FormatError("missing 'p cnf' header")
    if m != len(clauses):
        raise FormatError("header promises %d clauses, found %d" % (m, len(clauses)))
    return Cnf3(n, tuple(clauses))


def _rank_normalize(values):
    ranks = {v: r + 1 for r, v in enumerate(sorted(values))}
    if len(ranks) != len(values):
        raise ConstraintError("gadget values are not distinct")
    return Permutation([ranks[v] for v in values])


def build_gadget(f):
    """Construct the pattern/text pair for a 3-CNF formula.

    Variable blocks: pi^x_i = (2n+2i-1) i (2n-i+1) (2n+2i) and tau^x_i =
    (4n+4i-1) (2i-1) (4n-2i+2) (4n+4i) (4n+4i-3) (2i) (4n-2i+1) (4n+4i-2).
    Clause blocks pair pi^C_i = (4n+2i-1) u_i1 u_i2 u_i3 (4n+2i) with
    seven bracketed rows in tau^C_i, row s holding one value per literal
    slot: a "true" value t when binary digit j of s is 0 and a "false"
    value f when it is 1.

    Free parameters (the blocks only constrain them by intervals and
    orderings): all values for literal slot j of clause i share the
    denominator 24m+2.  The u value sits just above the running maximum
    of the slot's variables so far, which keeps it inside
    (a(i,j), 2n-a(i,j)+1) while staying strictly increasing down the
    slot.  The t and f values for a variable a cluster in (2a, 2a+1), an
    interval interior to both T_a = (2a-1, 4n-2a+2) and
    F_a = (2a, 4n-2a+1), increasing with (clause, slot, k); that gives
    the required within-clause orderings and cross-clause growth even
    when a variable changes polarity between clauses.  Slots are indexed
    separately so a clause repeating a variable still gets distinct
    values.  One loop per clause block builds its u, t and f values and
    all seven rows, so the t/f placement lives in its per-slot loop.
    Everything is asserted post-construction.
    """
    n, m = f.n, f.m
    denom = 24 * m + 2
    pattern, text = [], []
    for i in range(1, n + 1):
        pattern += [2 * n + 2 * i - 1, i, 2 * n - i + 1, 2 * n + 2 * i]
        text += [4 * n + 4 * i - 1, 2 * i - 1, 4 * n - 2 * i + 2, 4 * n + 4 * i,
                 4 * n + 4 * i - 3, 2 * i, 4 * n - 2 * i + 1, 4 * n + 4 * i - 2]
    u, t, fv = {}, {}, {}
    runmax = [0, 0, 0]
    for i, clause in enumerate(f.clauses, 1):
        draws = []  # per slot: its t values and its f values, in the order rows take them
        for j, (var, _) in enumerate(clause, 1):
            runmax[j - 1] = max(runmax[j - 1], var)
            u[i, j] = runmax[j - 1] + Fraction(21 * m + 3 * (i - 1) + j, denom)
            base = 21 * (i - 1) + 7 * (j - 1)
            for k in (1, 2, 3, 4):
                t[i, j, k] = 2 * var + Fraction(base + k, denom)
            for k in (1, 2, 3):
                fv[i, j, k] = 2 * var + Fraction(base + 4 + k, denom)
            draws.append((iter([t[i, j, k] for k in (1, 2, 3, 4)]), iter([fv[i, j, k] for k in (1, 2, 3)])))
        pattern += [4 * n + 2 * i - 1, u[i, 1], u[i, 2], u[i, 3], 4 * n + 2 * i]
        for s in range(7):  # binary digit j of s, slot 1 the highest: 0 takes a t, 1 an f
            text.append(8 * n + 14 * i - 1 - 2 * s)
            text += [next(slot[s >> 3 - j & 1]) for j, slot in enumerate(draws, 1)]
            text.append(8 * n + 14 * i - 2 * s)

    _assert_gadget_constraints(f, u, t, fv, pattern, text)
    return GadgetInstance(_rank_normalize(pattern), _rank_normalize(text),
                          tuple(pattern), tuple(text))


def _assert_gadget_constraints(f, u, t, fv, pattern, text):
    n, m = f.n, f.m
    if len(pattern) != 4 * n + 5 * m or len(text) != 8 * n + 35 * m:
        raise ConstraintError("gadget block lengths are wrong")
    # by transitivity, beating the last u and each variable's earlier maxima suffices
    t_top, f_top = {}, {}
    for i in range(1, m + 1):
        for j in (1, 2, 3):
            var, positive = f.clauses[i - 1][j - 1]
            if not var < u[i, j] < 2 * n - var + 1:
                raise ConstraintError("u[%d,%d] outside its interval" % (i, j))
            t_interval = (2 * var - 1, 4 * n - 2 * var + 2) if positive else (2 * var, 4 * n - 2 * var + 1)
            f_interval = (2 * var, 4 * n - 2 * var + 1) if positive else (2 * var - 1, 4 * n - 2 * var + 2)
            for k in (1, 2, 3, 4):
                if not t_interval[0] < t[i, j, k] < t_interval[1]:
                    raise ConstraintError("t[%d,%d,%d] outside its interval" % (i, j, k))
            for k in (1, 2, 3):
                if not f_interval[0] < fv[i, j, k] < f_interval[1]:
                    raise ConstraintError("f[%d,%d,%d] outside its interval" % (i, j, k))
            if not t[i, j, 1] < t[i, j, 2] < t[i, j, 3] < t[i, j, 4]:
                raise ConstraintError("t values out of order at (%d,%d)" % (i, j))
            if not fv[i, j, 1] < fv[i, j, 2] < fv[i, j, 3]:
                raise ConstraintError("f values out of order at (%d,%d)" % (i, j))
            if i > 1 and not u[i, j] > u[i - 1, j]:
                raise ConstraintError("u not increasing across clauses")
            if not t[i, j, 1] > t_top.get(var, 0):  # t, f > 0 by the intervals
                raise ConstraintError("t not increasing across clauses")
            if not fv[i, j, 1] > f_top.get(var, 0):
                raise ConstraintError("f not increasing across clauses")
        for j, (var, _) in enumerate(f.clauses[i - 1], 1):
            t_top[var] = max(t_top.get(var, 0), t[i, j, 4])
            f_top[var] = max(f_top.get(var, 0), fv[i, j, 3])


SAT_ORACLE_BUDGET = 20  # variables; 2^20 assignments make a 1 Mbit column


def count_satisfying(f):
    """#SAT by exhaustion over all 2^n assignments (n <= 20), bit-parallel:
    bit b of variable v's column is bit v - 1 of assignment b, and the
    models are the AND over the clauses of the OR of their literals."""
    if f.n > SAT_ORACLE_BUDGET:
        raise SizeLimitError("n = %d exceeds the #SAT oracle budget of %d variables" % (f.n, SAT_ORACLE_BUDGET))
    columns, size = [], 1
    for _ in range(f.n):  # double the assignments, the new variable on top
        columns = [c | c << size for c in columns] + [((1 << size) - 1) << size]
        size *= 2
    full = models = (1 << size) - 1
    for clause in f.clauses:
        hit = 0
        for var, positive in clause:
            hit |= columns[var - 1] if positive else full ^ columns[var - 1]
        models &= hit
    return models.bit_count()


def _block_local(f, assignment):
    """True iff each pattern block lands inside its own text block."""
    spans = [(8 * i, 8) for i in range(f.n) for _ in range(4)]
    spans += [(8 * f.n + 35 * i, 35) for i in range(f.m) for _ in range(5)]
    return all(lo < q <= lo + size for (lo, size), q in zip(spans, assignment))


def verify_reduction(f, method="structured", timeout=60.0):
    """Count matches of the gadget and compare with #SAT.

    method="backtrack" runs the occurrence counter on D(pi), D(tau)
    (non-induced, injective, unlabeled); method="structured" searches
    the (r, s)-indexed candidate maps block by block (_search_blocks),
    recording which pairs matched and whether every match is induced and
    block-local.  Either method raises TimeoutError once timeout seconds
    have passed, counted from entry, so #SAT and then building the gadget
    count against it too (a formula past #SAT's n <= 20 budget is refused
    before the gadget is built); timeout=None sets no deadline.
    """
    if method not in ("backtrack", "structured"):
        raise ValueError("unknown method %r" % method)
    if timeout is not None and not math.isfinite(timeout):
        raise ValueError("timeout must be a finite number of seconds or None, got %r" % timeout)
    deadline = time.monotonic() + timeout if timeout is not None else None
    sat = count_satisfying(f)
    _check(deadline, "#SAT")
    gadget = build_gadget(f)
    _check(deadline, "building the gadget")
    P = poset_from_permutation(gadget.pattern)
    Q = poset_from_permutation(gadget.text)
    _check(deadline, "building the gadget posets")
    if method == "backtrack":
        flavor = OccurrenceFlavor(induced=False, injective=True, unlabeled=True)
        return VerifyReport(method, count_occurrences(P, Q, flavor, deadline=deadline), sat)
    pairs, all_induced, all_local = _search_blocks(f, P, Q, deadline)
    return VerifyReport(method, len(pairs), sat, pairs, all_induced, all_local)


def _search_blocks(f, P, Q, deadline):
    """(pairs, all_induced, all_block_local) over f's structured candidates.

    Variable block i of P goes to bracket r_i in {0,1} of tau^x_i, clause
    block i to row s_i in 0..6 of tau^C_i.  Each pair of pattern elements
    lies in one block or pair of blocks, whose table entry (cached, 2^16 at
    most) says if the map preserves its order (1), also reflects it (2) or
    neither (0).  A depth-first search over the blocks, choices ascending,
    meets (r, s) in product order and cuts a prefix at its first 0.
    """
    n = f.n
    blocks = [(4 * i, 4, (8 * i, 8 * i + 4)) for i in range(n)]
    blocks += [(4 * n + 5 * i, 5, range(8 * n + 35 * i, 8 * n + 35 * (i + 1), 5)) for i in range(f.m)]

    @functools.lru_cache(maxsize=1 << 16)
    def entry(b, c, b2, c2):
        out = 2
        for (start, size, hosts), k, (start2, size2, hosts2), k2 in (
                (blocks[b], c, blocks[b2], c2), (blocks[b2], c2, blocks[b], c)):
            for j in range(size):
                want = P.up[start + j] >> start2 & (1 << size2) - 1
                got = Q.up[hosts[k] + j] >> hosts2[k2] & (1 << size2) - 1
                if want & ~got:
                    return 0
                if want != got:
                    out = 1
        return out

    pairs, all_induced, all_local = [], True, True
    stack = [((), 2)]  # (prefix, least entry on it), the next to expand last
    while stack:
        _check(deadline, "structured verification")
        p, low = stack.pop()
        if len(p) == len(blocks):
            pairs.append((p[:n], p[n:]))
            all_induced = all_induced and low == 2
            all_local = all_local and _block_local(f, [
                hosts[k] + j + 1 for (_, size, hosts), k in zip(blocks, p) for j in range(size)])
            continue
        grown = [(p + (c,), min([low] + [entry(len(p), c, b, k) for b, k in enumerate(p + (c,))]))
                 for c in range(len(blocks[len(p)][2]))]
        stack += [child for child in reversed(grown) if child[1]]
    return tuple(pairs), all_induced, all_local
