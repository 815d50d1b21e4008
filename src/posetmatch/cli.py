"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 any other library or OS error, 3
budget or timeout exceeded.  All output is deterministic for fixed inputs/seeds.
"""

import argparse
import math
import random
import sys

from . import core, decomp, errors, lecount, occur, sat

BUDGET_ERRORS = (errors.SizeLimitError, errors.MemoryBudgetError, errors.TimeoutError, MemoryError)
LE_METHODS = {
    "auto": lecount.count_linear_extensions,
    "downset": lecount.count_le_downset_dp,
    "recurse": lecount.count_linear_extensions,
    "brute": lecount.count_le_bruteforce,
}
GEN_DRAWS = 2_000_000  # gen poset N makes N(N - 1) / 2 random draws, so N <= 2,000


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise errors.FormatError("%s: byte %d is not UTF-8" % (path, exc.start)) from None


def _load_poset(path, as_permutation=False):
    text = _read(path)
    if as_permutation:
        return core.poset_from_permutation(core.parse_permutation(text))
    return core.parse_poset(text)


def _real(accept, expected):
    """Argument type: a float that accept holds for (nan fails every comparison)."""
    def real(text):
        value = float(text)
        if not accept(value):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
        return value
    return real


def _size(least):
    """Argument type: an integer n with least <= n <= sys.maxsize."""
    def size(text):
        value = int(text)
        if not least <= value <= sys.maxsize:
            raise argparse.ArgumentTypeError("expected %d <= n <= %d, got %r" % (least, sys.maxsize, text))
        return value
    return size


_CHUNK = 10 ** 1000


def _decimal(count):
    """A count in decimal, built in chunks of 1,000 digits so that counts
    past Python's int-to-str digit limit still print."""
    chunks = []
    while count >= _CHUNK:
        count, low = divmod(count, _CHUNK)
        chunks.append("%01000d" % low)
    return "%d" % count + "".join(reversed(chunks))


def build_parser():
    parser = Parser(prog="posetmatch")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("le", help="count linear extensions")
    p.add_argument("poset")
    p.add_argument("--method", choices=list(LE_METHODS), default="auto")
    p.add_argument("--check", action="store_true",
                   help="also run the brute-force oracle and fail on mismatch")
    p.set_defaults(run=_run_le)

    p = sub.add_parser("occur", help="count or enumerate occurrences")
    p.add_argument("--pattern", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--perm-pattern", action="store_true")
    p.add_argument("--perm-text", action="store_true")
    p.add_argument("--induced", action="store_true")
    p.add_argument("--injective", action="store_true")
    p.add_argument("--unlabeled", action="store_true")
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(run=_run_occur)

    p = sub.add_parser("auts", help="count automorphisms of a permutation")
    p.add_argument("perm", help="one-line permutation, e.g. \"2 1\"")
    p.set_defaults(run=lambda args, out: out.write(
        _decimal(lecount.count_automorphisms_dim2(core.parse_permutation(args.perm))) + "\n"))

    for verb, text in (("decomp", lambda P: decomp.tree_to_sexpr(decomp.gallai_tree(P)) + "\n"),
                       ("width", lambda P: "%d\n" % decomp.width(P)),
                       ("iwidth", lambda P: "%d\n" % decomp.intrinsic_width(P)),
                       ("chains", lambda P: "".join(" ".join(map(str, seq)) + "\n"
                                                    for seq in decomp.dilworth(P).chains))):
        p = sub.add_parser(verb)
        p.add_argument("poset")
        p.set_defaults(run=lambda args, out, text=text: out.write(text(_load_poset(args.poset))))

    p = sub.add_parser("sat-reduce", help="write the 3-SAT gadget")
    p.add_argument("cnf")
    p.add_argument("--pattern-out", required=True)
    p.add_argument("--text-out", required=True)
    p.set_defaults(run=_run_sat_reduce)

    p = sub.add_parser("sat-verify", help="verify the reduction on a formula")
    p.add_argument("cnf")
    p.add_argument("--method", choices=["backtrack", "structured"], default="structured")
    p.add_argument("--timeout", type=_real(lambda s: 0 < s < math.inf, "0 < seconds < inf"), default=60.0)
    p.set_defaults(run=lambda args, out: out.write(str(sat.verify_reduction(
        sat.parse_dimacs(_read(args.cnf)), method=args.method, timeout=args.timeout)) + "\n"))

    kinds = sub.add_parser("gen", help="generate seeded instances").add_subparsers(
        dest="kind", required=True)
    p = kinds.add_parser("poset")
    p.add_argument("n", type=_size(0))
    p.add_argument("prob", type=_real(lambda p: 0 <= p <= 1, "0 <= p <= 1"), help="edge probability")
    p.add_argument("seed", type=int)
    p.set_defaults(run=_run_gen_poset)
    p = kinds.add_parser("perm")
    p.add_argument("n", type=_size(1))
    p.add_argument("seed", type=int)
    p.set_defaults(run=_run_gen_perm)

    return parser


def _run_le(args, out):
    P = _load_poset(args.poset)
    value = LE_METHODS[args.method](P)
    if args.check:
        oracle = lecount.count_le_bruteforce(P)
        if oracle != value:
            raise errors.ConstraintError("le mismatch: %d vs oracle %d" % (value, oracle))
    out.write(_decimal(value) + "\n")


def _run_occur(args, out):
    P = _load_poset(args.pattern, args.perm_pattern)
    Q = _load_poset(args.text, args.perm_text)
    flavor = core.OccurrenceFlavor(args.induced, args.injective, args.unlabeled)
    if args.enumerate:
        for occ in occur.enumerate_occurrences(P, Q, flavor):
            out.write(" ".join("%d->%d" % (v + 1, q) for v, q in enumerate(occ.assignment)) + "\n")
    else:
        out.write(_decimal(occur.count_occurrences(P, Q, flavor)) + "\n")


def _run_sat_reduce(args, out):
    gadget = sat.build_gadget(sat.parse_dimacs(_read(args.cnf)))
    with open(args.pattern_out, "w", encoding="utf-8") as handle:
        handle.write(core.format_permutation(gadget.pattern))
    with open(args.text_out, "w", encoding="utf-8") as handle:
        handle.write(core.format_permutation(gadget.text))


def _run_gen_poset(args, out):
    if args.n * (args.n - 1) // 2 > GEN_DRAWS:
        raise errors.SizeLimitError("gen poset %d needs %d random draws, more than the limit of %d"
                                    % (args.n, args.n * (args.n - 1) // 2, GEN_DRAWS))
    rng = random.Random(args.seed)
    pairs = [(a, b) for a in range(1, args.n + 1) for b in range(a + 1, args.n + 1)
             if rng.random() < args.prob]
    out.write(core.format_poset(core.poset_from_relations(args.n, pairs)))


def _run_gen_perm(args, out):
    img = list(range(1, args.n + 1))
    random.Random(args.seed).shuffle(img)
    out.write(core.format_permutation(core.Permutation(img)))


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = build_parser().parse_args(argv)
        args.run(args, out)
    except UsageError as exc:
        err.write("usage error: %s\n" % exc)
        return 1
    except BUDGET_ERRORS as exc:
        err.write("error: %s\n" % (str(exc) or "out of memory"))
        return 3
    except (errors.PosetmatchError, OSError) as exc:
        err.write("error: %s\n" % exc)
        return 2
    return 0


def main():
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
