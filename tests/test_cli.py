"""End-to-end tests for the command-line front end."""

import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from posetmatch import chain, cli, decomp, errors, gallai_tree, poset_from_permutation
from posetmatch.core import format_permutation, format_poset
from posetmatch.cli import run
from posetmatch.decomp import tree_to_sexpr

from conftest import staircase


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


N_POSET = "p 4\nr 1 3\nr 2 3\nr 2 4\n"


# --- le ----------------------------------------------------------------------

def test_le_default(tmp_path):
    path = write(tmp_path, "n.poset", N_POSET)
    code, out, _ = invoke(["le", path])
    assert code == 0 and out == "5\n"


def test_le_methods_agree(tmp_path):
    path = write(tmp_path, "n.poset", N_POSET)
    for method in ("auto", "downset", "recurse", "brute"):
        code, out, _ = invoke(["le", path, "--method", method])
        assert code == 0 and out == "5\n", method


def test_le_check(tmp_path):
    path = write(tmp_path, "n.poset", N_POSET)
    code, out, _ = invoke(["le", path, "--check"])
    assert code == 0 and out == "5\n"


def test_le_check_mismatch_is_one_line(tmp_path, monkeypatch):
    path = write(tmp_path, "n.poset", N_POSET)
    monkeypatch.setitem(cli.LE_METHODS, "auto", lambda P: 6)
    assert invoke(["le", path, "--check"]) == (2, "", "error: le mismatch: 6 vs oracle 5\n")


def test_le_empty_poset_every_method(tmp_path):
    path = write(tmp_path, "empty.poset", "p 0\n")
    for method in ("auto", "downset", "recurse", "brute"):
        code, out, _ = invoke(["le", path, "--method", method])
        assert code == 0 and out == "1\n", method


def test_le_brute_budget_exit_code(tmp_path):
    big = "p 10\n"
    path = write(tmp_path, "anti.poset", big)
    code, _, err = invoke(["le", path, "--method", "brute"])
    assert code == 3 and "error:" in err


def _str(value):
    """str(value), with the int-to-str digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_counts_past_the_digit_limit(tmp_path):
    # 2000! has 5,736 digits, past the default limit of 4,300
    expected = _str(math.factorial(2000)) + "\n"
    path = write(tmp_path, "anti.poset", "p 2000\n")
    assert invoke(["le", path]) == (0, expected, "")
    assert invoke(["auts", " ".join(str(v) for v in range(2000, 0, -1))]) == (0, expected, "")


def test_le_downset_budget_is_one_line(tmp_path):
    # the projected down-set count 2^15000 is itself past the digit limit
    path = write(tmp_path, "anti.poset", "p 15000\n")
    code, out, err = invoke(["le", path, "--method", "downset"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# --- occur --------------------------------------------------------------------

def test_occur_count(tmp_path):
    pat = write(tmp_path, "pat.poset", "p 2\nr 1 2\n")
    txt = write(tmp_path, "txt.poset", "p 3\nr 1 2\nr 2 3\nr 1 3\n")
    code, out, _ = invoke(["occur", "--pattern", pat, "--text", txt,
                           "--injective", "--unlabeled"])
    assert code == 0 and out == "3\n"


def test_occur_enumerate(tmp_path):
    pat = write(tmp_path, "pat.poset", "p 2\nr 1 2\n")
    txt = write(tmp_path, "txt.poset", "p 3\nr 1 2\nr 2 3\nr 1 3\n")
    code, out, _ = invoke(["occur", "--pattern", pat, "--text", txt,
                           "--injective", "--unlabeled", "--enumerate"])
    assert code == 0
    assert out.splitlines() == ["1->1 2->2", "1->1 2->3", "1->2 2->3"]


def test_occur_enumerate_past_product_size(tmp_path):
    # 12^6 candidate maps would exceed the enumeration budget; 924 occurrences do not
    pat = write(tmp_path, "pat.poset", format_poset(chain(6)))
    txt = write(tmp_path, "txt.poset", format_poset(chain(12)))
    code, out, _ = invoke(["occur", "--pattern", pat, "--text", txt,
                           "--induced", "--injective", "--enumerate"])
    assert code == 0
    assert len(out.splitlines()) == 924


def test_occur_permutation_inputs(tmp_path):
    pat = write(tmp_path, "pat.perm", "2 1\n")
    txt = write(tmp_path, "txt.perm", "3 2 1\n")
    code, out, _ = invoke(["occur", "--pattern", pat, "--text", txt,
                           "--perm-pattern", "--perm-text",
                           "--induced", "--injective", "--unlabeled"])
    # D(2 1) is a 2-antichain; D(3 2 1) a 3-antichain: three unordered pairs
    assert code == 0 and out == "3\n"


def test_occur_pattern_deeper_than_stack(low_recursion_limit, tmp_path):
    path = write(tmp_path, "chain.poset", format_poset(chain(300)))
    code, out, err = invoke(["occur", "--pattern", path, "--text", path])
    assert code == 3 and out == ""
    assert err == "error: a 300-element pattern is too deep for the recursion limit of %d\n" % (
        low_recursion_limit)


# --- small verbs ---------------------------------------------------------------

def test_auts():
    code, out, _ = invoke(["auts", "3 2 1"])
    assert code == 0 and out == "6\n"


def test_decomp(tmp_path):
    path = write(tmp_path, "c.poset", "p 3\nr 1 2\nr 2 3\nr 1 3\n")
    code, out, _ = invoke(["decomp", path])
    assert code == 0 and out == "(S 1 2 3)\n"


def test_decomp_empty_poset(tmp_path):
    path = write(tmp_path, "empty.poset", "p 0\n")
    assert invoke(["decomp", path]) == (2, "", "error: empty poset has no decomposition\n")


def test_staircase_verbs(low_recursion_limit, tmp_path):
    steps = 300
    sigma = staircase(steps)
    code, out, err = invoke(["auts", format_permutation(sigma)])
    assert (code, out, err) == (0, "%d\n" % 2 ** ((steps + 1) // 2), "")
    P = poset_from_permutation(sigma)
    path = write(tmp_path, "staircase.poset", format_poset(P))
    code, out, err = invoke(["decomp", path])
    assert (code, out, err) == (0, tree_to_sexpr(gallai_tree(P)) + "\n", "")
    for verb in ("iwidth", "le"):
        code, out, err = invoke([verb, path])
        assert code == 0 and err == "", verb


def test_width_and_iwidth(tmp_path):
    path = write(tmp_path, "n.poset", N_POSET)
    code, out, _ = invoke(["width", path])
    assert code == 0 and out == "2\n"
    code, out, _ = invoke(["iwidth", path])
    assert code == 0 and out == "2\n"
    # the empty poset has no prime quotient, so the "1 if none" rule answers
    path = write(tmp_path, "empty.poset", "p 0\n")
    assert invoke(["iwidth", path]) == (0, "1\n", "")


def test_chains(tmp_path):
    path = write(tmp_path, "n.poset", N_POSET)
    code, out, _ = invoke(["chains", path])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert sorted(int(x) for line in lines for x in line.split()) == [1, 2, 3, 4]


def test_chains_independent_of_hash_seed(tmp_path):
    _, text, _ = invoke(["gen", "poset", "30", "0.08", "7"])
    path = write(tmp_path, "g.poset", text)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "posetmatch.cli", "chains", path],
                              env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] != ""


# --- sat verbs -----------------------------------------------------------------

def test_sat_reduce(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 1 1 0\n")
    pat_out = str(tmp_path / "pat.perm")
    txt_out = str(tmp_path / "txt.perm")
    code, out, _ = invoke(["sat-reduce", cnf, "--pattern-out", pat_out,
                           "--text-out", txt_out])
    assert code == 0
    assert len(open(pat_out).read().split()) == 9
    assert len(open(txt_out).read().split()) == 43


def test_sat_verify_report_line(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 1 1 0\n")
    code, out, _ = invoke(["sat-verify", cnf])
    assert code == 0
    fields = out.strip().split()
    assert fields[1] == "sat=1"
    assert fields[0].startswith("matches=") and fields[2].startswith("verdict=")


def test_sat_verify_timeout_exit_code(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 1 1 0\n")
    code, _, err = invoke(["sat-verify", cnf, "--method", "backtrack",
                           "--timeout", "0.05"])
    assert code == 3 and "error:" in err


def test_sat_verify_structured_reordered_slots(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 3\n1 2 3 0\n3 1 2 0\n2 -3 1 0\n")
    assert invoke(["sat-verify", cnf, "--method", "structured"]) == (
        0, "matches=0 sat=6 verdict=FAIL\n", "")


def test_sat_verify_structured_timeout_exit_code(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 1 1 0\n")
    code, out, err = invoke(["sat-verify", cnf, "--method", "structured", "--timeout", "1e-9"])
    assert (code, out) == (3, "") and err.startswith("error:") and len(err.splitlines()) == 1


def test_sat_verify_timeout_must_bound(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 1 1 0\n")
    for value in ("0", "-1", "nan", "inf", "abc"):
        code, out, err = invoke(["sat-verify", cnf, "--timeout", value])
        assert code == 1 and out == "" and "usage error" in err, value
        assert len(err.splitlines()) == 1, value


def test_sat_verify_bad_cnf(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 -1 1 0\n")
    code, _, err = invoke(["sat-verify", cnf])
    assert code == 2 and "error:" in err


def test_sat_verify_negative_header_count(tmp_path):
    for header in ("p cnf -1 0", "p cnf 1 -1"):
        cnf = write(tmp_path, "neg.cnf", header + "\n")
        code, out, err = invoke(["sat-verify", cnf])
        assert (code, out, err) == (2, "", "error: line 1: negative count\n"), header


# --- gen ------------------------------------------------------------------------

def test_gen_poset_deterministic():
    code1, out1, _ = invoke(["gen", "poset", "6", "0.4", "11"])
    code2, out2, _ = invoke(["gen", "poset", "6", "0.4", "11"])
    assert code1 == code2 == 0 and out1 == out2
    assert out1.startswith("p 6\n")


def test_gen_perm_deterministic():
    code1, out1, _ = invoke(["gen", "perm", "5", "3"])
    code2, out2, _ = invoke(["gen", "perm", "5", "3"])
    assert code1 == code2 == 0 and out1 == out2
    assert sorted(int(x) for x in out1.split()) == [1, 2, 3, 4, 5]


def test_gen_bad_size_is_usage_error():
    for argv in (["gen", "poset", "-5", "0.5", "1"], ["gen", "perm", "0", "1"],
                 ["gen", "perm", "-2", "1"], ["gen", "poset", "5", "abc", "1"],
                 ["gen", "perm", "5", "x"], ["gen", "perm", "100000000000000000000", "1"],
                 ["gen", "poset", "5", "nan", "1"], ["gen", "poset", "5", "-2", "1"],
                 ["gen", "poset", "5", "7", "1"], ["gen", "poset", "5", "inf", "1"]):
        code, out, err = invoke(argv)
        assert code == 1 and out == "" and "usage error" in err, argv


def test_gen_poset_refuses_too_many_draws_before_drawing(monkeypatch):
    # N = 10^6 would make about 5 * 10^11 draws; the refusal comes first
    start = time.monotonic()
    code, out, err = invoke(["gen", "poset", "1000000", "0.5", "1"])
    assert time.monotonic() - start < 1
    assert code == 3 and out == "" and err.count("\n") == 1
    assert "1000000" in err and str(cli.GEN_DRAWS) in err
    # the limit counts draws, N(N - 1) / 2: 10 allow N = 5 and refuse N = 6
    monkeypatch.setattr(cli, "GEN_DRAWS", 10)
    assert invoke(["gen", "poset", "5", "0.5", "1"])[0] == 0
    assert invoke(["gen", "poset", "6", "0.5", "1"])[0] == 3


def test_gen_roundtrip(tmp_path):
    _, text, _ = invoke(["gen", "poset", "7", "0.5", "4"])
    path = write(tmp_path, "g.poset", text)
    code, out, _ = invoke(["le", path, "--check"])
    assert code == 0 and int(out) >= 1


# --- error paths -----------------------------------------------------------------

def test_usage_error():
    code, _, err = invoke(["le"])
    assert code == 1 and "usage error" in err


def test_unknown_verb():
    code, _, err = invoke(["frobnicate"])
    assert code == 1


def test_missing_file():
    code, _, err = invoke(["le", "/nonexistent/file.poset"])
    assert code == 2 and "error:" in err


def test_bad_poset_file(tmp_path):
    path = write(tmp_path, "bad.poset", "p 3\nr 1 2\nr 2 1\nr 2 3\nr 1 3\n")
    code, _, err = invoke(["le", path])
    assert code == 2 and "error:" in err


def test_rejected_input_lines(tmp_path):
    # each rejection ends in exit 2 with one stderr line and nothing on stdout
    cases = [("le", "p\n", "line 1: expected 'p <n>'"),
             ("le", "p -1\n", "line 1: negative count"),
             ("le", "p 2\nr 1 x\n", "line 2: bad relation"),
             ("le", "p 2\nr 2 2\n", "reflexive pair (2, 2)"),
             ("sat-verify", "p cnf 1 1\np cnf 1 1\n1 1 1 0\n", "line 2: duplicate header"),
             ("sat-verify", "p cnf x 1\n", "line 1: bad header counts"),
             ("sat-verify", "p cnf 1 1\n1 y 1 0\n", "line 2: non-integer literal"),
             ("sat-verify", "p cnf 1 1\n1 0 1 0\n", "line 2: zero literal inside clause"),
             ("sat-verify", "c only a comment\n", "missing 'p cnf' header")]
    for verb, text, message in cases:
        path = write(tmp_path, "in.txt", text)
        assert invoke([verb, path]) == (2, "", "error: %s\n" % message), text


def test_non_utf8_input_is_a_format_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p 2\nr 1 \xff2\n")
    bad, good = str(bad), write(tmp_path, "n.poset", N_POSET)
    outs = ["--pattern-out", str(tmp_path / "pat.perm"), "--text-out", str(tmp_path / "txt.perm")]
    for argv in (["le", bad], ["occur", "--pattern", bad, "--text", good],
                 ["occur", "--pattern", good, "--text", bad], ["decomp", bad], ["width", bad],
                 ["iwidth", bad], ["chains", bad], ["sat-reduce", bad] + outs, ["sat-verify", bad]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "") and err.startswith("error: " + bad), argv
        assert err.count("\n") == 1, argv


def test_poset_count_past_maxsize(tmp_path):
    path = write(tmp_path, "huge.poset", "p 99999999999999999999999\n")
    code, out, err = invoke(["le", path])
    assert (code, out) == (2, "") and err.startswith("error: line 1: ") and err.count("\n") == 1


def test_unallocatable_size_is_a_budget_error(tmp_path):
    # at sys.maxsize the list's byte size overflows, so Python raises
    # MemoryError before it allocates anything
    path = write(tmp_path, "max.poset", "p %d\n" % sys.maxsize)
    for argv in (["width", path], ["gen", "perm", str(sys.maxsize), "1"]):
        code, out, err = invoke(argv)
        assert (code, out, err) == (3, "", "error: out of memory\n"), argv


def test_every_library_error_maps_to_its_exit_code(tmp_path, monkeypatch):
    path = write(tmp_path, "n.poset", N_POSET)
    budget = {errors.SizeLimitError, errors.MemoryBudgetError, errors.TimeoutError}
    kinds, stack = [], errors.PosetmatchError.__subclasses__()
    while stack:
        kinds.append(stack.pop())
        stack += kinds[-1].__subclasses__()
    assert budget < set(kinds) and errors.ArityError in kinds
    for kind in kinds:
        def fail(P, kind=kind):
            raise kind("injected %s" % kind.__name__)
        monkeypatch.setattr(decomp, "width", fail)
        expected = (3 if kind in budget else 2, "", "error: injected %s\n" % kind.__name__)
        assert invoke(["width", path]) == expected, kind
