"""Gallai trees and patterns deeper than the interpreter stack, under a
lowered recursion limit: every walk must be iterative or refuse in time."""

from math import comb

import pytest

from posetmatch import (
    OccurrenceFlavor,
    chain,
    count_automorphisms_dim2,
    count_linear_extensions,
    count_occurrences,
    gallai_tree,
    intrinsic_width,
    poset_from_permutation,
)
from posetmatch.decomp import reconstruct
from posetmatch.errors import SizeLimitError

from conftest import staircase

STEPS = 300


def test_staircase_automorphisms(low_recursion_limit):
    # each (+) step adds a two-element antichain; the (-) steps add a chain
    # that is never isomorphic to its sibling
    assert count_automorphisms_dim2(staircase(STEPS)) == 2 ** ((STEPS + 1) // 2)


def test_staircase_linear_extensions(low_recursion_limit):
    expected, n = 1, 1
    for step in range(STEPS):
        expected *= 2 if step % 2 == 0 else comb(n + 2, 2)
        n += 2
    assert count_linear_extensions(poset_from_permutation(staircase(STEPS))) == expected


def test_staircase_tree_walks(low_recursion_limit):
    P = poset_from_permutation(staircase(STEPS))
    tree = gallai_tree(P)
    kinds = [node.kind for node in tree.nodes() if node.kind != "leaf"]
    assert kinds[:3] == ["parallel", "series", "parallel"]
    # each step adds a root and a node for its two-element block
    assert len(kinds) == 2 * STEPS
    assert reconstruct(tree) == P
    assert intrinsic_width(P) == 1


def test_deep_trees_compare_hash_and_print(low_recursion_limit):
    P = poset_from_permutation(staircase(STEPS))
    tree, again = gallai_tree(P), gallai_tree(P)
    assert tree is not again and tree == again and hash(tree) == hash(again)
    assert tree != gallai_tree(poset_from_permutation(staircase(STEPS - 1)))
    assert repr(tree).startswith("GallaiTree('(P ")


def test_pattern_deeper_than_stack(low_recursion_limit):
    with pytest.raises(SizeLimitError, match="300-element pattern .* recursion limit of %d"
                       % low_recursion_limit):
        count_occurrences(chain(300), chain(300), OccurrenceFlavor(injective=True))
