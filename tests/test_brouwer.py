"""Ordinal trees, the alternative cover presentation, and the labelled-tree sheaf."""
import pytest
from hypothesis import given, settings, strategies as st

from brouwer_oracle import tree_cover_test as recomputing_tree_cover_test
from sheafbench import brouwer, suites
from sheafbench.brouwer import (
    LEAF,
    AltBaireReport,
    BrouwerTree,
    NotBelowRoot,
    TreeQuotient,
    alt_baire_equiv_check,
    bo_sheaf_checks,
    disjoint_covers,
    enumerate_labelled,
    enumerate_trees,
    glue_trees,
    graft,
    k_map,
    labelled_tree,
    restrict_tree,
    sup_at,
    sup_star,
    tree_cover_test,
)
from sheafbench.double import build_double
from sheafbench.maps import STAR, one_point_space
from sheafbench.points import eventually_constant_points
from sheafbench.site import Sieve
from sheafbench.spaces import baire_space, cantor_space


def sup(children) -> BrouwerTree:
    """The node with the given subtrees, one per branch."""
    return BrouwerTree(tuple(children))


def _images(space, u) -> tuple:
    """``(tree, k_map(tree))`` for every tree the open ``u`` has depth left for."""
    trees = enumerate_trees(space.branch, space.depth - len(u))
    return tuple((t, k_map(t, space.branch)) for t in trees)


# ------------------------------------------------------------- ordinal trees


def test_k_map_of_the_leaf_is_the_empty_sequence():
    assert k_map(LEAF, 2) == frozenset({()})
    assert k_map(LEAF, 3) == frozenset({()})


def test_k_map_unfolds_one_level_to_the_children():
    assert k_map(sup((LEAF, LEAF)), 2) == frozenset({(0,), (1,)})
    assert k_map(sup((LEAF, LEAF, LEAF)), 3) == frozenset({(0,), (1,), (2,)})


def test_k_map_of_an_uneven_tree():
    tree = sup((sup((LEAF, LEAF)), LEAF))
    assert k_map(tree, 2) == frozenset({(0, 0), (0, 1), (1,)})


def test_k_map_rejects_wrong_arity():
    with pytest.raises(ValueError):
        k_map(sup((LEAF,)), 2)
    deep = sup((LEAF, sup((LEAF, LEAF))))
    assert k_map(deep, 2) == frozenset({(0,), (1, 0), (1, 1)})


def test_tree_enumeration_counts_and_shapes():
    counts = [len(enumerate_trees(2, d)) for d in range(4)]
    assert counts == [1, 2, 5, 26]
    trees = enumerate_trees(2, 2)
    assert len(set(trees)) == len(trees)
    assert all(t.depth <= 2 for t in trees)
    assert trees[0] is LEAF


def test_grafting_realises_unions_of_member_covers():
    base = sup((LEAF, sup((LEAF, LEAF))))
    grafts = {(0,): sup((LEAF, LEAF)), (1, 0): LEAF, (1, 1): sup((LEAF, LEAF))}
    composed = graft(base, grafts)
    expected = {(0, 0), (0, 1), (1, 0), (1, 1, 0), (1, 1, 1)}
    assert k_map(composed, 2) == frozenset(expected)


# ---------------------------------------------- alternative cover presentation


def test_child_family_sieve_is_covered_with_a_depth_one_tree():
    space = baire_space(2, 2)
    sieve = Sieve.from_generators(space.basis, (), ((0,), (1,)))
    assert space.topology.cover((), sieve).covered
    assert tree_cover_test((), sieve, _images(space, ())) == sup((LEAF, LEAF))


def test_maximal_sieve_is_witnessed_by_the_leaf():
    space = baire_space(2, 2)
    assert tree_cover_test((), Sieve.maximal(space.basis, ()), _images(space, ())) is LEAF


def test_one_sided_sieve_has_no_tree_witness():
    space = baire_space(2, 2)
    sieve = Sieve.from_generators(space.basis, (), ((0,),))
    assert not space.topology.cover((), sieve).covered
    assert tree_cover_test((), sieve, _images(space, ())) is None


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3]), st.integers(0, 3))
def test_tree_cover_test_on_images_agrees_with_the_recomputing_oracle(data, branch, depth):
    space = baire_space(branch, depth)
    u = data.draw(st.sampled_from(space.basis.elements))
    below = space.basis.down(u)
    gens = data.draw(st.lists(st.sampled_from(below), max_size=len(below)))
    sieve = Sieve.from_generators(space.basis, u, gens)
    images = _images(space, u)
    assert tree_cover_test(u, sieve, images) == recomputing_tree_cover_test(space, u, sieve)


@pytest.mark.parametrize("branch,depth", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_tree_covers_agree_with_the_generated_topology(branch, depth):
    report = alt_baire_equiv_check(branch, depth)
    assert isinstance(report, AltBaireReport)
    assert report.cover_disagreements == ()
    assert report.union_failures == ()
    assert report.restriction_failures == ()
    assert report.ok
    assert report.checked_sieves > 0


# ------------------------------------------------------------ labelled trees


def test_labelled_tree_factory_rejects_bad_labels():
    space = cantor_space(1)
    with pytest.raises(ValueError, match="overlap"):
        labelled_tree(space, 2, (), ((), (0,)), (0, 0))
    with pytest.raises(ValueError, match="cover"):
        labelled_tree(space, 2, (), ((0,),), (0,))
    with pytest.raises(NotBelowRoot):
        labelled_tree(space, 2, (0,), ((1,),), (0,))
    with pytest.raises(ValueError, match="flagged edges"):
        labelled_tree(space, 2, (), ((),), (1,), {})
    with pytest.raises(ValueError, match="rooted"):
        labelled_tree(
            space, 2, (), ((),), (1,),
            {((), 0): sup_star(space, 2, (0,)), ((), 1): sup_star(space, 2, ())},
        )


def test_disjoint_covers_of_the_cantor_root():
    space = cantor_space(1)
    assert set(disjoint_covers(space, ())) == {((),), ((0,), (1,))}
    assert disjoint_covers(space, (0,)) == (((0,),),)


def test_restricting_a_leaf_tree_gives_the_leaf_tree():
    space = cantor_space(1)
    got = restrict_tree(space, 2, sup_star(space, 2, ()), (0,))
    assert got == sup_star(space, 2, (0,))


def test_restriction_to_the_root_is_the_identity_up_to_equivalence():
    space = cantor_space(1)
    eq = TreeQuotient(space, 2).eq
    for tree in enumerate_labelled(space, 2, (), 2):
        assert eq(restrict_tree(space, 2, tree, ()), tree)


def test_restriction_descends_into_subtrees():
    space = cantor_space(2)
    inner = sup_at(
        space, 2, (), (sup_star(space, 2, ()), sup_star(space, 2, ()))
    )
    restricted = restrict_tree(space, 2, inner, (0,))
    assert restricted.root == (0,)
    assert restricted.child((0,), 0).root == (0,)
    expected = sup_at(
        space, 2, (0,), (sup_star(space, 2, (0,)), sup_star(space, 2, (0,)))
    )
    assert TreeQuotient(space, 2).eq(restricted, expected)


def test_restriction_of_a_two_level_tree_matches_a_hand_built_one():
    space = cantor_space(2)
    deep = sup_at(
        space, 2, (0,), (sup_star(space, 2, (0,)), sup_star(space, 2, (0,)))
    )
    tree = labelled_tree(
        space, 2, (), ((0,), (1,)), (1, 0),
        {((0,), 0): deep, ((0,), 1): sup_star(space, 2, (0,))},
    )
    restricted = restrict_tree(space, 2, tree, (0,))
    expected = labelled_tree(
        space, 2, (0,), ((0,),), (1,),
        {((0,), 0): deep, ((0,), 1): sup_star(space, 2, (0,))},
    )
    assert TreeQuotient(space, 2).eq(restricted, expected)
    with pytest.raises(NotBelowRoot):
        restrict_tree(space, 2, deep, (1,))


def test_equivalence_matches_partition_membership_exhaustively():
    space = cantor_space(1)
    quotient = TreeQuotient(space, 2)
    eq = quotient.eq
    for root in space.basis.elements:
        trees = enumerate_labelled(space, 2, root, 2)
        reps = []
        owner = {}
        for tree in trees:
            for rep in reps:
                if eq(rep, tree):
                    owner[tree] = rep
                    break
            else:
                reps.append(tree)
                owner[tree] = tree
        for v in trees:
            for w in trees:
                assert eq(v, w) == (owner[v] is owner[w])
        assert [cls[0] for cls in quotient.classes(trees)] == reps


def test_refining_a_piece_preserves_equivalence_but_not_identity():
    space = cantor_space(1)
    coarse = sup_star(space, 2, ())
    fine = labelled_tree(space, 2, (), ((0,), (1,)), (0, 0))
    assert coarse != fine
    assert TreeQuotient(space, 2).eq(coarse, fine)


def test_flag_disagreement_breaks_equivalence():
    space = cantor_space(1)
    leaf = sup_star(space, 2, ())
    join = sup_at(space, 2, (), (leaf, leaf))
    assert not TreeQuotient(space, 2).eq(leaf, join)


def test_equivalence_is_computed_once_per_unordered_pair(monkeypatch):
    # the verdict is symmetric, so eq(w, v) reads what eq(v, w) stored
    space = cantor_space(1)
    trees = enumerate_labelled(space, 2, (), 1)
    restrict, calls = brouwer.restrict_tree, []

    def counted_restrict(*args):
        calls.append(args)
        return restrict(*args)

    monkeypatch.setattr(brouwer, "restrict_tree", counted_restrict)
    for v in trees:
        for w in trees:
            quotient = TreeQuotient(space, 2)
            verdict = quotient.eq(v, w)
            stored, restricted = len(quotient._verdicts), len(calls)
            assert quotient.eq(w, v) == verdict
            assert (len(quotient._verdicts), len(calls)) == (stored, restricted)


def test_amalgamation_of_leaf_and_join_parts_is_unique():
    space = cantor_space(1)
    eq = TreeQuotient(space, 2).eq
    left = sup_star(space, 2, (0,))
    right = sup_at(
        space, 2, (1,), (sup_star(space, 2, (1,)), sup_star(space, 2, (1,)))
    )
    glued = glue_trees(space, 2, (), {(0,): left, (1,): right})
    assert eq(restrict_tree(space, 2, glued, (0,)), left)
    assert eq(restrict_tree(space, 2, glued, (1,)), right)
    matches = [
        z
        for z in enumerate_labelled(space, 2, (), 2)
        if eq(restrict_tree(space, 2, z, (0,)), left)
        and eq(restrict_tree(space, 2, z, (1,)), right)
    ]
    assert matches
    assert all(eq(z, glued) for z in matches)


def test_glue_rejects_a_part_rooted_elsewhere():
    space = cantor_space(1)
    with pytest.raises(ValueError, match="rooted"):
        glue_trees(
            space, 2, (),
            {(0,): sup_star(space, 2, ()), (1,): sup_star(space, 2, (1,))},
        )


def test_join_arity_is_checked():
    space = cantor_space(1)
    with pytest.raises(ValueError, match="subtrees"):
        sup_at(space, 2, (), (sup_star(space, 2, ()),))


# ------------------------------------------------------------- law batteries


def test_one_point_space_trees_are_plain_ordinal_trees():
    space = one_point_space()
    report = bo_sheaf_checks(TreeQuotient(space, 2), 2)
    assert report.ok
    counts = dict(report.class_counts)
    assert counts[STAR] == len(enumerate_trees(2, 2)) == 5
    assert dict(report.tree_counts)[STAR] == 5


def test_labelled_tree_laws_hold_over_truncated_cantor():
    space = cantor_space(1)
    report = bo_sheaf_checks(TreeQuotient(space, 2), 2)
    assert report.ok
    assert report.subalgebra_ok
    assert dict(report.tree_counts)[()] == 107
    assert dict(report.tree_counts)[(0,)] == 5


def test_labelled_tree_laws_hold_over_the_double():
    inner = cantor_space(1)
    double = build_double(inner, eventually_constant_points(2, 1))
    report = bo_sheaf_checks(TreeQuotient(double, 2), 1)
    assert report.ok
    assert report.subalgebra_ok


def test_brouwer_suite_runs_one_battery_per_space_on_a_shared_cantor_quotient(monkeypatch):
    # each battery run is one phase; the partition check runs before the first
    runs, restricted = [], [set()]
    nesting = [0]
    battery, restrict = suites.bo_sheaf_checks, brouwer.restrict_tree

    def counted_battery(*args, **kwargs):
        runs.append(args)
        restricted.append(set())
        return battery(*args, **kwargs)

    def outermost_restrict(space, branch, tree, q):
        if nesting[0] == 0:
            restricted[-1].add((tree, q))
        nesting[0] += 1
        try:
            return restrict(space, branch, tree, q)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(suites, "bo_sheaf_checks", counted_battery)
    monkeypatch.setattr(brouwer, "restrict_tree", outermost_restrict)
    assert suites.brouwer_suite(max_branch=2, max_depth=1).passed
    assert len(runs) == 3
    partition, cantor = restricted[0], restricted[2]
    assert partition and cantor
    assert partition.isdisjoint(cantor)
