"""Tree construction, depth matrices, enumeration, and rotations."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given

import fusscat as fc
from conftest import GRID_PARAMS, comb, params_and_tree, valid_leaf_counts

P32 = fc.Params(3, 2)


def test_params_validation():
    with pytest.raises(fc.DomainError):
        fc.Params(1, 1)
    with pytest.raises(fc.DomainError):
        fc.Params(3, 0)
    p = fc.Params(3, 2)
    assert p.step == 2 and p.modulus == 4


def test_leaf_is_shared_and_minimal():
    assert fc.leaf().is_leaf
    assert fc.leaf().leaf_count == 1
    assert fc.leaf() == fc.leaf()


def test_meet_checks_arity():
    with pytest.raises(fc.ArityError):
        fc.meet([fc.leaf(), fc.leaf()], P32)
    t = fc.meet([fc.leaf()] * 3, P32)
    assert t.leaf_count == 3 and not t.is_leaf


def test_left_assoc_meet_folds_first_m_then_groups_of_m_minus_1():
    e = fc.leaf()
    expected = fc.meet([fc.meet([fc.meet([e, e, e], P32), e, e], P32), e, e], P32)
    assert comb(P32, 7) == expected
    assert fc.left_assoc_meet([expected], P32) == expected


@pytest.mark.parametrize("count", [0, 2, 4, 6])
def test_left_assoc_meet_rejects_bad_operand_counts(count):
    with pytest.raises(fc.ArityError):
        fc.left_assoc_meet([fc.leaf()] * count, P32)


def test_depth_matrix_of_left_comb():
    dm = fc.depth_matrix(comb(P32, 7), P32)
    assert dm.rows == ((3, 2, 2, 1, 1, 0, 0),
                       (0, 1, 0, 1, 0, 1, 0),
                       (0, 0, 1, 0, 1, 0, 1))


def test_depth_matrix_of_single_leaf():
    dm = fc.depth_matrix(fc.leaf(), P32)
    assert dm.rows == ((0,), (0,), (0,))
    assert dm.arity == 3 and dm.leaf_count == 1


def test_depth_matrix_counts_every_edge_label():
    # (x1*(x2*x3*x4)*x5)*x6*x7: leaf 5 is reached by a first-child edge
    # at the root and then a third-child edge, so row 1 and row 3 both
    # count 1 for it.
    e = fc.leaf()
    inner = fc.meet([e, fc.meet([e, e, e], P32), e], P32)
    t = fc.meet([inner, e, e], P32)
    dm = fc.depth_matrix(t, P32)
    assert dm.rows == ((2, 2, 1, 1, 1, 0, 0),
                       (0, 1, 2, 1, 0, 1, 0),
                       (0, 0, 0, 1, 1, 0, 1))


def test_depth_matrix_boundary_columns():
    for params in GRID_PARAMS:
        for leaves in valid_leaf_counts(params, 8):
            if leaves < params.m:
                continue
            for t in fc.enumerate_trees(params, leaves):
                rows = fc.depth_matrix(t, params).rows
                # rightmost leaf hangs under last-child edges only
                assert all(rows[i][-1] == 0 for i in range(params.m - 1))
                # its left neighbour sees exactly one (m-1)-child edge
                assert rows[params.m - 2][-2] == 1
                assert all(rows[i][-2] == 0 for i in range(params.m - 2))
                # leftmost leaf hangs under first-child edges only
                assert all(rows[i][0] == 0 for i in range(1, params.m))


@functools.lru_cache(maxsize=None)
def _tree_count_oracle(m: int, leaves: int) -> int:
    """Independent count of m-ary trees by recursion over the root's
    children; no library calls."""
    if leaves == 1:
        return 1
    total = 0

    def split(remaining: int, slots: int, acc: int) -> None:
        nonlocal total
        if slots == 1:
            if remaining >= 1 and (remaining - 1) % (m - 1) == 0:
                total += acc * _tree_count_oracle(m, remaining)
            return
        for first in range(1, remaining - slots + 2, m - 1):
            split(remaining - first, slots - 1,
                  acc * _tree_count_oracle(m, first))

    split(leaves, m, 1)
    return total


def test_enumerate_trees_counts_match_independent_recursion():
    assert _tree_count_oracle(3, 7) == 12
    assert _tree_count_oracle(2, 5) == 14
    for params in GRID_PARAMS[:: 3]:  # one per arity
        for leaves in valid_leaf_counts(params, 9):
            got = sum(1 for _ in fc.enumerate_trees(params, leaves))
            assert got == _tree_count_oracle(params.m, leaves)


def test_enumerate_trees_is_sorted_deduplicated_and_well_formed():
    trees = list(fc.enumerate_trees(P32, 7))
    assert len(set(trees)) == len(trees) == 12
    assert all(t.leaf_count == 7 for t in trees)
    codes = [fc.to_dyck(t, P32).entries for t in trees]
    assert codes == sorted(codes)


def test_enumerate_trees_single_leaf_and_bad_counts():
    assert list(fc.enumerate_trees(P32, 1)) == [fc.leaf()]
    with pytest.raises(fc.ArityError):
        list(fc.enumerate_trees(P32, 4))
    with pytest.raises(fc.ArityError):
        list(fc.enumerate_trees(P32, 0))


def _trees_to_hash():
    """(params, tree) for trees from every constructor: decoded, parsed,
    and class members, which share their subtrees."""
    for params in (fc.Params(2, 1), P32):
        for leaves in valid_leaf_counts(params, 7):
            for t in fc.enumerate_trees(params, leaves):
                yield params, t
                yield params, fc.parse(fc.unparse(t), params)
            for report in fc.enumerate_classes(params, leaves):
                for t in report.members:
                    yield params, t


def test_hash_is_the_hash_of_the_children():
    for _, t in _trees_to_hash():
        assert hash(t) == hash(t.children)


def test_trees_built_apart_hash_and_compare_equal():
    for params, t in _trees_to_hash():
        again = fc.parse(fc.unparse(t, "full"), params)
        assert again is not t or t.is_leaf
        assert again == t and hash(again) == hash(t)


def test_unequal_trees_of_one_size_compare_unequal():
    for params in (fc.Params(2, 1), P32):
        for leaves in valid_leaf_counts(params, 7):
            trees = list(fc.enumerate_trees(params, leaves))
            rebuilt = list(fc.enumerate_trees(params, leaves))
            # Hash some, so that pairs with both, one and no hash meet.
            for t in trees[::2] + rebuilt[::3]:
                hash(t)
            for i, a in enumerate(trees):
                for j, b in enumerate(rebuilt):
                    assert (a == b) == (i == j)


def test_a_tree_compared_with_another_type_defers_to_it():
    other = object()
    assert fc.leaf().__eq__(other) is NotImplemented
    assert fc.leaf() != other


def test_rotation_sites_left_comb():
    assert fc.rotation_sites(comb(P32, 7), P32, "right") == [((), 1)]
    assert fc.rotation_sites(fc.leaf(), P32, "right") == []
    assert fc.rotation_sites(comb(P32, 7), P32, "left") == []


def test_rotation_sites_need_k_chained_nodes():
    # (x1*(x2*x3*x4)*x5)*x6*x7 has no chain of two internal nodes under
    # any rotatable child position, so no 2-rotation applies at all.
    e = fc.leaf()
    t = fc.meet([fc.meet([e, fc.meet([e, e, e], P32), e], P32), e, e], P32)
    assert fc.rotation_sites(t, P32, "right") == []
    assert fc.rotation_sites(t, P32, "left") == []


def test_rotation_sites_order_is_address_then_position():
    p21 = fc.Params(2, 1)
    for leaves in (4, 5, 6):
        for t in fc.enumerate_trees(p21, leaves):
            sites = fc.rotation_sites(t, p21, "right")
            assert sites == sorted(sites)


def test_rotate_right_shifts_the_grouping_window():
    e = fc.leaf()
    expected = fc.meet(
        [e, fc.meet([fc.meet([e, e, e], P32), e, e], P32), e], P32)
    assert fc.rotate_right(comb(P32, 7), (), 1, P32) == expected


def test_rotate_left_then_right_is_identity_everywhere():
    for params in (fc.Params(2, 1), fc.Params(2, 2), fc.Params(3, 1), P32):
        for leaves in valid_leaf_counts(params, 7):
            for t in fc.enumerate_trees(params, leaves):
                for address, j in fc.rotation_sites(t, params, "right"):
                    u = fc.rotate_right(t, address, j, params)
                    assert u != t
                    assert fc.rotate_left(u, address, j, params) == t
                for address, j in fc.rotation_sites(t, params, "left"):
                    u = fc.rotate_left(t, address, j, params)
                    assert fc.rotate_right(u, address, j, params) == t


def test_rotation_preserves_leaf_count():
    for leaves in (7, 9):
        for t in fc.enumerate_trees(P32, leaves):
            for address, j in fc.rotation_sites(t, P32, "right"):
                assert fc.rotate_right(t, address, j, P32).leaf_count == leaves


def test_rotate_rejects_bad_sites():
    # Each error reads as compress's for the same tuple, site and
    # direction, whose texts test_dyck's _COMPRESS_DIGEST freezes.
    t = comb(P32, 7)
    for site, direction, params in [
            (((9,), 1), "right", P32),  # unresolvable address
            (((2,), 1), "right", P32),  # leaf address
            (((), 3), "right", P32),  # position out of range
            (((), 2), "right", P32),  # child 2 is a leaf
            (((), 1), "left", P32),  # no chain under child 2
            (((), 1), "right", fc.Params(3, 3))]:  # chain shorter than k
        rotate = fc.rotate_right if direction == "right" else fc.rotate_left
        with pytest.raises(fc.SiteError) as on_tree:
            rotate(t, *site, params)
        with pytest.raises(fc.SiteError) as on_tuple:
            fc.compress(fc.to_dyck(t, params), site, params, direction)
        assert str(on_tree.value) == str(on_tuple.value), site


def test_rotation_sites_rejects_unknown_direction():
    with pytest.raises(ValueError):
        fc.rotation_sites(fc.leaf(), P32, "up")


@given(params_and_tree(max_leaves=25))
def test_random_rotations_invert(pt):
    params, t = pt
    d = fc.to_dyck(t, params)
    for site in fc.rotation_sites(t, params, "right")[:3]:
        u = fc.rotate_right(t, site[0], site[1], params)
        assert fc.rotate_left(u, site[0], site[1], params) == t
        du = fc.compress(d, site, params, "right")
        assert du == fc.to_dyck(u, params)
        assert fc.compress(du, site, params, "left") == d
