import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import forumflux
from forumflux.evolution import Role, RoleLabel, Task, label_all, label_roles, roles_csv

from conftest import make_community


def reference_label_roles(current, previous):
    """Reference for label_roles: per child, a scan over the sorted parents in which a
    strictly larger intersection replaces the best so far; one assignment per role, its
    task spelled out."""
    assigned = {task: {} for task in Task}

    def put(task, user, role, community_id):
        if user not in assigned[task]:
            assigned[task][user] = (role, community_id)

    for child in sorted(current, key=lambda c: c.community_id):
        parent = None
        overlap = 0
        for candidate in sorted(previous, key=lambda c: c.community_id):
            if len(child.members & candidate.members) > overlap:
                parent = candidate
                overlap = len(child.members & candidate.members)
        if parent is None:
            continue
        shared = child.members & parent.members
        if overlap / len(child.members) > 0.5:
            for user in sorted(child.members - parent.members):
                put(Task.JOIN_VS_PREVIOUS, user, Role.JOINING, child.community_id)
            for user in sorted(shared):
                put(Task.JOIN_VS_PREVIOUS, user, Role.PREVIOUS, child.community_id)
        if overlap / len(parent.members) >= 0.5:
            for user in sorted(parent.members - child.members):
                put(Task.LEAVE_VS_STAY, user, Role.LEAVING, parent.community_id)
            for user in sorted(shared):
                put(Task.LEAVE_VS_STAY, user, Role.STAYING, parent.community_id)

    labels = []
    for task in Task:
        for user, (role, cid) in assigned[task].items():
            labels.append(RoleLabel(user_id=user, snapshot_index=current[0].snapshot_index,
                                    role=role, community_id=cid))
    labels.sort(key=lambda l: (l.role.value, l.user_id))
    return labels


def communities(snapshot_index, spec):
    """Communities from (community_id, members) pairs, in the given order."""
    return [make_community(members, cid, snapshot_index=snapshot_index) for cid, members in spec]


@st.composite
def snapshot_pairs(draw):
    """(current, previous, an order of current, an order of previous): up to 4
    communities of 1-4 of 6 users per snapshot, overlapping freely, with distinct ids
    drawn in any order, so overlaps tie and users sit in two communities."""
    def snapshot(index, min_size):
        member_sets = draw(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1,
                                                  max_size=4), min_size=min_size, max_size=4))
        ids = draw(st.lists(st.integers(0, 9), min_size=len(member_sets),
                            max_size=len(member_sets), unique=True))
        return communities(index, zip(ids, member_sets))
    current, previous = snapshot(1, 1), snapshot(0, 0)
    return (current, previous, draw(st.permutations(range(len(current)))),
            draw(st.permutations(range(len(previous)))))


@settings(max_examples=400, deadline=None)
@given(snapshot_pairs())
# tied overlaps: "ab" meets "ax" and "by" once each
@example((communities(1, [(0, "ab")]), communities(0, [(1, "by"), (0, "ax")]), [0], [1, 0]))
# a user who joins two children, over disjoint parents
@example((communities(1, [(1, "wxyn"), (0, "abcn")]),
          communities(0, [(0, "abcd"), (1, "wxyz")]), [1, 0], [0, 1]))
# a parent that splits in two: c and d are Leaving from child 0, Previous in child 1
@example((communities(1, [(0, "ab"), (1, "cd")]), communities(0, [(0, "abcd")]), [1, 0], [0]))
# an empty previous snapshot
@example((communities(1, [(0, "abc")]), [], [0], []))
# persistence and continuity both exactly one half
@example((communities(1, [(0, "abxy")]), communities(0, [(0, "abcd")]), [0], [0]))
# zero overlap: no parent
@example((communities(1, [(0, "ab"), (1, "cd")]), communities(0, [(0, "xy")]), [1, 0], [0]))
def test_role_rules_match_the_reference(case):
    current, previous, current_order, previous_order = case
    assert (label_roles([current[i] for i in current_order],
                        [previous[i] for i in previous_order])
            == reference_label_roles(current, previous))


def pair(prev_members_by_id, cur_members_by_id):
    """label_roles of current communities over previous ones, each given as {id: members}."""
    return label_roles(communities(1, cur_members_by_id.items()),
                       communities(0, prev_members_by_id.items()))


def label_set(labels):
    return {(l.user_id, l.role, l.community_id) for l in labels}


class TestParentMatch:
    def test_empty_previous(self):
        assert pair({}, {0: "abc"}) == []

    def test_persistence_over_child_continuity_over_parent(self):
        # overlap 3 is all of a child of 3 but under half of a parent of 8: Previous only
        assert label_set(pair({0: "abcdefgh"}, {0: "abc"})) == {
            ("a", Role.PREVIOUS, 0), ("b", Role.PREVIOUS, 0), ("c", Role.PREVIOUS, 0)}
        # and the other way round: Staying only, with nobody left to be Leaving
        assert label_set(pair({0: "abc"}, {0: "abcdefgh"})) == {
            ("a", Role.STAYING, 0), ("b", Role.STAYING, 0), ("c", Role.STAYING, 0)}

    def test_tie_break_lowest_previous_id(self):
        # "ab" shares one member with each parent; the labels carry parent id 0 whichever
        # parent comes first in the list and whichever holds "a"
        for previous in ({0: "ax", 1: "by"}, {1: "by", 0: "ax"}):
            assert label_set(pair(previous, {0: "ab"})) == {
                ("x", Role.LEAVING, 0), ("a", Role.STAYING, 0)}
        assert label_set(pair({1: "ax", 0: "by"}, {0: "ab"})) == {
            ("y", Role.LEAVING, 0), ("b", Role.STAYING, 0)}

    def test_zero_overlap_means_no_parent(self):
        # child 0 shares no member: it gets no labels and leaves child 1's labels alone
        assert pair({0: "abcd"}, {0: "xy", 1: "abce"}) == pair({0: "abcd"}, {1: "abce"})
        assert {l.community_id for l in pair({0: "abcd"}, {0: "xy", 1: "abce"})} == {0, 1}


class TestLabelRoles:
    def test_paper_scenario(self):
        labels = pair({0: "abcd"}, {0: "abce"})
        by_role = {}
        for l in labels:
            by_role.setdefault(l.role, set()).add(l.user_id)
        assert by_role[Role.JOINING] == {"e"}
        assert by_role[Role.PREVIOUS] == {"a", "b", "c"}
        assert by_role[Role.LEAVING] == {"d"}
        assert by_role[Role.STAYING] == {"a", "b", "c"}
        assert all(l.snapshot_index == 1 for l in labels)

    def test_persistence_boundary_is_strict(self):
        # half the child from the parent: no Joining/Previous labels,
        # but continuity 0.5 still emits Leaving/Staying.
        labels = pair({0: "abcd"}, {0: "abxy"})
        roles = {l.role for l in labels}
        assert Role.JOINING not in roles
        assert Role.PREVIOUS not in roles
        assert {l.user_id for l in labels if l.role is Role.LEAVING} == {"c", "d"}
        assert {l.user_id for l in labels if l.role is Role.STAYING} == {"a", "b"}

    def test_continuity_below_half_emits_no_leave_labels(self):
        # parent of 5 with overlap 2: continuity 0.4 gates Leaving/Staying off.
        labels = pair({0: "abcde"}, {0: "abxyz"})
        assert {l.role for l in labels} == set()

    def test_fully_new_community_produces_nothing(self):
        assert pair({0: "xy"}, {0: "abc"}) == []

    def test_role_community_ids(self):
        labels = {(l.user_id, l.role): l.community_id for l in pair({5: "abcd"}, {9: "abce"})}
        assert labels[("e", Role.JOINING)] == 9      # child community
        assert labels[("d", Role.LEAVING)] == 5      # parent community

    def test_duplicate_user_keeps_lowest_child_id(self):
        # user "n" joins both child communities
        labels = pair({0: "abcd", 1: "wxyz"}, {0: "abcn", 1: "wxyn"})
        joining = [l for l in labels if l.role is Role.JOINING and l.user_id == "n"]
        assert len(joining) == 1
        assert joining[0].community_id == 0
        # a parent that splits in two: child 0 makes c and d Leaving, though they are
        # Previous in child 1 of the same snapshot
        assert label_set(pair({0: "abcd"}, {1: "cd", 0: "ab"})) == {
            ("a", Role.PREVIOUS, 0), ("b", Role.PREVIOUS, 0), ("a", Role.STAYING, 0),
            ("b", Role.STAYING, 0), ("c", Role.LEAVING, 0), ("d", Role.LEAVING, 0),
            ("c", Role.PREVIOUS, 1), ("d", Role.PREVIOUS, 1)}

    def test_disjointness_within_match(self):
        labels = pair({0: "abcdef"}, {0: "abcdgh"})
        join = {l.user_id for l in labels if l.role is Role.JOINING}
        prev = {l.user_id for l in labels if l.role is Role.PREVIOUS}
        leave = {l.user_id for l in labels if l.role is Role.LEAVING}
        stay = {l.user_id for l in labels if l.role is Role.STAYING}
        assert not join & prev
        assert not leave & stay

    def test_permutation_invariant(self):
        previous = [make_community("abcd", 0, snapshot_index=0),
                    make_community("wxyz", 1, snapshot_index=0)]
        current = [make_community("abce", 0, snapshot_index=1),
                   make_community("wxyv", 1, snapshot_index=1)]
        assert label_roles(current, previous) == label_roles(current[::-1], previous[::-1])


# four snapshot pairs; in each, two children tie 1:1:1:1 over four parents of two
TIES = """
from forumflux.community import Community
from forumflux.evolution import label_all, roles_csv
by_snapshot = {}
for k in range(4):
    a, b = ([f"k{k}{side}{i}" for i in range(4)] for side in "ab")
    by_snapshot[2 * k] = [Community(2 * k, i, frozenset({a[i], b[i]})) for i in range(4)]
    by_snapshot[2 * k + 1] = [Community(2 * k + 1, 0, frozenset(a)),
                              Community(2 * k + 1, 1, frozenset(b))]
print(roles_csv(label_all(by_snapshot)), end="")
"""


def test_tied_parents_do_not_depend_on_the_hash_seed():
    # the order in which a frozenset of strings yields its members moves with
    # PYTHONHASHSEED; the parent of a tie must not follow it
    env = dict(os.environ, PYTHONPATH=str(Path(forumflux.__file__).parents[1]))
    outputs = set()
    for seed in range(8):
        proc = subprocess.run([sys.executable, "-c", TIES], capture_output=True, text=True,
                              env={**env, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {"snapshot_index,user_id,role,community_id\n" + "".join(
        f"{2 * k + 1},k{k}b0,Leaving,0\n{2 * k + 1},k{k}a0,Staying,0\n" for k in range(4))}


def test_label_all_skips_gaps():
    by_snapshot = {
        0: [make_community("abcd", 0, snapshot_index=0)],
        1: [make_community("abce", 0, snapshot_index=1)],
        3: [make_community("abce", 0, snapshot_index=3)],  # gap: snapshot 2 missing
    }
    labels = label_all(by_snapshot)
    assert {l.snapshot_index for l in labels} == {1}


def test_roles_csv_sorted():
    by_snapshot = {
        0: [make_community("abcd", 0, snapshot_index=0)],
        1: [make_community("abce", 0, snapshot_index=1)],
    }
    out = roles_csv(label_all(by_snapshot))
    lines = out.strip().splitlines()
    assert lines[0] == "snapshot_index,user_id,role,community_id"
    keys = []
    for line in lines[1:]:
        snap, user, role, _ = line.split(",")
        keys.append((int(snap), role, user))
    assert keys == sorted(keys)
