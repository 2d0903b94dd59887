import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forumflux.evolution import (CommunityMatch, Role, RoleLabel, Task, label_all, label_roles,
                                 match_communities, roles_csv)

from conftest import make_community


def reference_match_communities(current, previous):
    """Reference for match_communities: a scan per child over the sorted
    parents, a strictly larger overlap replacing the best so far."""
    matches = []
    for child in sorted(current, key=lambda c: c.community_id):
        best = None
        best_overlap = 0
        for parent in sorted(previous, key=lambda c: c.community_id):
            overlap = len(child.members & parent.members)
            if overlap > best_overlap:
                best = parent
                best_overlap = overlap
        if best is None:
            matches.append(CommunityMatch(child=child, parent=None, overlap=0,
                                          persistence=0.0, continuity=0.0))
        else:
            matches.append(CommunityMatch(
                child=child,
                parent=best,
                overlap=best_overlap,
                persistence=best_overlap / len(child.members),
                continuity=best_overlap / len(best.members),
            ))
    return matches


def reference_label_roles(matches):
    """Reference for label_roles: one assignment per role, its task spelled out."""
    assigned = {task: {} for task in Task}

    def put(task, user, role, community_id):
        if user not in assigned[task]:
            assigned[task][user] = (role, community_id)

    for match in sorted(matches, key=lambda m: m.child.community_id):
        if match.parent is None:
            continue
        child, parent = match.child, match.parent
        shared = child.members & parent.members
        if match.persistence > 0.5:
            for user in sorted(child.members - parent.members):
                put(Task.JOIN_VS_PREVIOUS, user, Role.JOINING, child.community_id)
            for user in sorted(shared):
                put(Task.JOIN_VS_PREVIOUS, user, Role.PREVIOUS, child.community_id)
        if match.continuity >= 0.5:
            for user in sorted(parent.members - child.members):
                put(Task.LEAVE_VS_STAY, user, Role.LEAVING, parent.community_id)
            for user in sorted(shared):
                put(Task.LEAVE_VS_STAY, user, Role.STAYING, parent.community_id)

    snapshot = None
    for match in matches:
        snapshot = match.child.snapshot_index
        break
    labels = []
    for task in Task:
        for user, (role, cid) in assigned[task].items():
            labels.append(RoleLabel(user_id=user, snapshot_index=snapshot,
                                    role=role, community_id=cid))
    labels.sort(key=lambda l: (l.role.value, l.user_id))
    return labels


def communities(snapshot_index, spec):
    """Communities from (community_id, members) pairs, in the given order."""
    return [make_community(members, cid, snapshot_index=snapshot_index) for cid, members in spec]


@st.composite
def snapshot_pairs(draw):
    """(current, previous, order of the matches): up to 4 communities of 1-4
    of 6 users per snapshot, overlapping freely, with distinct ids drawn in
    any order, so overlaps tie and users sit in two communities."""
    def snapshot(index, min_size):
        member_sets = draw(st.lists(st.frozensets(st.sampled_from("abcdef"), min_size=1,
                                                  max_size=4), min_size=min_size, max_size=4))
        ids = draw(st.lists(st.integers(0, 9), min_size=len(member_sets),
                            max_size=len(member_sets), unique=True))
        return communities(index, zip(ids, member_sets))
    current, previous = snapshot(1, 1), snapshot(0, 0)
    return current, previous, draw(st.permutations(range(len(current))))


@settings(max_examples=400, deadline=None)
@given(snapshot_pairs())
# tied overlaps: "ab" meets "ax" and "by" once each
@example((communities(1, [(0, "ab")]), communities(0, [(1, "by"), (0, "ax")]), [0]))
# a user who joins two children, over disjoint parents
@example((communities(1, [(1, "wxyn"), (0, "abcn")]),
          communities(0, [(0, "abcd"), (1, "wxyz")]), [1, 0]))
# an empty previous snapshot
@example((communities(1, [(0, "abc")]), [], [0]))
# persistence and continuity both exactly one half
@example((communities(1, [(0, "abxy")]), communities(0, [(0, "abcd")]), [0]))
# zero overlap: no parent
@example((communities(1, [(0, "ab"), (1, "cd")]), communities(0, [(0, "xy")]), [1, 0]))
def test_role_rules_match_the_reference(case):
    current, previous, order = case
    matches = match_communities(current, previous)
    assert matches == reference_match_communities(current, previous)
    shuffled = [matches[i] for i in order]
    assert label_roles(shuffled) == reference_label_roles(shuffled)


def pair(prev_members_by_id, cur_members_by_id):
    previous = [make_community(m, cid, snapshot_index=0)
                for cid, m in prev_members_by_id.items()]
    current = [make_community(m, cid, snapshot_index=1)
               for cid, m in cur_members_by_id.items()]
    return match_communities(current, previous)


class TestMatchCommunities:
    def test_empty_previous(self):
        matches = pair({}, {0: "abc"})
        assert len(matches) == 1
        assert matches[0].parent is None
        assert matches[0].persistence == 0.0

    def test_overlap_ratios(self):
        (m,) = pair({0: "abcd"}, {0: "abce"})
        assert m.overlap == 3
        assert m.persistence == pytest.approx(0.75)
        assert m.continuity == pytest.approx(0.75)

    def test_tie_break_lowest_previous_id(self):
        (m,) = pair({0: "ax", 1: "by"}, {0: "ab"})
        assert m.parent.community_id == 0
        assert m.overlap == 1

    def test_zero_overlap_means_no_parent(self):
        (m,) = pair({0: "xy"}, {0: "ab"})
        assert m.parent is None


class TestLabelRoles:
    def test_paper_scenario(self):
        matches = pair({0: "abcd"}, {0: "abce"})
        labels = label_roles(matches)
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
        matches = pair({0: "abcd"}, {0: "abxy"})
        labels = label_roles(matches)
        roles = {l.role for l in labels}
        assert Role.JOINING not in roles
        assert Role.PREVIOUS not in roles
        assert {l.user_id for l in labels if l.role is Role.LEAVING} == {"c", "d"}
        assert {l.user_id for l in labels if l.role is Role.STAYING} == {"a", "b"}

    def test_continuity_below_half_emits_no_leave_labels(self):
        # parent of 5 with overlap 2: continuity 0.4 gates Leaving/Staying off.
        matches = pair({0: "abcde"}, {0: "abxyz"})
        labels = label_roles(matches)
        assert {l.role for l in labels} == set()

    def test_fully_new_community_produces_nothing(self):
        matches = pair({0: "xy"}, {0: "abc"})
        assert label_roles(matches) == []

    def test_role_community_ids(self):
        matches = pair({5: "abcd"}, {9: "abce"})
        labels = {(l.user_id, l.role): l.community_id for l in label_roles(matches)}
        assert labels[("e", Role.JOINING)] == 9      # child community
        assert labels[("d", Role.LEAVING)] == 5      # parent community

    def test_duplicate_user_keeps_lowest_child_id(self):
        previous = [make_community("abcd", 0, snapshot_index=0),
                    make_community("wxyz", 1, snapshot_index=0)]
        # user "n" joins both child communities
        current = [make_community("abcn", 0, snapshot_index=1),
                   make_community("wxyn", 1, snapshot_index=1)]
        labels = label_roles(match_communities(current, previous))
        joining = [l for l in labels if l.role is Role.JOINING and l.user_id == "n"]
        assert len(joining) == 1
        assert joining[0].community_id == 0

    def test_disjointness_within_match(self):
        matches = pair({0: "abcdef"}, {0: "abcdgh"})
        labels = label_roles(matches)
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
        base = label_roles(match_communities(current, previous))
        flipped = label_roles(match_communities(current[::-1], previous[::-1]))
        assert sorted(base, key=repr) == sorted(flipped, key=repr)


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
