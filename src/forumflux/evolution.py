"""Cross-snapshot community matching and the four user roles.

Each community at snapshot t is matched to the previous-snapshot community
with maximum member overlap (ties to the lowest previous community_id). The
overlaps come from a member lookup: each child member counts once for every
previous community that holds it, so the cost is linear in the members and
overlapping communities are accepted.
Joining/Previous labels require strictly more than half of the current
community to come from the parent; Leaving/Staying labels require at least
half of the parent to persist into the child. The strict/non-strict asymmetry
is deliberate. `ROLES_BY_TASK` is the one map from a role to its task.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import ParseError


class Role(str, Enum):
    JOINING = "Joining"
    PREVIOUS = "Previous"
    LEAVING = "Leaving"
    STAYING = "Staying"


class Task(str, Enum):
    JOIN_VS_PREVIOUS = "JoinVsPrevious"
    LEAVE_VS_STAY = "LeaveVsStay"


ROLES_BY_TASK = {
    Task.JOIN_VS_PREVIOUS: (Role.JOINING, Role.PREVIOUS),
    Task.LEAVE_VS_STAY: (Role.LEAVING, Role.STAYING),
}
_TASK_OF_ROLE = {role: task for task, roles in ROLES_BY_TASK.items() for role in roles}

ROLE_COLUMNS = ["snapshot_index", "user_id", "role", "community_id"]


@dataclass(frozen=True)
class RoleLabel:
    user_id: str
    snapshot_index: int      # the current snapshot t of the pair (t-1, t)
    role: Role
    community_id: int        # child community for Joining/Previous, parent for Leaving/Staying


def label_roles(current, previous):
    """Role labels for the consecutive snapshot pair (previous, current), sorted by role
    and user.

    Each child's parent is the previous community that holds the most of its members,
    the lowest community_id among equals; a child that shares no member has none.
    Joining and Previous split the child's members when persistence, overlap / |child|,
    is > 0.5; Leaving and Staying split the parent's when continuity, overlap /
    |parent|, is >= 0.5. Each label carries the community it splits and the child's
    snapshot. Within a task, a user labelled through two children keeps the label from
    the lower child community_id.
    """
    parents = {parent.community_id: parent for parent in previous}
    owners = {}  # previous member -> the ids of every community that holds it
    for cid, parent in parents.items():
        for user in parent.members:
            owners.setdefault(user, []).append(cid)
    first = {}  # (task, user) -> its label
    for child in sorted(current, key=lambda c: c.community_id):
        overlaps = Counter(cid for user in child.members for cid in owners.get(user, ()))
        if not overlaps:
            continue
        # explicit: most_common orders ties by insertion, which follows set iteration
        parent_id = min(overlaps, key=lambda cid: (-overlaps[cid], cid))
        parent, overlap = parents[parent_id], overlaps[parent_id]
        groups = []
        if overlap / len(child.members) > 0.5:
            groups += [(Role.JOINING, child.members - parent.members, child),
                       (Role.PREVIOUS, child.members & parent.members, child)]
        if overlap / len(parent.members) >= 0.5:
            groups += [(Role.LEAVING, parent.members - child.members, parent),
                       (Role.STAYING, child.members & parent.members, parent)]
        for role, users, community in groups:
            for user in users:
                first.setdefault((_TASK_OF_ROLE[role], user), RoleLabel(
                    user, child.snapshot_index, role, community.community_id))
    return sorted(first.values(), key=lambda l: (l.role.value, l.user_id))


def label_all(communities_by_snapshot):
    """Labels for every consecutive snapshot pair, ordered by snapshot."""
    labels = []
    indices = sorted(communities_by_snapshot)
    for prev_idx, cur_idx in zip(indices, indices[1:]):
        if cur_idx != prev_idx + 1:
            continue
        labels.extend(label_roles(communities_by_snapshot[cur_idx],
                                  communities_by_snapshot[prev_idx]))
    return labels


def roles_csv(labels):
    """CSV snapshot_index,user_id,role,community_id sorted per the export contract."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROLE_COLUMNS)
    for l in sorted(labels, key=lambda l: (l.snapshot_index, l.role.value, l.user_id)):
        writer.writerow([l.snapshot_index, l.user_id, l.role.value, l.community_id])
    return buf.getvalue()


def roles_from_csv(fh):
    """Inverse of roles_csv: the labels in file order."""
    reader = csv.reader(fh)
    if next(reader, None) != ROLE_COLUMNS:
        raise ParseError(f"role list header must be {','.join(ROLE_COLUMNS)}")
    labels = []
    for row in reader:
        try:
            snap, user, role, cid = row
            labels.append(RoleLabel(user_id=user, snapshot_index=int(snap), role=Role(role),
                                    community_id=int(cid)))
        except ValueError:
            raise ParseError(f"malformed role row at line {reader.line_num}") from None
    return labels
