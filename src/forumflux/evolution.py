"""Cross-snapshot community matching and the four user roles.

Each community at snapshot t is matched to the previous-snapshot community
with maximum member overlap (ties to the lowest previous community_id).
Joining/Previous labels require strictly more than half of the current
community to come from the parent; Leaving/Staying labels require at least
half of the parent to persist into the child. The strict/non-strict asymmetry
is deliberate. `ROLES_BY_TASK` is the one map from a role to its task.
"""

from __future__ import annotations

import csv
import io
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
class CommunityMatch:
    child: object            # Community at snapshot t
    parent: object           # Community at snapshot t-1, or None
    overlap: int
    persistence: float       # overlap / |child|
    continuity: float        # overlap / |parent|


@dataclass(frozen=True)
class RoleLabel:
    user_id: str
    snapshot_index: int      # the current snapshot t of the pair (t-1, t)
    role: Role
    community_id: int        # child community for Joining/Previous, parent for Leaving/Staying


def match_communities(current, previous):
    """Match each current community to its maximum-overlap predecessor: the
    first largest overlap in community_id order, no parent at zero overlap."""
    previous = sorted(previous, key=lambda c: c.community_id)
    matches = []
    for child in sorted(current, key=lambda c: c.community_id):
        overlaps = [(len(child.members & parent.members), parent) for parent in previous]
        overlap, parent = max((o for o in overlaps if o[0]), key=lambda o: o[0], default=(0, None))
        persistence, continuity = ((overlap / len(child.members), overlap / len(parent.members))
                                   if parent else (0.0, 0.0))
        matches.append(CommunityMatch(child, parent, overlap, persistence, continuity))
    return matches


def label_roles(matches):
    """Role labels for one consecutive snapshot pair, sorted by role and user.

    Joining and Previous split the child's members when persistence > 0.5,
    Leaving and Staying split the parent's when continuity >= 0.5; each
    label carries the community it splits and the child's snapshot. Within a
    task, a user duplicated across matches keeps the label from the lowest
    child community_id.
    """
    first = {}  # (task, user) -> its label
    for match in sorted(matches, key=lambda m: m.child.community_id):
        child, parent = match.child, match.parent
        groups = []
        if match.persistence > 0.5:
            groups += [(Role.JOINING, child.members - parent.members, child),
                       (Role.PREVIOUS, child.members & parent.members, child)]
        if match.continuity >= 0.5:
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
        matches = match_communities(communities_by_snapshot[cur_idx],
                                    communities_by_snapshot[prev_idx])
        labels.extend(label_roles(matches))
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
