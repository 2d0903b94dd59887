"""Cross-snapshot community matching and the four user roles.

Each community at snapshot t is matched to the previous-snapshot community
with maximum member overlap (ties to the lowest previous community_id).
Joining/Previous labels require strictly more than half of the current
community to come from the parent; Leaving/Staying labels require at least
half of the parent to persist into the child. The strict/non-strict asymmetry
is deliberate.
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
    """Match each current community to its maximum-overlap predecessor."""
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


def label_roles(matches):
    """Role labels for one consecutive snapshot pair.

    Within a task, a user duplicated across matches keeps the label from the
    lowest child community_id.
    """
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
