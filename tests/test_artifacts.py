"""Round trips of every artifact CSV writer through its module's reader.

User ids are drawn from any text that ingest accepts as an id: non-empty and
free of carriage returns. Commas, quotes and newlines must survive.
"""

import csv
import io
from datetime import timedelta
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumflux.community import Community, communities_csv, communities_from_csv
from forumflux.evolution import Role, RoleLabel, Task, roles_csv, roles_from_csv
from forumflux.errors import DegenerateDatasetError, ParseError
from forumflux.featureset import DATASET_COLUMNS, N_FEATURES, dataset_csv, dataset_from_csv
from forumflux.graph import build_windows, edges_csv, graphs_from_csv

from conftest import T0, make_graph

user_ids = st.text(min_size=1, max_size=6).filter(lambda s: "\r" not in s)


@st.composite
def graph_lists(draw):
    graphs = []
    for k in range(draw(st.integers(1, 3))):
        nodes = sorted(draw(st.sets(user_ids, max_size=5)))
        pairs = list(combinations(nodes, 2))
        chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        edges = {pair: draw(st.integers(1, 9)) for pair in chosen}
        graphs.append(make_graph([(a, b, w) for (a, b), w in edges.items()], k, nodes))
    return graphs


@settings(max_examples=60, deadline=None)
@given(graph_lists())
def test_edges_round_trip(graphs):
    windows = build_windows(T0, T0 + timedelta(days=len(graphs) - 1), 1)
    assert graphs_from_csv(io.StringIO(edges_csv(graphs), newline=""), windows) == graphs


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 4), st.lists(st.sets(user_ids, min_size=1, max_size=4),
                                                  min_size=1, max_size=3)))
def test_communities_round_trip(member_sets):
    by_snapshot = {
        snap: [Community(snapshot_index=snap, community_id=cid, members=frozenset(members))
               for cid, members in enumerate(sets)]
        for snap, sets in member_sets.items()
    }
    text = communities_csv([c for comms in by_snapshot.values() for c in comms])
    assert communities_from_csv(io.StringIO(text, newline="")) == by_snapshot


role_labels = st.builds(RoleLabel, user_id=user_ids, snapshot_index=st.integers(1, 9),
                        role=st.sampled_from(Role), community_id=st.integers(0, 9))


@settings(max_examples=60, deadline=None)
@given(st.lists(role_labels, max_size=8))
def test_roles_round_trip(labels):
    expected = sorted(labels, key=lambda l: (l.snapshot_index, l.role.value, l.user_id))
    assert roles_from_csv(io.StringIO(roles_csv(labels), newline="")) == expected


# every value dataset_from_csv accepts: finite, at most 1e150 in magnitude
dataset_rows = st.tuples(user_ids, st.integers(0, 9), st.integers(0, 1),
                         st.lists(st.floats(-1e150, 1e150), min_size=N_FEATURES,
                                  max_size=N_FEATURES))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(Task), st.lists(dataset_rows, min_size=1, max_size=6))
def test_dataset_round_trip(task, rows):
    keys = [(user, snap) for user, snap, _, _ in rows]
    y = np.array([label for _, _, label, _ in rows])
    X = np.array([features for *_, features in rows], dtype=np.float64)
    text = dataset_csv(task, keys, y, X)
    # numpy 2 prints a numpy scalar's repr as np.float64(...): the rows must be Python floats
    assert "np.float64" not in text
    X_read, y_read = dataset_from_csv(io.StringIO(text, newline=""))
    np.testing.assert_array_equal(X_read, X)
    np.testing.assert_array_equal(y_read, y)
    written = list(csv.reader(io.StringIO(text, newline="")))[1:]
    assert [row[:4] for row in written] == [[task.value, str(snap), user, str(label)]
                                            for (user, snap), label in zip(keys, y.tolist())]
    assert [row[4:] for row in written] == [[repr(float(v)) for v in features]
                                            for *_, features in rows]


def dataset_row(label, features):
    """A dataset text with the header and one row."""
    return (",".join(DATASET_COLUMNS) + f"\nLeaveVsStay,0,a,{label},"
            + ",".join(features) + "\n")


@pytest.mark.parametrize("reader, text, error", [
    (communities_from_csv, "snapshot_index,user_id\n0,a\n", ParseError),
    (communities_from_csv, "snapshot_index,community_id,user_id\nx,0,a\n", ParseError),
    (roles_from_csv, "snapshot_index,user_id,role,community_id\n1,a,Lurking,0\n", ParseError),
    (roles_from_csv, "snapshot_index,user_id,role,community_id\n1,a,Joining\n", ParseError),
    (dataset_from_csv, ",".join(DATASET_COLUMNS) + "\nLeaveVsStay,0,a,1,0.5\n", ParseError),
    (dataset_from_csv, ",".join(DATASET_COLUMNS[:-1]) + "\n", ParseError),
    (dataset_from_csv, ",".join(DATASET_COLUMNS) + "\n", DegenerateDatasetError),
    (dataset_from_csv, dataset_row("2", ["0.5"] * N_FEATURES), ParseError),
    (dataset_from_csv, dataset_row("0.5", ["0.5"] * N_FEATURES), ParseError),
    (dataset_from_csv, dataset_row("nan", ["0.5"] * N_FEATURES), ParseError),
    (dataset_from_csv, dataset_row("1", ["nan"] + ["0.5"] * (N_FEATURES - 1)), ParseError),
    (dataset_from_csv, dataset_row("0", ["0.5"] * (N_FEATURES - 1) + ["-inf"]), ParseError),
    # finite, but standardization would overflow squaring them
    (dataset_from_csv, dataset_row("1", ["1e200"] + ["0.5"] * (N_FEATURES - 1)), ParseError),
    (dataset_from_csv, dataset_row("1", ["0.5", "1e307"] + ["0.5"] * (N_FEATURES - 2)), ParseError),
    (dataset_from_csv, dataset_row("0", ["0.5"] * (N_FEATURES - 1) + ["-1e307"]), ParseError),
])
def test_malformed_artifact_rejected(reader, text, error):
    with pytest.raises(error):
        reader(io.StringIO(text, newline=""))
