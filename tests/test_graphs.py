import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from degfair import graphs
from degfair.graphs import (
    GraphDataError,
    GraphFormatError,
    build_graph,
    generalized_degree,
    load_graph,
    local_contexts,
    mean_degree,
    partition_contrast,
    partition_top_bottom,
    read_edges,
    read_labels,
    save_graph_files,
    split_nodes,
    synth_generate,
)


def make_graph(edges, n, feat_dim=2, labels=None):
    feats = np.zeros((n, feat_dim))
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    return build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), feats, labels)


def dense_adjacency(edges, n):
    """Independent oracle: dense symmetric 0/1 adjacency from an edge list."""
    a = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            a[u, v] = 1.0
            a[v, u] = 1.0
    return a


TRIANGLE = [(0, 1), (1, 2), (0, 2)]
PATH3 = [(0, 1), (1, 2)]
STAR4 = [(0, 1), (0, 2), (0, 3)]


# ---------------------------------------------------------------- build/load


def test_build_symmetrizes():
    g = make_graph(PATH3, 3)
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(2).tolist() == [1]
    assert g.num_edges == 2


def test_build_drops_self_loops_and_duplicates():
    g = make_graph([(0, 1), (1, 0), (2, 2), (0, 1)], 3)
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(2).tolist() == []
    assert g.num_edges == 1


def test_build_rejects_out_of_range_edge():
    with pytest.raises(GraphDataError):
        make_graph([(0, 5)], 3)


GRAPH_REJECTIONS = [
    pytest.param(lambda: build_graph(np.empty((0, 2), dtype=np.int64), np.zeros(3),
                                     np.zeros(3, dtype=np.int64)),
                 GraphDataError, "feature matrix must be 2-D", id="build-1d-features"),
    pytest.param(lambda: local_contexts(make_graph(TRIANGLE, 3), 0), ValueError,
                 "radius must be >= 1, got 0", id="local-contexts-r-zero"),
    pytest.param(lambda: mean_degree(make_graph([], 0)), ValueError,
                 "mean degree of an empty graph", id="mean-degree-empty"),
]


@pytest.mark.parametrize("call,error,message", GRAPH_REJECTIONS)
def test_rejects_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_build_rejects_bad_labels():
    feats = np.zeros((2, 1))
    with pytest.raises(GraphDataError):
        build_graph(np.empty((0, 2), dtype=np.int64), feats, np.array([0, 3]),
                    num_classes=2)
    with pytest.raises(GraphDataError):
        build_graph(np.empty((0, 2), dtype=np.int64), feats, np.array([0]))


def test_graph_is_immutable():
    g = make_graph(PATH3, 3)
    with pytest.raises(ValueError):
        g.csr_neighbors[0] = 2


def test_load_graph_round_trip(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("# comment\n0\t1\n1\t2\n2\t2\n")
    feats = tmp_path / "features.csv"
    feats.write_text("1.0,0.5\n0.25,0.0\n-1.0,2.0\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n1\n")
    g = load_graph(str(edges), str(feats), str(labels))
    assert g.num_nodes == 3
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(2).tolist() == [1]  # self-loop dropped
    assert g.num_classes == 2
    assert g.features[2, 1] == 2.0


def test_load_graph_parse_error(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("0\tx\n")
    feats = tmp_path / "features.csv"
    feats.write_text("1.0\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n")
    with pytest.raises(GraphFormatError):
        load_graph(str(edges), str(feats), str(labels))


def test_load_graph_consistency_error(tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_text("0\t5\n")
    feats = tmp_path / "features.csv"
    feats.write_text("1.0\n2.0\n3.0\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n0\n0\n")
    with pytest.raises(GraphDataError):
        load_graph(str(edges), str(feats), str(labels))


# ------------------------------------------------------- generalized degree


def test_degree_triangle_r1():
    g = make_graph(TRIANGLE, 3)
    assert generalized_degree(g, 1).tolist() == [2.0, 2.0, 2.0]


def test_degree_path_r2():
    # A^2 for the path 0-1-2 is [[1,0,1],[0,2,0],[1,0,1]], row sums [2,2,2].
    g = make_graph(PATH3, 3)
    assert generalized_degree(g, 2).tolist() == [2.0, 2.0, 2.0]


def test_degree_star_r2():
    g = make_graph(STAR4, 4)
    assert generalized_degree(g, 2).tolist() == [3.0, 3.0, 3.0, 3.0]


def test_degree_matches_dense_power_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        edges = [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)
        ]
        g = make_graph(edges, n)
        a = dense_adjacency(edges, n)
        for r in (1, 2, 3):
            expect = np.linalg.matrix_power(a, r) @ np.ones(n)
            got = generalized_degree(g, r)
            assert np.array_equal(got, expect)


def test_degree_sum_is_twice_edges():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2 * n)]
        g = make_graph(edges, n)
        assert generalized_degree(g, 1).sum() == 2 * g.num_edges


@pytest.mark.parametrize("n", [0, 4])
def test_degree_without_edges_is_zero(n):
    g = make_graph([], n)
    for r in range(1, 5):
        got = generalized_degree(g, r)
        assert got.dtype == np.float64 and np.array_equal(got, np.zeros(n))


def test_degree_requires_positive_r():
    g = make_graph(PATH3, 3)
    with pytest.raises(ValueError):
        generalized_degree(g, 0)


# ------------------------------------------------------------ local context


def local_context(g, v, r):
    """Independent oracle: all nodes within distance r of v, by breadth-first search."""
    seen = {v}
    frontier = [v]
    for _ in range(r):
        frontier = [int(w) for u in frontier for w in g.neighbors(u) if int(w) not in seen]
        frontier = sorted(set(frontier))
        seen.update(frontier)
    return np.array(sorted(seen), dtype=np.int64)


def test_local_context_path():
    g = make_graph(PATH3, 3)
    assert local_context(g, 0, 1).tolist() == [0, 1]
    assert local_context(g, 0, 2).tolist() == [0, 1, 2]


def test_local_context_isolated():
    g = make_graph([(0, 1)], 3)
    assert local_context(g, 2, 5).tolist() == [2]


def test_local_context_nested():
    rng = np.random.default_rng(11)
    n = 15
    edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(25)]
    g = make_graph(edges, n)
    for v in range(n):
        prev = None
        for r in range(1, 4):
            ctx = set(local_context(g, v, r).tolist())
            assert v in ctx
            if prev is not None:
                assert prev <= ctx
            prev = ctx


def test_local_contexts_matches_single():
    g = make_graph(TRIANGLE + [(2, 3)], 5)
    for r in (1, 2):
        ctx = local_contexts(g, r)
        for v in range(g.num_nodes):
            row = ctx.indices[ctx.indptr[v] : ctx.indptr[v + 1]]
            assert row.tolist() == local_context(g, v, r).tolist()


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    return n, edges


@settings(max_examples=100, deadline=None)
@given(graph=edge_lists(), r=st.sampled_from([1, 2, 3]))
@example(graph=(4, []), r=2)
@example(graph=(6, [(0, 1), (1, 2), (2, 3)]), r=3)
def test_local_contexts_property_matches_bfs_oracle(graph, r):
    n, edges = graph
    g = make_graph(edges, n)
    ctx = local_contexts(g, r)
    assert isinstance(ctx, sparse.csr_matrix) and ctx.shape == (n, n)
    assert ctx.dtype == bool and ctx.data.all()  # a pattern: no stored False
    offsets, members = ctx.indptr, ctx.indices
    assert offsets.shape == (n + 1,) and offsets[0] == 0
    assert np.all(np.diff(offsets) >= 0) and offsets[-1] == members.size
    for v in range(n):
        row = members[offsets[v] : offsets[v + 1]]
        assert np.all(np.diff(row) > 0)
        assert v in row
        assert row.tolist() == local_context(g, v, r).tolist()


# ---------------------------------------------------------------- ingestion


@settings(max_examples=200, deadline=None)
@given(graph=edge_lists())
@example(graph=(1, [(0, 0), (0, 0)]))
@example(graph=(3, [(2, 0), (0, 2), (1, 1), (2, 1)]))
def test_build_graph_property_matches_pair_set_oracle(graph):
    n, edges = graph
    g = make_graph(edges, n)
    assert g.csr_offsets.dtype == np.int64 and g.csr_neighbors.dtype == np.int64
    assert g.csr_offsets.shape == (n + 1,) and g.csr_offsets[-1] == g.csr_neighbors.size
    rows = [g.neighbors(v).tolist() for v in range(n)]
    for v, row in enumerate(rows):
        assert row == sorted(set(row))  # sorted, no duplicates
        assert v not in row  # no self-loops
    got = {(v, w) for v, row in enumerate(rows) for w in row}
    assert got == {(w, v) for v, w in got}  # symmetric
    assert got == {(a, b) for u, v in edges for a, b in ((u, v), (v, u)) if a != b}
    assert g.num_edges == len(got) // 2


def reference_read_edges(path):
    """The edge format read line by line from a text-mode file.

    Undecodable bytes come through as lone surrogates (surrogateescape), so a
    line holding one is the first line that is not valid UTF-8.
    """
    edges = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if any("\udc80" <= c <= "\udcff" for c in line):
                raise GraphFormatError(f"{path}:{lineno}: not valid UTF-8")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two tab-separated ids, got {line!r}"
                )
            pair = []
            for token in parts:
                try:
                    value = int(token)
                except ValueError:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected a base-10 integer, got {token!r}"
                    ) from None
                if not -(2**63) <= value < 2**63:
                    raise GraphFormatError(
                        f"{path}:{lineno}: node id out of range for int64, got {token!r}"
                    )
                pair.append(value)
            edges.append(pair)
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


PLAIN_ID = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.text("0123456789", min_size=18, max_size=20),
)
ODD_ID = st.sampled_from(
    ["+7", "-1", " 3", "4 ", "00", "1_0", "\u0663", "\uff13", "x", "", "-" + "9" * 19]
)
ODD_LINE = st.sampled_from(
    [b"", b"# comment", b"#", b"0\t1\t2", b"0 1", b"\t", b"5", b"0\t\xff", b"\xe2\x82"]
)


@st.composite
def edge_files(draw):
    """Edge-file bytes: plain tab/newline tables, or lines with every oddity mixed in."""
    plain = draw(st.booleans())
    ids = PLAIN_ID if plain else st.one_of(PLAIN_ID, ODD_ID)
    pair = st.tuples(ids, ids).map(lambda t: f"{t[0]}\t{t[1]}".encode())
    lines = draw(st.lists(pair if plain else st.one_of(pair, ODD_LINE), max_size=12))
    ends = st.just(b"\n") if plain else st.sampled_from([b"\n", b"\r\n", b"\r"])
    text = b"".join(line + draw(ends) for line in lines)
    if lines and not plain and draw(st.booleans()):
        text = text.rstrip(b"\r\n")  # no final newline
    return text


def _outcome(parse, path):
    try:
        return parse(path)
    except GraphFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(raw=edge_files())
@example(raw=b"0\t1\n1\t99999999999999999999\n")
@example(raw=b"999999999999999999\t0\n")
@example(raw=b"9223372036854775807\t9223372036854775808\n")
@example(raw=b"0\t1\r\n\xff\n")
@example(raw=b"0\t1")
@example(raw=b"")
def test_read_edges_matches_reference_parser(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "edges_property.tsv"
    path.write_bytes(raw)
    got, want = _outcome(read_edges, str(path)), _outcome(reference_read_edges, str(path))
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_read_labels_overflow_and_utf8_name_the_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_bytes(b"0\n\n 18446744073709551616 \n")
    with pytest.raises(GraphFormatError, match=r"labels.txt:3: integer out of range for int64"):
        read_labels(str(path))
    path.write_bytes(b"0\r\n1\r\n\xff\r\n")
    with pytest.raises(GraphFormatError, match=r"labels.txt:3: not valid UTF-8"):
        read_labels(str(path))
    path.write_bytes(b"# not a label\n")
    with pytest.raises(GraphFormatError, match=r"labels.txt:1: expected a base-10 integer"):
        read_labels(str(path))


def test_saved_files_take_the_one_pass_parser(tmp_path, monkeypatch):
    g = synth_generate(300, 3, 0.9, 2, seed=5)
    paths = [str(tmp_path / name) for name in ("e.tsv", "f.csv", "l.txt")]
    save_graph_files(g, *paths)

    def per_line(raw, path):
        raise AssertionError(f"{path} went to the per-line parser")

    monkeypatch.setattr(graphs, "_lines", per_line)
    src = np.repeat(np.arange(g.num_nodes), g.degrees)
    once = src < g.csr_neighbors
    edges = read_edges(paths[0])
    assert edges.dtype == np.int64 and edges.flags.c_contiguous
    assert np.array_equal(edges, np.stack([src[once], g.csr_neighbors[once]], axis=1))
    labels = read_labels(paths[2])
    assert labels.dtype == np.int64 and np.array_equal(labels, g.labels)
    back = load_graph(*paths)
    assert np.array_equal(back.csr_offsets, g.csr_offsets)
    assert np.array_equal(back.csr_neighbors, g.csr_neighbors)


# --------------------------------------------------------------- partitions


def test_contrast_basic():
    ga = partition_contrast(np.array([1.0, 2.0, 3.0, 4.0]), 2.0)
    assert ga.groups[0].tolist() == [0, 1]
    assert ga.groups[1].tolist() == [2, 3]


def test_contrast_threshold_inclusive():
    with pytest.warns(UserWarning):
        ga = partition_contrast(np.full(4, 5.0), 5.0)
    assert ga.groups[0].tolist() == [0, 1, 2, 3]
    assert ga.groups[1].tolist() == []


def test_contrast_mean_threshold():
    ga = partition_contrast(np.array([0.0, 10.0]), 5.0)
    assert ga.groups[0].tolist() == [0]
    assert ga.groups[1].tolist() == [1]


def test_contrast_covers_universe():
    rng = np.random.default_rng(5)
    deg = rng.integers(0, 10, size=40).astype(float)
    ga = partition_contrast(deg, 4.0)
    merged = np.sort(np.concatenate(ga.groups))
    assert merged.tolist() == list(range(40))


def test_top_bottom_basic():
    deg = np.arange(1.0, 11.0)
    ga = partition_top_bottom(deg, 0.2)
    assert ga.groups[0].tolist() == [0, 1]
    assert ga.groups[1].tolist() == [8, 9]


def test_top_bottom_tie_break_by_id():
    ga = partition_top_bottom(np.full(10, 3.0), 0.2)
    assert ga.groups[0].tolist() == [0, 1]
    assert ga.groups[1].tolist() == [8, 9]


def test_top_bottom_thirty_percent():
    ga = partition_top_bottom(np.arange(10.0), 0.3)
    assert len(ga.groups[0]) == 3
    assert len(ga.groups[1]) == 3


def test_top_bottom_fraction_range():
    with pytest.raises(ValueError):
        partition_top_bottom(np.arange(10.0), 0.0)
    with pytest.raises(ValueError):
        partition_top_bottom(np.arange(10.0), 0.6)


def test_top_bottom_restricted_universe():
    deg = np.array([9.0, 1.0, 5.0, 7.0, 3.0, 8.0])
    ga = partition_top_bottom(deg, 0.5, node_universe=[1, 3, 4, 5])
    assert ga.groups[0].tolist() == [1, 4]
    assert ga.groups[1].tolist() == [3, 5]


@pytest.mark.parametrize("make_universe", [
    pytest.param(lambda: {5, 1, 4, 3}, id="set"),
    pytest.param(lambda: (i for i in (5, 1, 4, 3)), id="generator"),
    pytest.param(lambda: [[5, 1], [4, 3]], id="nested-list"),
    pytest.param(lambda: np.array([5, 1, 4, 3]), id="unsorted-array"),
])
def test_top_bottom_universe_from_any_iterable(make_universe):
    # np.asarray of a set or a generator is a single object, not its nodes.
    deg = np.array([9.0, 1.0, 5.0, 7.0, 3.0, 8.0])
    ga = partition_top_bottom(deg, 0.5, node_universe=make_universe())
    assert ga.groups[0].tolist() == [1, 4]
    assert ga.groups[1].tolist() == [3, 5]


@st.composite
def degree_universes(draw):
    """Integer-valued degrees plus a universe of >= 2 nodes (None = every node)."""
    n = draw(st.integers(min_value=2, max_value=30))
    degrees = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), dtype=float)
    universe = draw(st.none() | st.sets(st.integers(0, n - 1), min_size=2))
    return degrees, universe


def universe_ids(degrees, universe):
    return list(range(degrees.size)) if universe is None else sorted(universe)


@settings(max_examples=100, deadline=None)
@given(degrees=st.lists(st.integers(0, 8), min_size=1, max_size=30).map(np.array),
       threshold=st.integers(-1, 9) | st.floats(-1.0, 9.0))
@example(degrees=np.array([2.0, 3.0, 3.0, 4.0]), threshold=3)
def test_contrast_property_disjoint_covering_inclusive(degrees, threshold):
    ids = list(range(degrees.size))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one group may be empty
        low, high = partition_contrast(degrees, threshold).groups
    assert low.tolist() == [v for v in ids if degrees[v] <= threshold]
    assert high.tolist() == [v for v in ids if degrees[v] > threshold]
    assert not set(low.tolist()) & set(high.tolist())
    assert sorted(low.tolist() + high.tolist()) == ids


@settings(max_examples=100, deadline=None)
@given(data=degree_universes(),
       fraction=st.floats(min_value=0.01, max_value=0.5))
@example(data=(np.full(6, 3.0), None), fraction=0.5)
def test_top_bottom_property_sizes_disjoint_ties_by_id(data, fraction):
    degrees, universe = data
    ids = universe_ids(degrees, universe)
    bottom, top = partition_top_bottom(degrees, fraction, node_universe=universe).groups
    k = math.floor(fraction * len(ids))
    ranked = sorted(ids, key=lambda v: (degrees[v], v))
    assert bottom.size == top.size == k
    assert bottom.tolist() == sorted(ranked[:k])
    assert top.tolist() == sorted(ranked[len(ranked) - k:])
    assert not set(bottom.tolist()) & set(top.tolist())


# ------------------------------------------------------------------ save files


def test_save_graph_files_bytes_match_loop_oracle(tmp_path):
    # The writer's output, byte for byte, against a per-node loop over the
    # adjacency, on a graph with isolated nodes, large ids and special values.
    g = synth_generate(60, 2, 0.9, 3, seed=4)
    edges = [(v, u) for v in range(60) for u in g.neighbors(v) if v < u] + [(3, 1205)]
    feats = np.random.default_rng(0).standard_normal((1207, 3))
    feats[:4] = [[-0.0, np.inf, -np.inf], [np.nan, 1e-300, 1.0 / 3.0],
                 [1e17, -2.5, 0.0], [5e-324, 123456789.0, -1e-7]]
    g = build_graph(np.array(edges), feats, np.arange(1207) % 3)
    paths = [str(tmp_path / name) for name in ("e.tsv", "f.csv", "l.txt")]
    save_graph_files(g, *paths)

    edge_text = "".join(
        f"{v}\t{u}\n" for v in range(g.num_nodes) for u in g.neighbors(v) if v < u
    )
    feature_text = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in feats)
    label_text = "".join(f"{y}\n" for y in g.labels)
    for path, text in zip(paths, (edge_text, feature_text, label_text)):
        with open(path, "rb") as fh:
            assert fh.read() == text.encode("utf-8")
    back = load_graph(*paths)
    assert np.array_equal(back.csr_neighbors, g.csr_neighbors)
    assert np.array_equal(back.features, g.features, equal_nan=True)


# --------------------------------------------------------------------- misc


def test_mean_degree():
    assert mean_degree(make_graph(TRIANGLE, 3)) == 2.0
    assert mean_degree(make_graph(PATH3, 3)) == pytest.approx(4.0 / 3.0)
    assert mean_degree(make_graph(STAR4, 4)) == 1.5


def test_split_sizes():
    s = split_nodes(10, (0.6, 0.2, 0.2), seed=1)
    assert (len(s.train), len(s.val), len(s.test)) == (6, 2, 2)
    s = split_nodes(5, (0.6, 0.2, 0.2), seed=1)
    assert (len(s.train), len(s.val), len(s.test)) == (3, 1, 1)


def test_split_deterministic_and_disjoint():
    a = split_nodes(23, (0.6, 0.2, 0.2), seed=9)
    b = split_nodes(23, (0.6, 0.2, 0.2), seed=9)
    assert a.train.tolist() == b.train.tolist()
    assert a.val.tolist() == b.val.tolist()
    assert a.test.tolist() == b.test.tolist()
    merged = np.sort(np.concatenate([a.train, a.val, a.test]))
    assert merged.tolist() == list(range(23))


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split_nodes(10, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        split_nodes(10, (-0.2, 0.6, 0.6), seed=0)


def test_synth_deterministic():
    a = synth_generate(50, 2, 0.9, 4, seed=3)
    b = synth_generate(50, 2, 0.9, 4, seed=3)
    assert np.array_equal(a.csr_neighbors, b.csr_neighbors)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_label_bias_one_matches_degree_indicator():
    g = synth_generate(60, 2, 1.0, 4, seed=5)
    deg = generalized_degree(g, 1)
    indicator = (deg > deg.mean()).astype(np.int64)
    assert np.array_equal(g.labels, indicator)


def test_synth_label_bias_half_is_noise():
    g = synth_generate(400, 2, 0.5, 2, seed=8)
    deg = generalized_degree(g, 1)
    indicator = (deg > deg.mean()).astype(np.int64)
    agree = float(np.mean(g.labels == indicator))
    assert 0.4 < agree < 0.6


def test_synth_long_tailed():
    g = synth_generate(300, 2, 0.9, 4, seed=1)
    deg = generalized_degree(g, 1)
    assert deg.max() > 4 * deg.mean()
    assert g.num_edges == 3 + 2 * (300 - 3)


def test_synth_argument_errors():
    with pytest.raises(ValueError):
        synth_generate(2, 2, 0.9, 4, seed=0)
    with pytest.raises(ValueError):
        synth_generate(10, 2, 1.5, 4, seed=0)
