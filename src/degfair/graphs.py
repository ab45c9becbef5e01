"""Graph container, loaders, degree statistics, and node partitions.

Graphs are undirected, simple (no self-loops, no parallel edges), and stored
in CSR form with dense fp64 node features and one integer class label per
node. All node ids are dense 0..N-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from degfair.autodiff import _indices

__all__ = [
    "Graph",
    "GroupAssignment",
    "NodeSplit",
    "GraphFormatError",
    "GraphDataError",
    "build_graph",
    "load_graph",
    "read_edges",
    "read_labels",
    "save_graph_files",
    "adjacency",
    "generalized_degree",
    "local_contexts",
    "mean_degree",
    "partition_contrast",
    "partition_top_bottom",
    "split_nodes",
    "synth_generate",
]


class GraphFormatError(ValueError):
    """A data file could not be parsed (malformed line, non-integer id)."""


class GraphDataError(ValueError):
    """Parsed data is inconsistent (id out of range, label out of range)."""


@dataclass(frozen=True)
class Graph:
    """Immutable CSR graph with node features and class labels.

    ``csr_offsets`` has length ``num_nodes + 1``; the neighbors of node v are
    ``csr_neighbors[csr_offsets[v]:csr_offsets[v+1]]``, sorted ascending.
    Every undirected edge appears in both endpoint rows.
    """

    num_nodes: int
    csr_offsets: np.ndarray
    csr_neighbors: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    @property
    def num_edges(self) -> int:
        return self.csr_neighbors.shape[0] // 2

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """One-hop degree of every node (int64)."""
        return np.diff(self.csr_offsets)

    def neighbors(self, v: int) -> np.ndarray:
        return self.csr_neighbors[self.csr_offsets[v] : self.csr_offsets[v + 1]]


@dataclass(frozen=True)
class GroupAssignment:
    """Pairwise-disjoint node groups: a low-degree group, then a high-degree one."""

    groups: list[np.ndarray]


@dataclass(frozen=True)
class NodeSplit:
    """Disjoint train/val/test node index sets covering all nodes."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_graph(
    edges: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int | None = None,
) -> Graph:
    """Build a validated Graph from an edge list (m x 2 int array).

    Input edges are symmetrized, self-loops dropped, and duplicates
    collapsed. ``num_nodes`` is taken from the feature matrix; every edge
    endpoint and label is checked against it.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise GraphDataError("feature matrix must be 2-D (num_nodes x feature_dim)")
    num_nodes = features.shape[0]

    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (num_nodes,):
        raise GraphDataError(
            f"expected {num_nodes} labels (one per feature row), got {labels.shape[0]}"
        )
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise GraphDataError(
            f"labels must lie in 0..{num_classes - 1}, found range "
            f"[{labels.min()}, {labels.max()}]"
        )

    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        lo, hi = int(edges.min()), int(edges.max())
        if lo < 0 or hi >= num_nodes:
            raise GraphDataError(
                f"edge endpoint {hi if hi >= num_nodes else lo} out of range for "
                f"{num_nodes} nodes"
            )
    # Symmetrize, drop self-loops, collapse duplicates. Each directed pair
    # (u, v) is the key u * n + v, so sorting the keys sorts by (u, v); the
    # keys fit in int64 while n < 3.0e9. A sort and an adjacent-difference
    # mask dedupe them; np.unique's hash table is many times slower here.
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    keep = src != dst
    keys = np.sort(src[keep] * num_nodes + dst[keep])
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    src, neighbors = np.divmod(keys[first], num_nodes)

    counts = np.bincount(src, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    return Graph(
        num_nodes=num_nodes,
        csr_offsets=_freeze(offsets),
        csr_neighbors=_freeze(neighbors),
        features=_freeze(features),
        labels=_freeze(labels),
        num_classes=num_classes,
    )


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_int(token: str, path: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphFormatError(
            f"{path}:{lineno}: expected a base-10 integer, got {token!r}"
        ) from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise GraphFormatError(
            f"{path}:{lineno}: {what} out of range for int64, got {token!r}"
        )
    return value


def _int_table(raw: bytes, ncols: int) -> np.ndarray | None:
    """Parse ``raw`` in one pass if it is a plain table of unsigned ids, else None.

    A plain table holds only ASCII digits, tabs and newlines; each line is
    ``ncols`` tokens of 1 to 18 digits (so every value fits in int64)
    separated by single tabs, and the file ends in a newline. Anything else
    (comments, blank lines, CRLF, spaces, signs, long or non-ASCII digits)
    is left to the per-line parser.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    if b.size == 0 or b[-1] != ord("\n"):
        return None
    seps = np.flatnonzero((b - ord("0")) > 9)  # uint8 wraps: every non-digit byte
    widths = np.diff(seps, prepend=-1) - 1  # digits before each separator
    pattern = np.full(ncols, ord("\t"), dtype=np.uint8)
    pattern[-1] = ord("\n")
    if (
        seps.size % ncols
        or widths.min() < 1
        or widths.max() > 18
        or not (b[seps].reshape(-1, ncols) == pattern).all()
    ):
        return None
    return np.array(raw.split(), dtype=np.int64).reshape(-1, ncols)


def _lines(raw: bytes, path: str):
    """Yield ``(lineno, line)`` for each line of ``raw``, decoded as UTF-8.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as in a file opened in text
    mode; the terminator is not part of the line.
    """
    for lineno, line in enumerate(raw.splitlines(), start=1):
        try:
            yield lineno, line.decode("utf-8")
        except UnicodeDecodeError:
            raise GraphFormatError(f"{path}:{lineno}: not valid UTF-8") from None


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_edges(path: str) -> np.ndarray:
    """Parse an edge file into an (m, 2) int64 array of node-id pairs.

    One edge per line, two node ids separated by a single tab; blank lines
    and lines starting with ``#`` are ignored. A malformed line, an id
    outside int64 or bytes that are not UTF-8 raise
    :class:`GraphFormatError` naming ``path:lineno``.
    """
    raw = _read_bytes(path)
    table = _int_table(raw, 2)
    if table is not None:
        return table
    edges = []
    for lineno, line in _lines(raw, path):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected two tab-separated ids, got {line!r}"
            )
        u = _parse_int(parts[0], path, lineno, "node id")
        v = _parse_int(parts[1], path, lineno, "node id")
        edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def read_labels(path: str) -> np.ndarray:
    """Parse a label file (one integer per line, blank lines skipped) as int64."""
    raw = _read_bytes(path)
    table = _int_table(raw, 1)
    if table is not None:
        return table.reshape(-1)
    labels = []
    for lineno, line in _lines(raw, path):
        line = line.strip()
        if line:
            labels.append(_parse_int(line, path, lineno, "integer"))
    return np.array(labels, dtype=np.int64)


def load_graph(edge_path: str, feature_path: str, label_path: str) -> Graph:
    """Load a graph from an edge file, a feature CSV, and a label file.

    Edge file: see :func:`read_edges`. Feature file: CSV, row i holds the
    fp64 features of node i; a file without rows is rejected. Label file:
    one integer per line, row i is the class of node i.
    """
    edges = read_edges(edge_path)
    try:
        with warnings.catch_warnings():
            # An empty file is reported below, not as numpy's warning.
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            features = np.loadtxt(feature_path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise GraphFormatError(f"{feature_path}: {exc}") from None
    if features.shape[0] == 0:
        raise GraphFormatError(f"{feature_path}: no feature rows")
    return build_graph(edges, features, read_labels(label_path))


def save_graph_files(
    g: Graph, edge_path: str, feature_path: str, label_path: str
) -> None:
    """Write a graph back out in the three-file on-disk format.

    Each undirected edge is written once, as ``v<TAB>u`` with v < u, in CSR
    order; features use 17 significant digits, so they reload bit-exactly.
    """
    src = np.repeat(np.arange(g.num_nodes), g.degrees)
    once = src < g.csr_neighbors
    pairs = map("{}\t{}\n".format, src[once].tolist(), g.csr_neighbors[once].tolist())
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("".join(pairs))
    np.savetxt(feature_path, g.features, fmt="%.17g", delimiter=",", encoding="utf-8")
    with open(label_path, "w", encoding="utf-8") as fh:
        fh.write("".join(map("{}\n".format, g.labels.tolist())))


def adjacency(g: Graph) -> sparse.csr_matrix:
    """The boolean adjacency A as a CSR matrix with the graph's sorted rows."""
    n = g.num_nodes
    return sparse.csr_matrix(
        (np.ones(g.csr_neighbors.size, dtype=bool), g.csr_neighbors, g.csr_offsets),
        shape=(n, n),
    )


def generalized_degree(g: Graph, r: int = 1) -> np.ndarray:
    """Number of length-r walks starting at each node, as fp64.

    Computed as r successive sparse products ``x = A @ x`` of the boolean
    adjacency against the all-ones vector. Exact while counts stay below
    2**53; beyond that fp64 rounds (far outside desk scale).
    """
    if r < 1:
        raise ValueError(f"hop count r must be >= 1, got {r}")
    adj = adjacency(g)
    x = np.ones(g.num_nodes, dtype=np.float64)
    for _ in range(r):
        x = adj @ x
    return x


def local_contexts(g: Graph, r: int) -> sparse.csr_matrix:
    """r-hop local context of every node: the boolean CSR pattern of (A+I)^r.

    The members of node v's context are the column indices of row v,
    ``indices[indptr[v]:indptr[v+1]]``, sorted, and always include v. The
    pattern is built by up to r-1 boolean sparse products of A+I, with A the
    :func:`adjacency`, so time and memory scale with the nonzeros each
    product builds, about sum_v |N_r(v)| for the last one. A product only
    adds nonzeros, so one that adds none has reached the pattern of every
    higher power, and the products stop there.
    """
    if r < 1:
        raise ValueError(f"radius must be >= 1, got {r}")
    step = adjacency(g) + sparse.identity(g.num_nodes, dtype=bool, format="csr")
    reach = step
    for _ in range(r - 1):
        before = reach.nnz
        reach = reach @ step  # boolean products OR-accumulate: no explicit zeros
        if reach.nnz == before:
            break
    if r > 1:
        # A product leaves each row's columns unsorted. (A+I)^r is symmetric,
        # so its transpose has the same pattern, and converting that CSC view
        # to CSR is one O(nnz) counting pass that emits sorted rows, cheaper
        # than sorting each row. A+I itself (r = 1) is already sorted.
        reach = reach.T.tocsr()
    return reach


def mean_degree(g: Graph) -> float:
    """Arithmetic mean one-hop degree, 2|E|/|V| (the default threshold K)."""
    if g.num_nodes == 0:
        raise ValueError("mean degree of an empty graph is undefined")
    return 2.0 * g.num_edges / g.num_nodes


def _as_universe(node_universe, degrees: np.ndarray) -> np.ndarray:
    if node_universe is None:
        return np.arange(degrees.shape[0], dtype=np.int64)
    if not isinstance(node_universe, np.ndarray):
        node_universe = list(node_universe)  # np.asarray of a set or generator is one object
    universe = np.sort(_indices(node_universe, degrees.shape[0], "node_universe"))
    if np.any(universe[1:] == universe[:-1]):
        raise ValueError("node_universe lists a node more than once")
    return universe


def partition_contrast(degrees: np.ndarray, threshold: float) -> GroupAssignment:
    """Split the nodes into low-degree (deg <= K) and high-degree rest.

    The threshold is inclusive: a node exactly at K lands in the low group.
    """
    low_mask = np.asarray(degrees, dtype=np.float64) <= threshold
    s0 = np.flatnonzero(low_mask)
    s1 = np.flatnonzero(~low_mask)
    if s0.size == 0 or s1.size == 0:
        warnings.warn(
            f"degree threshold {threshold} leaves one contrast group empty "
            f"(|S0|={s0.size}, |S1|={s1.size})",
            stacklevel=2,
        )
    return GroupAssignment(groups=[s0, s1])


def partition_top_bottom(
    degrees: np.ndarray, fraction: float, node_universe=None
) -> GroupAssignment:
    """Bottom-p% (group 0) and top-p% (group 1) of a universe by degree.

    Each group has exactly floor(p * |universe|) nodes. Ordering is by
    (degree, node id), so ties are broken deterministically by id. The
    universe lists distinct integer node ids in range, or raises.
    """
    if not 0.0 < fraction <= 0.5:
        raise ValueError(f"fraction must be in (0, 0.5], got {fraction}")
    degrees = np.asarray(degrees, dtype=np.float64)
    universe = _as_universe(node_universe, degrees)
    if universe.size < 2:
        raise GraphDataError("top/bottom partition needs a universe of >= 2 nodes")
    order = universe[np.lexsort((universe, degrees[universe]))]
    k = int(np.floor(fraction * universe.size))
    g0 = np.sort(order[:k])
    g1 = np.sort(order[order.size - k :]) if k else np.empty(0, dtype=np.int64)
    return GroupAssignment(groups=[g0, g1])


def split_nodes(
    num_nodes: int, ratios: tuple[float, float, float], seed: int
) -> NodeSplit:
    """Deterministic train/val/test split with the given proportions.

    Sizes are floored, with the remainder going to the training set; the
    same seed always produces the same split.
    """
    ratios = tuple(float(x) for x in ratios)
    if len(ratios) != 3 or any(x <= 0 for x in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_nodes)
    n_val = int(np.floor(ratios[1] * num_nodes))
    n_test = int(np.floor(ratios[2] * num_nodes))
    n_train = num_nodes - n_val - n_test
    return NodeSplit(
        train=np.sort(perm[:n_train]),
        val=np.sort(perm[n_train : n_train + n_val]),
        test=np.sort(perm[n_train + n_val :]),
    )


def synth_generate(
    n: int, attach: int, label_bias: float, feat_dim: int, seed: int
) -> Graph:
    """Preferential-attachment graph with degree-correlated labels.

    Starts from a clique on ``attach + 1`` nodes; every later node attaches
    to ``attach`` distinct existing nodes chosen proportionally to degree,
    giving a long-tailed degree distribution. Each node's label is its
    degree-group indicator (degree <= mean -> 0, else 1) kept with
    probability ``label_bias`` and flipped otherwise. Features are the
    class mean (unit separation between the two class means) plus standard
    normal noise. Deterministic under ``seed``.
    """
    if attach < 1:
        raise ValueError(f"attach must be >= 1, got {attach}")
    if n < attach + 1:
        raise ValueError(f"need n >= attach + 1, got n={n}, attach={attach}")
    if not 0.0 <= label_bias <= 1.0:
        raise ValueError(f"label_bias must be in [0, 1], got {label_bias}")
    if feat_dim < 1:
        raise ValueError(f"feat_dim must be >= 1, got {feat_dim}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    m0 = attach + 1
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    # One entry per edge endpoint: sampling uniformly from it is sampling
    # nodes proportionally to degree.
    repeated = [v for e in edges for v in e]
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.append((v, t))
            repeated.extend((v, t))

    edge_arr = np.array(edges, dtype=np.int64)
    deg = np.bincount(edge_arr.ravel(), minlength=n).astype(np.float64)
    base = (deg > deg.mean()).astype(np.int64)
    flips = rng.random(n) < (1.0 - label_bias)
    labels = np.where(flips, 1 - base, base)

    # Class means sit at 1 and 1 + u/|u| (unit separation). The shared
    # positive offset mimics count-style features, so aggregated feature
    # magnitude reflects neighborhood abundance and the planted degree bias
    # is expressible by a plain aggregation model.
    direction = np.ones(feat_dim) / np.sqrt(feat_dim)
    features = (
        1.0
        + labels[:, None] * direction[None, :]
        + rng.standard_normal((n, feat_dim))
    )
    return build_graph(edge_arr, features, labels, num_classes=2)
