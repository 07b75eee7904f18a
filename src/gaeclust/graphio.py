"""Attributed-graph container, dataset format, featurization, and perturbations.

The on-disk dataset format is plain text: a directory holding

    edges.tsv       one "u<TAB>v" pair per line, 0-indexed node ids
    features.tsv    optional, N rows of whitespace-separated decimals
    labels.tsv      optional, N lines with one integer cluster id each
    meta.json       {"n_nodes": int, "k_clusters": int, "dataset_name": str}

Graphs are undirected, binary, and self-loop free. When features.tsv is
absent, node features default to a one-hot encoding of node degrees.

features.tsv is read by _read_fixed_layout when all its lines share one
byte layout of plain decimals (as benchmarks/gen.py and save_dataset
write binary features), and by np.loadtxt otherwise; both give the same
float64 values, bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError, FormatError, RangeError


@dataclass(frozen=True)
class AttributedGraph:
    """An undirected attributed graph with optional ground-truth labels.

    Attributes
    ----------
    n_nodes : int
        Number of nodes N.
    adjacency : scipy.sparse.csr_matrix
        Symmetric binary N x N adjacency, zero diagonal.
    features : ndarray, shape (N, J)
        Node feature matrix, float64.
    labels : ndarray of int or None
        Ground-truth cluster ids in [0, k_clusters).
    k_clusters : int
        Number of clusters K.
    name : str
        Dataset name, used in result records.
    """

    n_nodes: int
    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray | None
    k_clusters: int
    name: str = "unnamed"

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n_nodes, self.n_nodes):
            raise DataError(f"adjacency shape {a.shape} does not match n_nodes={self.n_nodes}")
        if a.nnz and (a != a.T).nnz:
            raise DataError("adjacency must be symmetric")
        if a.diagonal().any():
            raise DataError("adjacency must have an empty diagonal (no self-loops)")
        if a.nnz:
            vals = np.unique(a.data)
            if not np.array_equal(vals, np.array([1.0])):
                raise DataError("adjacency must be binary")
        if self.features.shape[0] != self.n_nodes:
            raise DataError("feature row count does not match n_nodes")
        if not _all_finite(self.features):
            raise DataError("features contain NaN or Inf")
        if self.labels is not None:
            if self.labels.shape != (self.n_nodes,):
                raise DataError("labels length does not match n_nodes")
            if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.k_clusters:
                raise DataError("labels must lie in [0, k_clusters)")
        if self.k_clusters < 1:
            raise DataError("k_clusters must be >= 1")

    @property
    def n_edges(self) -> int:
        """Number of undirected edges |E|."""
        return self.adjacency.nnz // 2

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (|E|, 2) int array with u < v, lexicographic."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        pairs = np.stack([coo.row, coo.col], axis=1)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return pairs[order]


@dataclass(frozen=True)
class NormalizedAdjacency:
    """The GCN propagation matrix: entries d~_i^-1/2 d~_j^-1/2 over A+I."""

    matrix: sp.csr_matrix


def adjacency_from_edges(n_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    """Build a symmetric binary CSR adjacency from an (m, 2) edge array.

    Duplicate and reversed pairs collapse to a single undirected edge.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        u = np.minimum(edges[:, 0], edges[:, 1])
        v = np.maximum(edges[:, 0], edges[:, 1])
        keys = np.unique(u.astype(np.int64) * n_nodes + v)
        u, v = keys // n_nodes, keys % n_nodes
        row = np.concatenate([u, v])
        col = np.concatenate([v, u])
        data = np.ones(row.shape[0], dtype=np.float64)
        a = sp.csr_matrix((data, (row, col)), shape=(n_nodes, n_nodes))
    else:
        a = sp.csr_matrix((n_nodes, n_nodes), dtype=np.float64)
    a.sum_duplicates()
    a.data[:] = 1.0
    a.sort_indices()
    return a


def make_graph(n_nodes, edges, features=None, labels=None, k_clusters=1, name="unnamed"):
    """Construct a validated AttributedGraph from an edge array.

    Features default to the degree one-hot encoding when omitted.
    """
    adjacency = adjacency_from_edges(n_nodes, edges)
    labels = None if labels is None else np.asarray(labels, dtype=np.int64)
    if features is None:
        features = _degree_onehot(adjacency)
    features = np.asarray(features, dtype=np.float64)
    return AttributedGraph(n_nodes, adjacency, features, labels, k_clusters, name)


def load_dataset(path) -> AttributedGraph:
    """Load an AttributedGraph from a dataset directory.

    Parameters
    ----------
    path : str or Path
        Directory containing edges.tsv, meta.json, and optionally
        features.tsv and labels.tsv.

    Raises
    ------
    FormatError
        Missing files, malformed lines, node ids >= n_nodes, self-loop
        lines, or labels outside [0, k_clusters).
    """
    path = Path(path)
    meta_file = path / "meta.json"
    edge_file = path / "edges.tsv"
    if not meta_file.is_file():
        raise FormatError(f"missing meta.json in {path}")
    if not edge_file.is_file():
        raise FormatError(f"missing edges.tsv in {path}")
    try:
        meta = json.loads(meta_file.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"meta.json is not valid JSON: {exc}") from exc
    for key in ("n_nodes", "k_clusters"):
        if key not in meta:
            raise FormatError(f"meta.json missing required key '{key}'")
    n_nodes = int(meta["n_nodes"])
    k_clusters = int(meta["k_clusters"])
    name = str(meta.get("dataset_name", path.name))

    edges = []
    for lineno, line in enumerate(edge_file.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"edges.tsv line {lineno}: expected 'u<TAB>v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"edges.tsv line {lineno}: non-integer node id") from exc
        if u == v:
            raise FormatError(f"edges.tsv line {lineno}: self-loop {u}")
        if u < 0 or v < 0 or u >= n_nodes or v >= n_nodes:
            raise FormatError(f"edges.tsv line {lineno}: node id out of range [0, {n_nodes})")
        edges.append((u, v))
    # the tuples take ~100 bytes an edge; the array frees them before X exists
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)

    feat_file = path / "features.tsv"
    features = None
    if feat_file.is_file():
        features = _read_fixed_layout(feat_file)
        if features is None:
            try:
                features = np.loadtxt(feat_file, dtype=np.float64, ndmin=2)
            except ValueError as exc:
                raise FormatError(f"features.tsv: {exc}") from exc
        if features.shape[0] != n_nodes:
            raise FormatError(
                f"features.tsv has {features.shape[0]} rows, expected {n_nodes}"
            )
        if not _all_finite(features):
            raise FormatError("features.tsv contains non-finite values")

    label_file = path / "labels.tsv"
    labels = None
    if label_file.is_file():
        try:
            labels = np.loadtxt(label_file, dtype=np.int64, ndmin=1)
        except ValueError as exc:
            raise FormatError(f"labels.tsv: {exc}") from exc
        if labels.shape[0] != n_nodes:
            raise FormatError(f"labels.tsv has {labels.shape[0]} lines, expected {n_nodes}")
        if labels.min() < 0 or labels.max() >= k_clusters:
            raise FormatError(f"labels.tsv contains labels outside [0, {k_clusters})")

    return make_graph(n_nodes, edges, features, labels, k_clusters, name)


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all() without the N x J mask: min and max carry any
    NaN, and any infinity shows as one of them."""
    return x.size == 0 or bool(np.isfinite(x.min()) and np.isfinite(x.max()))


# file bytes the fixed-layout reader holds at once: small next to the
# N x J float64 output, so its peak memory stays at np.loadtxt's
_BLOCK_BYTES = 1 << 17
# at most 15 digits: the mantissa M < 10^15 < 2^53 and 10^f <= 10^15 are
# exact doubles, so the one division M / 10^f is correctly rounded
_MAX_DIGITS = 15
_TOKEN = re.compile(rb"(-?)(0+)(?:\.(0+))?")  # a token with its digits read as 0


def _index(offsets: np.ndarray):
    """Evenly stepped offsets as a slice, which indexes as a view; others as is."""
    steps = np.diff(offsets)
    if steps.size and (steps[0] <= 0 or np.any(steps != steps[0])):
        return offsets
    return slice(int(offsets[0]), int(offsets[-1]) + 1, int(steps[0]) if steps.size else 1)


def _layout_plan(first: bytes):
    """The byte layout of one features.tsv line, or None when it has none.

    Returns (template, limit, n_cols, plan): a line matches when, byte by
    byte, line ^ template <= limit (a digit where the template has '0', the
    template's byte elsewhere). plan holds one (cols, digit_at, dtype,
    scale) per token shape, such as "0" or "-0.00": the output columns of
    the tokens of that shape, the line offsets of their k digits in reading
    order, an unsigned dtype that holds 10^k, and -+10^f for f fraction digits.
    """
    if not first.endswith(b"\n"):
        return None
    template = np.frombuffer(first, dtype=np.uint8).copy()
    digit = (template ^ ord("0")) <= 9
    template[digit] = ord("0")
    shapes = {}
    for col, tok in enumerate(re.finditer(rb"[^ \t]+", template[:-1].tobytes())):
        shapes.setdefault(tok.group(), []).append((col, tok.start()))
    plan = []
    for shape, where in shapes.items():
        m = _TOKEN.fullmatch(shape)
        n_digits = shape.count(b"0")
        if m is None or n_digits > _MAX_DIGITS:
            return None
        cols, starts = np.array(where).T
        digit_at = [_index(starts + i) for i, c in enumerate(shape) if c == ord("0")]
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                     if 10 ** n_digits + 47 <= np.iinfo(t).max)
        scale = (-1.0 if m[1] else 1.0) * float(10 ** len(m[3] or b""))
        plan.append((_index(cols), digit_at, dtype, scale))
    if not plan:
        return None
    limit = np.where(digit, 9, 0).astype(np.uint8)
    return template, limit, sum(len(w) for w in shapes.values()), plan


def _read_fixed_layout(path) -> np.ndarray | None:
    """features.tsv as float64 when every line shares one byte layout, else None.

    The layout holds when every line has the same length and the same bytes
    at each offset the first line has no digit at, and each token reads
    -?D+(.D+)? with at most _MAX_DIGITS digits. Token j then sits at the
    same byte offsets in every line, so the file is an (N, L) byte array:
    each token's digits are read column-wise by Horner's rule into an
    integer M, and its value is M / +-10^f, the correctly rounded decimal
    (Clinger's fast path), which is what np.loadtxt returns, bit for bit.
    The whole file is checked before any token is parsed, so a file that
    falls back pays one pass of byte compares; both passes read
    _BLOCK_BYTES at a time into one buffer and write X in place.
    """
    with open(path, "rb") as f:
        first = f.readline()
        size = os.fstat(f.fileno()).st_size
        layout = _layout_plan(first) if first and size % len(first) == 0 else None
        if layout is None:
            return None
        template, limit, n_cols, plan = layout
        width = len(first)
        n_rows = size // width
        step = max(1, _BLOCK_BYTES // width)
        buf = np.empty(step * width, dtype=np.uint8)

        def blocks():
            """(r0, r1, rows r0:r1 as bytes); rows None on a short read."""
            f.seek(0)
            for r0 in range(0, n_rows, step):
                r1 = min(n_rows, r0 + step)
                rows = buf[: (r1 - r0) * width]
                yield r0, r1, rows.reshape(-1, width) if f.readinto(rows) == rows.size else None

        for _, _, rows in blocks():
            if rows is None or np.any((rows ^ template) > limit):
                return None
        out = np.empty((n_rows, n_cols), dtype=np.float64)
        for r0, r1, rows in blocks():
            if rows is None:
                return None
            for cols, digit_at, dtype, scale in plan:
                m = rows[:, digit_at[0]].astype(dtype)
                m -= ord("0")
                for at in digit_at[1:]:
                    m *= 10
                    m += rows[:, at]
                    m -= ord("0")
                if isinstance(cols, slice):
                    np.divide(m, scale, out=out[r0:r1, cols])
                else:
                    out[r0:r1, cols] = m / scale
    return out


def write_text_atomic(path, text: str) -> None:
    """Write text through a temporary sibling and a rename, so a reader
    sees the old file or the new one, never a partial write."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def save_dataset(graph: AttributedGraph, path) -> None:
    """Write a graph back to the dataset directory format.

    Edges and labels round-trip exactly; features round-trip to the
    printed decimal precision (repr of float64). Each file is replaced
    atomically; an unlabeled graph removes a labels.tsv left by an
    earlier save.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {"n_nodes": graph.n_nodes, "k_clusters": graph.k_clusters, "dataset_name": graph.name}
    write_text_atomic(path / "meta.json", json.dumps(meta, indent=2) + "\n")
    lines = [f"{u}\t{v}" for u, v in graph.edge_array()]
    write_text_atomic(path / "edges.tsv", "\n".join(lines) + ("\n" if lines else ""))
    rows = [" ".join(repr(float(x)) for x in row) for row in graph.features]
    write_text_atomic(path / "features.tsv", "\n".join(rows) + "\n")
    if graph.labels is None:
        (path / "labels.tsv").unlink(missing_ok=True)
    else:
        write_text_atomic(path / "labels.tsv",
                          "\n".join(str(int(x)) for x in graph.labels) + "\n")


def _degree_onehot(adjacency: sp.csr_matrix) -> np.ndarray:
    """One column per distinct node degree; row i flags degree(i)'s bin."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel().astype(np.int64)
    bins = np.unique(degrees)
    out = np.zeros((degrees.shape[0], bins.shape[0]), dtype=np.float64)
    out[np.arange(degrees.shape[0]), np.searchsorted(bins, degrees)] = 1.0
    return out


def normalize_adjacency(graph: AttributedGraph, mode: str) -> NormalizedAdjacency:
    """The renormalization trick of the GCN filter: D~^-1/2 (A+I) D~^-1/2.

    mode must be "propagation", the only normalization the models use;
    any other value raises RangeError.
    """
    if mode != "propagation":
        raise RangeError(f"unknown normalization mode {mode!r}")
    a = (graph.adjacency + sp.eye(graph.n_nodes, format="csr")).tocsr()
    # every degree of A+I is at least 1
    d_inv = sp.diags(1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel()))
    normalized = (d_inv @ a @ d_inv).tocsr()
    normalized.sort_indices()
    return NormalizedAdjacency(normalized)


# perturbation kinds whose amount is a count of edges or feature columns
COUNT_PERTURBATIONS = ("add_random_edges", "drop_random_edges", "drop_feature_columns")


def fractional_count(kind: str, amount) -> bool:
    """True when kind counts edges or columns and amount is no whole number."""
    return kind in COUNT_PERTURBATIONS and not (
        isinstance(amount, numbers.Integral) or float(amount).is_integer())


def perturb_graph(graph: AttributedGraph, kind: str, amount, seed: int) -> AttributedGraph:
    """Return a randomly perturbed copy of the graph.

    Parameters
    ----------
    kind : {"add_random_edges", "drop_random_edges", "feature_gaussian_noise",
            "drop_feature_columns"}
    amount : int or float
        Edge/column count m, or noise standard deviation sigma.
    seed : int
        Perturbations are deterministic given the seed.

    Raises
    ------
    RangeError
        m is no whole number or exceeds the available candidates, or sigma < 0.
    """
    if fractional_count(kind, amount):
        raise RangeError(f"{kind} needs a whole number, got {amount!r}")
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    if kind == "add_random_edges":
        m = int(amount)
        existing = graph.edge_array()
        n_pairs = n * (n - 1) // 2
        candidates = n_pairs - existing.shape[0]
        if m < 0 or m > candidates:
            raise RangeError(f"cannot add {m} edges: only {candidates} non-edges exist")
        taken = {n * int(u) + int(v) for u, v in existing}
        new = []
        # rejection sampling stays uniform over non-edges and never builds
        # the O(N^2) candidate list
        while len(new) < m:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            if u > v:
                u, v = v, u
            key = n * u + v
            if key in taken:
                continue
            taken.add(key)
            new.append((u, v))
        edges = np.concatenate([existing, np.array(new, dtype=np.int64).reshape(-1, 2)])
        return dataclasses.replace(graph, adjacency=adjacency_from_edges(n, edges))
    if kind == "drop_random_edges":
        m = int(amount)
        existing = graph.edge_array()
        if m < 0 or m > existing.shape[0]:
            raise RangeError(f"cannot drop {m} edges: graph has {existing.shape[0]}")
        keep = np.ones(existing.shape[0], dtype=bool)
        keep[rng.choice(existing.shape[0], size=m, replace=False)] = False
        return dataclasses.replace(graph, adjacency=adjacency_from_edges(n, existing[keep]))
    if kind == "feature_gaussian_noise":
        sigma = float(amount)
        if sigma < 0.0:
            raise RangeError("noise standard deviation must be >= 0")
        noise = rng.normal(0.0, sigma, size=graph.features.shape)
        return dataclasses.replace(graph, features=graph.features + noise)
    if kind == "drop_feature_columns":
        m = int(amount)
        j = graph.features.shape[1]
        if m < 0 or m >= j:
            raise RangeError(f"cannot drop {m} of {j} feature columns")
        drop = rng.choice(j, size=m, replace=False)
        keep = np.setdiff1d(np.arange(j), drop)
        return dataclasses.replace(graph, features=graph.features[:, keep])
    raise RangeError(f"unknown perturbation kind {kind!r}")
