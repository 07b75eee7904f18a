"""Attributed-graph container, dataset format, featurization, and perturbations.

The on-disk dataset format is plain text: a directory holding

    edges.tsv       one "u<TAB>v" pair per line, 0-indexed node ids
    features.tsv    optional, N rows of whitespace-separated decimals
    labels.tsv      optional, N lines with one integer cluster id each
    meta.json       {"n_nodes": int, "k_clusters": int, "dataset_name": str}

Graphs are undirected, binary, and self-loop free. When features.tsv is
absent, node features default to a one-hot encoding of node degrees.
_canonical_csr is the one place a sparse matrix becomes canonical (float64
CSR, sorted indices, no duplicate entries), for an adjacency and a sparse X.

This module owns the edge format: an edge u < v has the int64 key u * n + v
(edge_keys), sorted keys list edges lexicographically, and operators and
diagnostics convert keys, CSR adjacencies and TSV lines through it.

features.tsv is parsed into CSR by _read_fixed_layout when it is sparse and
its lines repeat one unsigned token shape at one stride, such as "0 1 ..."
(benchmarks/gen.py) and "0.0 1.0 ..." (save_dataset of binary features),
and by np.loadtxt otherwise. Both give the same float64 values, bit for bit.
_read_fixed_layout compares the file with its first line 8 bytes at a time
and decodes only the words that differ, about 5% of a bag-of-words file.

A graph stores X as feature_operand decides, once, when it is built: as
CSR when at most _SPARSE_FEATURES of its entries are stored, and as the
dense array otherwise. An entry is stored when its bits are not +0.0, so
a "-0.0" token survives and the dense form (dense_features) is X bit for
bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import re
import warnings
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
        Symmetric binary N x N adjacency, zero diagonal, in _canonical_csr form.
    x : scipy.sparse.csr_matrix or ndarray, shape (N, J)
        Node feature matrix X, float64, in the form encode takes:
        feature_operand of what the graph was built with, so CSR when at
        most _SPARSE_FEATURES of its entries are stored.
    labels : ndarray of int64 or None
        Ground-truth cluster ids in [0, k_clusters), from any integer array-like.
    k_clusters : int
        Number of clusters K.
    name : str
        Dataset name, used in result records.
    """

    n_nodes: int
    adjacency: sp.csr_matrix
    x: sp.csr_matrix | np.ndarray
    labels: np.ndarray | None
    k_clusters: int
    name: str = "unnamed"

    def __post_init__(self):
        if not sp.issparse(self.adjacency):
            raise DataError("adjacency must be a scipy.sparse matrix")
        a = _canonical_csr(self.adjacency)
        object.__setattr__(self, "adjacency", a)
        if a.shape != (self.n_nodes, self.n_nodes):
            raise DataError(f"adjacency shape {a.shape} does not match n_nodes={self.n_nodes}")
        if not np.all(a.data == 1.0):
            raise DataError("adjacency must be binary")
        t = a.T.tocsr()  # canonical binary a is a^T exactly when their patterns match
        if not (np.array_equal(a.indptr, t.indptr) and np.array_equal(a.indices, t.indices)):
            raise DataError("adjacency must be symmetric")
        if a.diagonal().any():
            raise DataError("adjacency must have an empty diagonal (no self-loops)")
        if np.ndim(self.x) != 2:
            raise DataError("features must be an N x J matrix")
        x = feature_operand(self.x)
        object.__setattr__(self, "x", x)
        if x.shape[0] != self.n_nodes:
            raise DataError("feature row count does not match n_nodes")
        if not _all_finite(x.data if sp.issparse(x) else x):
            raise DataError("features contain NaN or Inf")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu":
                raise DataError(f"labels must be integers, got dtype {labels.dtype}")
            object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
            if self.labels.shape != (self.n_nodes,):
                raise DataError("labels length does not match n_nodes")
            if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.k_clusters:
                raise DataError("labels must lie in [0, k_clusters)")
        if not 1 <= self.k_clusters <= self.n_nodes:
            raise DataError("k_clusters must lie in [1, n_nodes]")

    @property
    def features(self) -> np.ndarray:
        """X as a new dense float64 (N, J) array, N x J doubles on each
        access. Only benchmarks/ reads it, until they move to x and this
        shim is deleted; everything else reads x, or dense_features(x) of a
        CSR x."""
        return dense_features(self.stored_x)

    @property
    def stored_x(self) -> sp.csr_matrix:
        """X as canonical CSR of its stored entries (bits not +0.0): x
        itself when the graph stores CSR, built from the dense x otherwise."""
        return self.x if sp.issparse(self.x) else _stored_entries(self.x)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges |E|."""
        return self.adjacency.nnz // 2

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (|E|, 2) int64 array with u < v, in
        lexicographic order (graph_hash hashes its bytes)."""
        return key_pairs(upper_keys(self.adjacency), self.n_nodes)


def edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per undirected pair, min * n + max; sorting the keys
    sorts the pairs lexicographically."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return np.minimum(u, v) * n + np.maximum(u, v)


def key_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of edge_keys as an (m, 2) int64 edge array."""
    u = keys // n  # the remainder as keys - u * n, faster than numpy's % (as adjacency_from_keys)
    return np.stack([u, keys - u * n], axis=1)


def upper_keys(a: sp.csr_matrix) -> np.ndarray:
    """Sorted keys of the stored entries (i, j), i < j, of a CSR matrix."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    upper = a.indices > rows
    # row-major order is already sorted unless the indices are not
    return np.sort(rows[upper] * n + a.indices[upper])


def adjacency_from_keys(n: int, keys: np.ndarray) -> sp.csr_matrix:
    """Symmetric binary CSR adjacency (sorted indices) of sorted distinct keys."""
    # integer division by a scalar is ~4x faster than numpy's remainder
    u = keys // n
    both = np.concatenate([keys, (keys - u * n) * n + u])
    both.sort()
    indptr = np.searchsorted(both, np.arange(n + 1, dtype=np.int64) * n)
    both -= both // n * n
    return sp.csr_matrix((np.ones(both.shape[0]), both, indptr), shape=(n, n))


def adjacency_from_edges(n_nodes: int, edges: np.ndarray) -> sp.csr_matrix:
    """Build a symmetric binary CSR adjacency from an (m, 2) edge array.

    Duplicate and reversed pairs collapse to a single undirected edge.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return adjacency_from_keys(n_nodes, sorted_unique(edge_keys(edges[:, 0], edges[:, 1], n_nodes)))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D integer array, by a sort and a neighbour compare:
    numpy 2.4's hash-based np.unique is ~15x slower at 5k int64 keys."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=keys[:1] - 1) != 0]


def make_graph(n_nodes, edges, features=None, labels=None, k_clusters=1, name="unnamed"):
    """Construct a validated AttributedGraph from an edge array.

    features is an (N, J) array or sparse matrix; it defaults to the
    degree one-hot encoding when omitted.
    """
    adjacency = adjacency_from_edges(n_nodes, edges)
    if features is None:
        features = _degree_onehot(adjacency)
    return AttributedGraph(n_nodes, adjacency, features, labels, k_clusters, name)


# densest feature matrix a graph stores as CSR. X @ W1 plus X^T @ G (N x 32)
# in CSR breaks even with BLAS between 20% and 25% non-zeros at both
# N=2708, J=1433 and N=19717, J=500 (one BLAS thread) and is 2.2-2.6x
# faster at 10%, so the cut-off sits below break-even with PubMed's 10.0%
# inside.
_SPARSE_FEATURES = 0.12


def feature_operand(x):
    """X as a graph stores it and encode takes it: CSR when at most
    _SPARSE_FEATURES of its entries are stored, the dense float64 array
    otherwise.

    An entry is stored when its bits are not +0.0 (-0.0 and NaN are), so
    dense_features gives X back bit for bit. A sparse x is first brought
    to canonical CSR without stored +0.0 entries; the rule is idempotent,
    so feature_operand of its own result returns it unchanged.
    """
    if sp.issparse(x):
        x = _canonical_csr(x)
        stored = x.data.view(np.uint64) != 0
        if not stored.all():
            rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
            x = _csr(x.shape, rows[stored], x.indices[stored], x.data[stored])
        if x.nnz <= _SPARSE_FEATURES * x.shape[0] * x.shape[1]:
            return x
        return dense_features(x)
    x = np.asarray(x, dtype=np.float64)
    if np.count_nonzero(x.view(np.uint64)) > _SPARSE_FEATURES * x.size:
        return x
    return _stored_entries(x)


def _canonical_csr(m: sp.spmatrix) -> sp.csr_matrix:
    """m as canonical CSR: m itself when it already is, else a new matrix; m is never modified."""
    if not (isinstance(m, sp.csr_matrix) and m.dtype == np.float64):
        m = sp.csr_matrix(m, dtype=np.float64)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return m


def _stored_entries(x: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix of the entries of a dense float64 x whose bits are not +0.0."""
    rows, cols = np.divmod(np.flatnonzero(x.view(np.uint64) != 0), x.shape[1])
    return _csr(x.shape, rows, cols, x[rows, cols])


def _csr(shape: tuple, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix of entries listed in row-major order."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((data, cols, indptr), shape=shape)


def dense_features(x: sp.csr_matrix) -> np.ndarray:
    """A CSR X as a new dense float64 array. Stored entries are assigned,
    not added, so a stored -0.0 keeps its sign (scipy's toarray() sums
    them into +0.0)."""
    out = np.zeros(x.shape)
    rows = np.repeat(np.arange(x.shape[0]), np.diff(x.indptr))
    out[rows, x.indices] = x.data
    return out


def load_dataset(path) -> AttributedGraph:
    """Load an AttributedGraph from a dataset directory.

    The graph's x is CSR when at most _SPARSE_FEATURES of features.tsv's
    entries are stored. A sparse file of unsigned fixed-layout tokens is
    parsed into that CSR block by block, without N x J doubles; np.loadtxt
    parses every other file into the whole dense array first.

    Parameters
    ----------
    path : str or Path
        Directory containing edges.tsv, meta.json, and optionally
        features.tsv and labels.tsv.

    Raises
    ------
    FormatError
        Missing files, malformed lines, n_nodes < 1, k_clusters outside
        [1, n_nodes], node ids >= n_nodes, self-loop lines, or labels
        outside [0, k_clusters).
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
    if not isinstance(meta, dict):
        raise FormatError("meta.json must be a JSON object")
    for key in ("n_nodes", "k_clusters"):
        if key not in meta:
            raise FormatError(f"meta.json missing required key '{key}'")
        # a bool is no count, and int() would cut 3.7 to 3
        if not isinstance(meta[key], int) or isinstance(meta[key], bool):
            raise FormatError(f"meta.json: {key} must be an integer, got {meta[key]!r}")
    n_nodes, k_clusters = meta["n_nodes"], meta["k_clusters"]
    if n_nodes < 1:
        raise FormatError(f"meta.json: n_nodes must be at least 1, got {n_nodes}")
    if not 1 <= k_clusters <= n_nodes:
        raise FormatError(f"meta.json: k_clusters must lie in [1, {n_nodes}], got {k_clusters}")
    name = str(meta.get("dataset_name", path.name))

    # comments=None: a '#' line is malformed, not a comment
    edges = _loadtxt(edge_file, "edges.tsv: non-integer node id or ragged line",
                     dtype=np.int64, ndmin=2, comments=None)
    if edges.size and edges.shape[1] != 2:
        raise FormatError(f"edges.tsv: expected 'u<TAB>v' lines, got {edges.shape[1]} columns")
    edges = edges.reshape(-1, 2)
    loops = edges[:, 0] == edges[:, 1]
    if loops.any():
        raise FormatError(f"edges.tsv: self-loop {edges[loops][0, 0]}")
    outside = (edges < 0) | (edges >= n_nodes)
    if outside.any():
        raise FormatError(f"edges.tsv: node id {edges[outside][0]} out of range [0, {n_nodes})")

    feat_file = path / "features.tsv"
    features = None
    if feat_file.is_file():
        features = _read_fixed_layout(feat_file)
        if features is None:
            features = _loadtxt(feat_file, "features.tsv", dtype=np.float64, ndmin=2)
            # the fixed-layout values are finite by construction
            if not _all_finite(features):
                raise FormatError("features.tsv contains non-finite values")
        if features.shape[0] != n_nodes:
            raise FormatError(
                f"features.tsv has {features.shape[0]} rows, expected {n_nodes}"
            )

    label_file = path / "labels.tsv"
    labels = None
    if label_file.is_file():
        labels = _loadtxt(label_file, "labels.tsv", dtype=np.int64, ndmin=2)
        if labels.shape != (n_nodes, 1):
            raise FormatError(f"labels.tsv has {labels.shape[0]} lines of {labels.shape[1]} ids, "
                              f"expected {n_nodes} lines of one id each")
        labels = labels[:, 0]
        if labels.min() < 0 or labels.max() >= k_clusters:
            raise FormatError(f"labels.tsv contains labels outside [0, {k_clusters})")

    return make_graph(n_nodes, edges, features, labels, k_clusters, name)


def _loadtxt(path, what: str, **kwargs) -> np.ndarray:
    """np.loadtxt(path, **kwargs); an empty file reads as an empty array, not a
    warning, and a malformed one raises FormatError, prefixed with what."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, **kwargs)
        except ValueError as exc:
            raise FormatError(f"{what}: {exc}") from exc


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all() without the N x J mask: min and max carry any
    NaN, and any infinity shows as one of them."""
    return x.size == 0 or bool(np.isfinite(x.min()) and np.isfinite(x.max()))


# file bytes the fixed-layout reader holds at once: small next to X
_BLOCK_BYTES = 1 << 17
# at most 15 digits: the mantissa M < 10^15 < 2^53 and 10^f <= 10^15 are
# exact doubles, so the one division M / 10^f is correctly rounded
_MAX_DIGITS = 15
_TOKEN = re.compile(rb"(0+)(?:\.(0+))?")  # an unsigned token with its digits read as 0


def _read_fixed_layout(path):
    """features.tsv as CSR when its lines repeat one unsigned token shape at
    one stride and at most _SPARSE_FEATURES of its entries are stored, else None.

    The first line with each digit read as '0' is the template. Its tokens
    must all have one shape D+(.D+)? of at most _MAX_DIGITS digits and
    start at evenly spaced offsets, and every line must have the template's
    length, a digit wherever the template has '0' and the template's byte
    everywhere else. The file is read once, _BLOCK_BYTES of rows at a time
    into one buffer, and each block is compared 8 bytes at a time with the
    template tiled to it. A word equal to the template's holds separators
    and '0' digits only. Only the other words (about 5% at Cora's density)
    are XORed with the template's, which turns a matching separator into 0
    and a digit into its value, and their non-zero bytes are kept. A block
    whose kept bytes prove the stored count past the cap returns None. At
    the end a kept separator byte, or a digit above 9, returns None. A
    token's integer M is then the sum of its kept digits times their
    powers of 10, and its value is M / 10^f, the correctly rounded decimal
    (Clinger's fast path), which is what np.loadtxt returns, bit for bit.
    So signed tokens, mixed token shapes, uneven offsets, exponents,
    comments, blank lines, CRLF line ends, a missing final newline, lines
    of other lengths and dense files all go to np.loadtxt.
    """
    with open(path, "rb") as f:
        first = f.readline()
        size = os.fstat(f.fileno()).st_size
        if not first.endswith(b"\n") or size % len(first):
            return None
        width = len(first)
        template = np.frombuffer(first, dtype=np.uint8).copy()
        digit = (template ^ ord("0")) <= 9
        template[digit] = ord("0")
        # the tokens are the runs of bytes other than ' ' and '\t' before the '\n'
        inside = (template[:-1] != ord(" ")) & (template[:-1] != ord("\t"))
        bounds = np.flatnonzero(np.diff(inside, prepend=False, append=False))
        starts, ends = bounds[0::2], bounds[1::2]
        if not starts.size:
            return None
        s0, n_cols, shape = starts[0], starts.size, template[starts[0]:ends[0]]
        stride = starts[1] - s0 if n_cols > 1 else width
        token, n_digits = _TOKEN.fullmatch(shape.tobytes()), np.count_nonzero(shape == ord("0"))
        if (token is None or n_digits > _MAX_DIGITS or np.any(ends - starts != shape.size)
                or np.any(starts != s0 + stride * np.arange(n_cols))
                or np.any(template[starts[:, None] + np.arange(shape.size)] != shape)):
            return None

        n_rows = size // width
        step = max(1, _BLOCK_BYTES // width)
        # a block and the template tiled to it, in whole words
        tile = np.resize(template, -(-step * width // 8) * 8)
        buf = np.empty_like(tile)
        words, tile_words = buf.view(np.uint64), tile.view(np.uint64)
        cap = _SPARSE_FEATURES * n_rows * n_cols
        offsets, values = [], []
        n_kept = 0
        f.seek(0)
        for r0 in range(0, n_rows, step):
            end = (min(n_rows, r0 + step) - r0) * width
            if f.readinto(buf[:end]) != end:
                return None
            n_words = -(-end // 8)
            buf[end:8 * n_words] = tile[end:8 * n_words]
            at = np.flatnonzero(words[:n_words] != tile_words[:n_words])
            got = (words[at] ^ tile_words[at]).view(np.uint8)
            kept = np.flatnonzero(got != 0)
            # a stored token holds at most n_digits kept bytes
            n_kept += kept.size
            if n_kept > cap * n_digits:
                return None
            offsets.append(at[kept >> 3] * 8 + (kept & 7) + r0 * width)
            values.append(got[kept])
    # each kept byte's row and offset in it: a separator must not be kept, a digit be <= 9
    col, values = np.concatenate(offsets), np.concatenate(values)
    del offsets
    row = col // width
    col -= row * width
    if np.any(values > np.where(digit, 9, 0).astype(np.uint8)[col]):
        return None
    col -= s0
    if n_digits > 1:  # a token's kept digits, summed at their powers of 10
        heads = np.flatnonzero(np.diff(row * n_cols + col // stride, prepend=-1))
        if heads.size > cap:
            return None
        power = 10 ** (np.cumsum(shape[::-1] == ord("0"))[::-1] - 1)
        values = np.add.reduceat(values * power[col % stride], heads)
        row, col = row[heads], col[heads]
    col //= stride
    return _csr((n_rows, n_cols), row, col, values / float(10 ** len(token[2] or b"")))


def write_text_atomic(path, text: str | bytes) -> None:
    """Write text, or bytes as they are, through a temporary sibling and a
    rename, so a reader sees the old file or the new one, never a partial
    write."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    if isinstance(text, bytes):
        tmp.write_bytes(text)
    else:
        tmp.write_text(text)
    tmp.replace(path)


def tsv_rows(*columns: np.ndarray) -> str:
    """One tab-separated, newline-terminated line per row of the columns,
    each value as Python prints it (a float as its repr)."""
    fmt = "\t".join(["{}"] * len(columns)) + "\n"
    return "".join(map(fmt.format, *(c.tolist() for c in columns)))


def write_tsv(path, *columns: np.ndarray) -> None:
    """Write tsv_rows of the columns, atomically."""
    write_text_atomic(path, tsv_rows(*columns))


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
    write_tsv(path / "edges.tsv", *graph.edge_array().T)
    x = graph.stored_x
    # an entry that is not stored is +0.0, whose repr is "0.0"
    zeros = ["0.0"] * x.shape[1]
    indptr, cols, values = x.indptr.tolist(), x.indices.tolist(), x.data.tolist()
    rows = []
    for lo, hi in zip(indptr, indptr[1:]):
        row = zeros.copy()
        for c, v in zip(cols[lo:hi], values[lo:hi]):
            row[c] = repr(v)
        rows.append(" ".join(row))
    write_text_atomic(path / "features.tsv", "\n".join(rows) + "\n")
    if graph.labels is None:
        (path / "labels.tsv").unlink(missing_ok=True)
    else:
        write_tsv(path / "labels.tsv", graph.labels)


def _degree_onehot(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """One column per distinct node degree; row i flags degree(i)'s bin."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel().astype(np.int64)
    bins = sorted_unique(degrees)
    n = degrees.shape[0]
    return _csr((n, bins.shape[0]), np.arange(n), np.searchsorted(bins, degrees), np.ones(n))


def normalize_adjacency(graph: AttributedGraph, mode: str) -> sp.csr_matrix:
    """The GCN propagation matrix D~^-1/2 (A+I) D~^-1/2 (the renormalization
    trick), as a CSR matrix with sorted indices.

    mode must be "propagation", the only normalization the models use;
    any other value raises RangeError.
    """
    if mode != "propagation":
        raise RangeError(f"unknown normalization mode {mode!r}")
    a = _canonical_csr(graph.adjacency + sp.eye(graph.n_nodes, format="csr"))
    # every degree of A+I is at least 1; entry (i, j) is (d_i * a_ij) * d_j
    d = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    a.data = d[np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))] * a.data * d[a.indices]
    return a


# the perturb_graph kinds; the amount of each but the noise counts edges or feature columns
PERTURBATIONS = ("add_random_edges", "drop_random_edges", "drop_feature_columns",
                 "feature_gaussian_noise")


def perturbation_key(spec) -> tuple | None:
    """A perturbation cell spec as perturb_graph's (kind, amount, seed),
    the amount as given; None for None. spec must hold a kind and an
    amount, may hold a seed (0 when absent) and nothing else, and its
    values must pass _check_perturbation; else RangeError."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise RangeError(f"perturbation must be a JSON object, got {spec!r}")
    missing = {"kind", "amount"} - set(spec)
    if missing:
        raise RangeError(f"perturbation spec missing keys: {sorted(missing)}")
    unknown = set(spec) - {"kind", "amount", "seed"}
    if unknown:
        raise RangeError(f"unknown perturbation keys {sorted(unknown)}")
    key = spec["kind"], spec["amount"], spec.get("seed", 0)
    _check_perturbation(*key)
    return key


def _check_perturbation(kind, amount, seed) -> None:
    """Raise RangeError unless kind is one of PERTURBATIONS, amount is a real
    number >= 0 and no bool, whole for the count kinds (checked first) and
    finite within float range, and seed is an integer >= 0 and no bool."""
    if kind not in PERTURBATIONS:
        raise RangeError(f"unknown perturbation kind {kind!r}; expected one of {PERTURBATIONS}")
    real = not isinstance(amount, bool) and isinstance(amount, numbers.Real)
    if real and kind != "feature_gaussian_noise" and not (
            isinstance(amount, numbers.Integral) or float(amount).is_integer()):
        raise RangeError(f"perturbation {kind} needs a whole amount, got {amount!r}")
    try:
        # math.isfinite raises OverflowError for an int beyond float range
        valid = real and amount >= 0 and math.isfinite(amount)
    except OverflowError:
        valid = False
    if not valid:
        raise RangeError("perturbation amount must be a finite number within float range "
                         f"and >= 0, got {amount!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise RangeError(f"perturbation seed must be an integer >= 0, got {seed!r}")


def perturb_graph(graph: AttributedGraph, kind: str, amount, seed: int) -> AttributedGraph:
    """Return a randomly perturbed copy of the graph.

    Parameters
    ----------
    kind : one of PERTURBATIONS
    amount : int or float
        Edge/column count m, or noise standard deviation sigma.
    seed : int
        Perturbations are deterministic given the seed.

    Raises
    ------
    RangeError
        _check_perturbation refuses the cell, or m exceeds the candidates.
    """
    _check_perturbation(kind, amount, seed)
    rng = np.random.default_rng(seed)
    if kind == "feature_gaussian_noise":
        # + 0.0 turns -0.0, which numpy's normal refuses as a negative scale, into +0.0
        noise = rng.normal(0.0, float(amount) + 0.0, size=graph.x.shape)
        x = dense_features(graph.x) if sp.issparse(graph.x) else graph.x
        return dataclasses.replace(graph, x=x + noise)
    m = int(amount)
    if kind == "drop_feature_columns":
        j = graph.x.shape[1]
        if m >= j:
            raise RangeError(f"cannot drop {m} of {j} feature columns")
        keep = np.delete(np.arange(j), rng.choice(j, size=m, replace=False))
        return dataclasses.replace(graph, x=graph.x[:, keep])
    n, keys = graph.n_nodes, upper_keys(graph.adjacency)
    if kind == "drop_random_edges":
        if m > keys.shape[0]:
            raise RangeError(f"cannot drop {m} edges: graph has {keys.shape[0]}")
        keep = np.ones(keys.shape[0], dtype=bool)
        keep[rng.choice(keys.shape[0], size=m, replace=False)] = False
        return dataclasses.replace(graph, adjacency=adjacency_from_keys(n, keys[keep]))
    candidates = n * (n - 1) // 2 - keys.shape[0]
    if m > candidates:
        raise RangeError(f"cannot add {m} edges: only {candidates} non-edges exist")
    # rejection sampling stays uniform over non-edges and never builds the
    # O(N^2) candidate list; a batch of draws is the stream of scalar draws
    # u, v, u, v, ..., and it is no longer than the edges still missing
    target = keys.shape[0] + m
    while keys.shape[0] < target:
        u, v = rng.integers(0, n, size=(target - keys.shape[0], 2)).T
        keys = sorted_unique(np.concatenate([keys, edge_keys(u, v, n)[u != v]]))
    return dataclasses.replace(graph, adjacency=adjacency_from_keys(n, keys))
