"""Experiment harness: multi-seed runs, and grids of them that resume.

One run = (pretrain or reuse a shared checkpoint) + clustering phase, per
seed. A grid (run_cells) is a list of runs, its cells; grid_cells builds
them from a spec, the cross product of axes over a base config. Its
plain/rethink pairs share pretraining weights through the checkpoint
files and the perturbed graph, which is what makes the paired
comparisons meaningful. Everything lands in the output directory as
results.json, per-seed trace CSVs, evolved edge lists, and checkpoints;
files are written atomically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import platform
import resource
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

from . import __version__
from .clustering import build_cluster_graph, student_t_assign
from .diagnostics import decomposition_residuals
from .errors import ConfigError, RangeError, StateError
from .graphio import (AttributedGraph, load_dataset, normalize_adjacency, perturb_graph,
                      perturbation_key, tsv_rows, write_text_atomic)
from .linalg import finite_diff_grad
from .models import (VALID_MODELS, TrainConfig, dgae_clus_loss, encode, init_model,
                     load_checkpoint, pretrain, save_checkpoint, vgae_kl_prior)
from .operators import save_edge_list
from .pairs import (blas_core, blas_threads, kmeans_grad_z, laplacian_quadratic,
                    pair_sweep_workers, recon_grad_z, recon_loss, usable_cores)
from .training import check_xi_clusters, train_joint

RESULTS_SCHEMA = "gaeclust/results/v2"
GRID_SCHEMA = "gaeclust/grid/v3"


@dataclass(kw_only=True)
class ExperimentConfig(TrainConfig):
    """Flat run description: the TrainConfig fields plus where and what to
    run. JSON-serializable; CLI flags override file keys."""

    dataset: str = dataclasses.field(
        metadata={"help": "dataset directory (edges.tsv + meta.json)"})
    model: str = "dgae"
    out: str = dataclasses.field(default="runs", metadata={"help": "output directory"})
    pretrain_ckpt: str | None = dataclasses.field(
        default=None, metadata={"help": "directory holding shared pretraining checkpoints"})
    seeds: tuple = (0, 1, 2)
    perturbation: dict | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.model not in VALID_MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {VALID_MODELS}")
        if not isinstance(self.seeds, (list, tuple)) or not all(
                isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in self.seeds):
            raise ConfigError(f"seeds must be a list of integers, got {self.seeds!r}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds!r}")
        if isinstance(self.perturbation, dict):
            self.perturbation = {k: v.item() if isinstance(v, np.generic) else v
                                 for k, v in self.perturbation.items()}
        try:
            perturbation_key(self.perturbation)
        except RangeError as exc:
            raise ConfigError(str(exc)) from exc

    def run_tag(self, seed: int) -> str:
        parts = [self.model]
        if self.rethink:
            parts.append("r")
        if self.ablation != "none":
            parts.append(self.ablation.replace(":", "-"))
        parts.append(f"seed{seed}")
        return "_".join(parts)

    @property
    def encoder(self) -> str:
        """The architecture pretraining trains: dgae is the gae encoder plus
        cluster centers, which train_joint adds."""
        return "vgae" if self.model == "vgae" else "gae"

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, raw, where, overrides: dict | None = None) -> "ExperimentConfig":
        """The config of the flat JSON object raw; every override wins, None included."""
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: config must be a JSON object")
        merged = {**raw, **(overrides or {})}
        unknown = set(merged) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"{where}: unknown config keys {sorted(unknown)}")
        if "dataset" not in merged:
            raise ConfigError(f"{where}: config needs a dataset path")
        try:
            return cls(**merged)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """Load a flat JSON config (from_dict)."""
        return cls.from_dict(read_json(path, "config"), path, overrides)


@dataclass
class RunResult:
    """The results.json payload plus where it was written."""

    data: dict
    path: str


def read_json(path, what: str):
    """The JSON value in the file at path; ConfigError, naming what, if none."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def write_json_atomic(path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def graph_hash(graph: AttributedGraph) -> str:
    """Content hash (digest v2) over nodes, edges, features, and labels.

    sha256 over, in order: N, the edge_array, X's shape, indptr, indices
    and data of X's canonical CSR of stored entries (graph.stored_x), the
    labels (b"no-labels" when there are none) and K. Integer arrays enter
    as int64 and X's data as little-endian float64, so a dense X hashes
    like its CSR and the index dtypes do not matter. Arrays already in
    those dtypes go in through the buffer protocol, without a copy; X
    is never densified.
    """
    x = graph.stored_x
    h = hashlib.sha256()
    h.update(np.int64(graph.n_nodes).tobytes())
    for part in (graph.edge_array(), x.shape, x.indptr, x.indices):
        h.update(np.ascontiguousarray(part, dtype=np.int64))
    h.update(np.ascontiguousarray(x.data, dtype="<f8"))
    if graph.labels is None:
        h.update(b"no-labels")
    else:
        h.update(np.ascontiguousarray(graph.labels, dtype=np.int64))
    h.update(np.int64(graph.k_clusters).tobytes())
    return h.hexdigest()


def _prepare_graph(config: ExperimentConfig, clean: AttributedGraph | None = None) -> tuple:
    """The run's graph, the clean dataset (loaded unless given) under
    config.perturbation, with its graph_hash and the clean dataset's."""
    clean = load_dataset(config.dataset) if clean is None else clean
    key, clean_hash = perturbation_key(config.perturbation), graph_hash(clean)
    graph = clean if key is None else perturb_graph(clean, *key)
    return graph, clean_hash if graph is clean else graph_hash(graph), clean_hash


def _checkpoint(config: ExperimentConfig, seed: int, g_hash: str, clean_hash: str) -> tuple:
    """(path, provenance) of the pretraining checkpoint a run of config
    needs for seed on the graph of digest g_hash: a file in pretrain_ckpt,
    else in out, named by encoder, so gae and dgae runs of a seed share
    one, and by g_hash's first 8 hex digits too unless g_hash is the clean
    dataset's clean_hash; and what it must record: the graph and the
    pretraining config."""
    tag = f"_p{g_hash[:8]}" if g_hash != clean_hash else ""
    name = f"pretrain_{config.encoder}{tag}_seed{seed}.json"
    return Path(config.pretrain_ckpt or config.out) / name, {
        "graph_sha256": g_hash, "pretrain_epochs": config.pretrain_epochs, "lr": config.lr}


def _pretrained_model(config: ExperimentConfig, graph: AttributedGraph, seed: int, g_hash: str,
                      clean_hash: str):
    """Load the shared pretraining checkpoint (_checkpoint) or create it.

    The model comes back with the run's arch. Reusing a checkpoint made
    from another graph or pretraining config raises StateError instead of
    silently starting from stale weights. One made under another kernel
    set (_kernels) only warns: its weights stay valid, but the run's output
    bytes may differ from a run under the set that made them.
    """
    path, provenance = _checkpoint(config, seed, g_hash, clean_hash)
    kernels = _kernels()
    if path.exists():
        model = load_checkpoint(path)
        if model.arch != config.encoder:
            raise StateError(f"{path} holds a {model.arch} model, expected {config.encoder}")
        if model.in_dim != graph.x.shape[1]:
            raise StateError(f"{path} expects {model.in_dim} input features, "
                             f"dataset has {graph.x.shape[1]}")
        if model.provenance != provenance:
            raise StateError(f"{path} was pretrained with {model.provenance}, this run "
                             f"needs {provenance}; delete it or use another checkpoint "
                             "directory")
        if model.kernels != kernels:
            warnings.warn(f"{path} was pretrained under kernels {model.kernels}, this run "
                          f"uses {kernels}; its output bytes may differ from a run under "
                          "the checkpoint's kernels", UserWarning, stacklevel=3)
    else:
        model = init_model(config.encoder, graph.x.shape[1], seed)
        pretrain(model, graph, config)
        model.provenance, model.kernels = provenance, kernels
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, path)
    # the clustering phase, and so the model it saves, runs under this set
    model.arch, model.kernels = config.model, kernels
    return model, path


def pretrain_only(config: ExperimentConfig) -> dict:
    """Create (or reuse) the pretraining checkpoints for every seed."""
    graph, g_hash, clean_hash = _prepare_graph(config)
    entries = []
    for seed in config.seeds:
        t0 = time.perf_counter()
        _, path = _pretrained_model(config, graph, seed, g_hash, clean_hash)
        entries.append({"seed": seed, "checkpoint": str(path),
                        "sha256": sha256_file(path),
                        "wall_time_s": time.perf_counter() - t0})
    manifest = {"schema": RESULTS_SCHEMA, "mode": "pretrain",
                "config": config.to_dict(), "graph_sha256": g_hash, "checkpoints": entries}
    # beside the checkpoints, which share one directory
    write_json_atomic(path.parent / f"pretrain_manifest_{config.model}.json", manifest)
    return manifest


def _aggregate(per_seed: list) -> tuple:
    scored = [e for e in per_seed if e["acc"] is not None]
    if not scored:
        return None, None, None
    best = max(scored, key=lambda e: (e["acc"], e["nmi"], e["ari"]))
    best = {"seed": best["seed"], "acc": best["acc"], "nmi": best["nmi"], "ari": best["ari"]}
    mean = {m: float(np.mean([e[m] for e in scored])) for m in ("acc", "nmi", "ari")}
    std = {m: float(np.std([e[m] for e in scored])) for m in ("acc", "nmi", "ari")}
    return best, mean, std


def _kernels() -> dict:
    """The two kernel dispatches output bytes depend on: OpenBLAS's core
    type and the SIMD extensions numpy found on the CPU."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {"blas_core": blas_core(), "numpy_simd": list(simd.get("found", []))}


def _environment() -> dict:
    """Package and dependency versions, BLAS, threads and peak RSS so far of
    this process, and its kernel set (_kernels)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "gaeclust": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        **_kernels(),
        "blas_threads": blas_threads(),
        "nproc": usable_cores(),
        "pair_sweep_workers": pair_sweep_workers(),
        # ru_maxrss is in KB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(config: ExperimentConfig) -> RunResult:
    """Pretrain (or reuse checkpoints) and run the clustering phase per seed."""
    return _run(config, *_prepare_graph(config))


def _run(config: ExperimentConfig, graph: AttributedGraph, g_hash: str, clean_hash: str):
    """run on a graph and digests that _prepare_graph gave for config."""
    check_xi_clusters(config, graph.k_clusters)  # before pretraining writes a checkpoint
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    per_seed = []
    for seed in config.seeds:
        model, pre_path = _pretrained_model(config, graph, seed, g_hash, clean_hash)
        model, trace, info = train_joint(model, graph, config, seed=seed)
        tag = config.run_tag(seed)
        trace_csv = out / f"trace_{tag}.csv"
        trace.to_csv(trace_csv)
        edges_tsv = out / f"edges_{tag}.tsv"
        save_edge_list(info["self_supervision"], edges_tsv)
        final_ckpt = out / f"model_{tag}.json"
        save_checkpoint(model, final_ckpt)
        metrics = info["metrics"] or {}
        per_seed.append({
            "seed": seed,
            "acc": metrics.get("acc"),
            "nmi": metrics.get("nmi"),
            "ari": metrics.get("ari"),
            "best_epoch_acc": max((a for a in trace.column("acc_all") if a is not None),
                                  default=None),
            "wall_time_s": info["wall_time_s"],
            "stop_reason": info["stop_reason"],
            "epochs_run": info["epochs_run"],
            "omega_final": int(info["omega"].size),
            "omega_sizes": info["omega_sizes"],
            "empty_omega_epochs": info["empty_omega_epochs"],
            "pretrain_checkpoint": str(pre_path),
            "pretrain_sha256": sha256_file(pre_path),
            "trace_csv": str(trace_csv),
            "edge_list": str(edges_tsv),
            "checkpoint": str(final_ckpt),
        })

    best, mean, std = _aggregate(per_seed)
    payload = {
        "schema": RESULTS_SCHEMA,
        "mode": "cluster",
        "config": config.to_dict(),
        "dataset": {"name": graph.name, "n_nodes": graph.n_nodes,
                    "n_edges": graph.n_edges, "k_clusters": graph.k_clusters,
                    "has_labels": graph.labels is not None, "graph_sha256": g_hash},
        "per_seed": per_seed,
        "best": best,
        "mean": mean,
        "std": std,
        "environment": _environment(),
    }
    results_path = out / "results.json"
    write_json_atomic(results_path, payload)
    return RunResult(payload, str(results_path))


def _cell_key(cell: ExperimentConfig) -> dict:
    """What a cell runs: its config apart from out, with its perturbation
    as perturbation_key reads it, so amounts 5 and 5.0 agree."""
    key = cell.to_dict()
    del key["out"]
    key["perturbation"] = perturbation_key(cell.perturbation)
    return key


def _finished(cell: ExperimentConfig, kernels: dict, g_hash: str,
              clean_hash: str) -> dict | None:
    """The results.json of a cell that ran to its end, or None when it has
    none. It must record the cell's config, graph digest and kernel set,
    and per seed the sha256 of the pretraining checkpoint the cell would
    use now; anything else, a missing checkpoint included, raises StateError."""
    path = Path(cell.out) / "results.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        checks = [("config", data["config"], json.loads(json.dumps(cell.to_dict()))),
                  ("graph digest", data["dataset"]["graph_sha256"], g_hash),
                  ("kernel set", {key: data["environment"][key] for key in kernels}, kernels),
                  ("pretraining checkpoints", [e["pretrain_sha256"] for e in data["per_seed"]],
                   [sha256_file(_checkpoint(cell, seed, g_hash, clean_hash)[0])
                    for seed in cell.seeds])]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StateError(f"cannot read back {path}: {exc!r}; delete {cell.out} to run the "
                         "cell again") from exc
    for what, old, new in checks:
        if old != new:
            raise StateError(f"{path} records the {what} {old!r}, the grid's cell has {new!r}; "
                             f"delete {cell.out} to run the cell again")
    return data


def _sign_test_p(wins: int, losses: int) -> float | None:
    """The exact two-sided sign-test p of wins against losses, ties left
    out; None when there are neither."""
    n = wins + losses
    if n == 0:
        return None
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n)


def _pair(cells: list, data: list, plain: int, rethink: int) -> dict:
    """The record of two cells that differ only in rethink: per seed, both
    sides' acc, stop_reason and epochs_run, the delta rethink minus plain,
    and whether the seed is tested: both sides ran at least 2 epochs. The
    tested deltas give the win, loss and tie counts, their sign-test p
    (_sign_test_p) and their median; the other seeds count as untested.
    Raises StateError unless both sides used one pretraining checkpoint,
    whose provenance records the graph digest."""
    per_seed = []
    for d, r in zip(data[plain]["per_seed"], data[rethink]["per_seed"]):
        if d["pretrain_sha256"] != r["pretrain_sha256"]:
            raise StateError(f"cells {cells[plain].out} and {cells[rethink].out} differ in "
                             f"pretrain_sha256 at seed {d['seed']}")
        per_seed.append({"seed": d["seed"], "plain_acc": d["acc"], "rethink_acc": r["acc"],
                         "acc_delta": None if d["acc"] is None else r["acc"] - d["acc"],
                         "plain_stop_reason": d["stop_reason"],
                         "plain_epochs_run": d["epochs_run"],
                         "rethink_stop_reason": r["stop_reason"],
                         "rethink_epochs_run": r["epochs_run"],
                         "tested": min(d["epochs_run"], r["epochs_run"]) >= 2})
    deltas = [e["acc_delta"] for e in per_seed if e["tested"] and e["acc_delta"] is not None]
    wins, losses = sum(x > 0 for x in deltas), sum(x < 0 for x in deltas)
    return {"plain": plain, "rethink": rethink, "per_seed": per_seed,
            "wins": wins, "losses": losses, "ties": len(deltas) - wins - losses,
            "untested": sum(not e["tested"] for e in per_seed),
            "sign_test_p": _sign_test_p(wins, losses),
            "median_acc_delta": float(np.median(deltas)) if deltas else None}


def run_cells(cells: list, out) -> dict:
    """Run a grid of cells and write its record, results_grid.json, to out.

    A cell is an ExperimentConfig with an out directory of its own; one
    without a pretrain_ckpt shares out/pretrain with the others. The grid
    is checked whole before any cell runs: it must be non-empty and repeat
    no cell (_cell_key) or out directory, every perturbed graph is built,
    cells that need one pretraining checkpoint (_checkpoint) must need it
    with one provenance (else ConfigError), a checkpoint already there must
    record it (else StateError), and a cell with a results.json is read
    back (_finished) instead of run again. Every other cell runs through
    _run on its graph. The record lists every cell, and a pair (_pair) for
    each two cells that differ only in rethink, in grid order.
    """
    if not cells:
        raise ConfigError("a grid needs at least one cell")
    out = Path(out)
    cells = [dataclasses.replace(c, pretrain_ckpt=c.pretrain_ckpt or str(out / "pretrain"))
             for c in cells]
    keys, dirs = [_cell_key(c) for c in cells], [Path(c.out).resolve() for c in cells]
    for i, cell in enumerate(cells):
        if keys[i] in keys[:i] or dirs[i] in dirs[:i]:
            raise ConfigError(f"grid repeats a cell: {cell.to_dict()}")
    clean = {name: load_dataset(name) for name in dict.fromkeys(c.dataset for c in cells)}
    graphs, needs = {}, {}
    for cell, key in zip(cells, keys):
        spec = key["dataset"], key["perturbation"]
        if spec not in graphs:
            graphs[spec] = _prepare_graph(cell, clean[cell.dataset])
        check_xi_clusters(cell, graphs[spec][0].k_clusters)
        for seed in cell.seeds:
            path, provenance = _checkpoint(cell, seed, *graphs[spec][1:])
            if needs.setdefault(path, provenance) != provenance:
                raise ConfigError(f"cells need {path} pretrained with {needs[path]} and with "
                                  f"{provenance}; give them pretrain_ckpt directories of their own")
    for path, provenance in needs.items():
        recorded = load_checkpoint(path).provenance if path.exists() else provenance
        if recorded != provenance:
            raise StateError(f"{path} was pretrained with {recorded}, the grid needs "
                             f"{provenance}; delete it or use another checkpoint directory")
    inputs = [graphs[key["dataset"], key["perturbation"]] for key in keys]
    kernels = _kernels()
    data = [_finished(c, kernels, *hashes) for c, (_, *hashes) in zip(cells, inputs)]
    for i, (cell, prepared) in enumerate(zip(cells, inputs)):
        if data[i] is None:
            data[i] = _run(cell, *prepared).data
    record = {"schema": GRID_SCHEMA,
              "cells": [{"results": str(Path(c.out) / "results.json"),
                         **{key: d[key] for key in ("config", "dataset", "per_seed",
                                                    "best", "mean", "std")}}
                        for c, d in zip(cells, data)],
              "pairs": [_pair(cells, data, *pair) for pair in pair_indices(cells)]}
    out.mkdir(parents=True, exist_ok=True)
    write_json_atomic(out / "results_grid.json", record)
    return record


def pair_indices(cells: list) -> list:
    """(plain, rethink) of each two cells differing only in rethink (_cell_key)."""
    keys = [{**_cell_key(c), "rethink": None} for c in cells]
    return [tuple(sorted((i, j), key=lambda c: cells[c].rethink))
            for i, j in itertools.combinations(range(len(cells)), 2)
            if cells[i].rethink != cells[j].rethink and keys[i] == keys[j]]


def _axis_text(field: str, value) -> str:
    """A cell's directory text for its axis value: clean or <kind>_<amount>_s<seed>,
    seeds joined by ',', else the JSON scalar text (a string bare) with ':' as '-'."""
    if field == "perturbation":
        key = perturbation_key(value)
        return "clean" if key is None else "{}_{}_s{}".format(*key)
    if field == "seeds":
        return ",".join(map(str, value))
    return (value if isinstance(value, str) else json.dumps(value)).replace(":", "-")


def grid_cells(spec, where: str = "grid spec") -> tuple:
    """(cells, out) of a spec {"base": {config}, "axes": {field: [values], ...}}: the
    axes' cross product in spec order, the last axis fastest, each cell the base
    (from_dict) with its values, in <out>/<field>-<_axis_text>/..., out the base's."""
    if not (isinstance(spec, dict) and set(spec) == {"base", "axes"}
            and all(isinstance(part, dict) for part in spec.values())):
        raise ConfigError(f'{where}: a grid spec is an object {{"base": {{...}}, "axes": {{...}}}}')
    base, axes = spec["base"], spec["axes"]
    for field, values in axes.items():
        if field == "out" or not isinstance(values, list):
            raise ConfigError(f"{where}: an axis is a field other than out with a JSON list "
                              f"of values, got {field!r}: {values!r}")
    cells = []
    for values in itertools.product(*axes.values()):
        named = dict(zip(axes, values))
        cell = ExperimentConfig.from_dict(base, f"{where}, cell {json.dumps(named)}", named)
        cells.append(dataclasses.replace(cell, out=str(Path(cell.out, *(
            f"{field}-{_axis_text(field, getattr(cell, field))}" for field in axes)))))
    return cells, base.get("out", ExperimentConfig.out)


def export_embeddings(checkpoint, dataset, out) -> str:
    """Write the eval-mode embedding as TSV: node, 16 dims, label if known."""
    model = load_checkpoint(checkpoint)
    graph = load_dataset(dataset)
    if model.in_dim != graph.x.shape[1]:
        raise StateError(f"checkpoint expects {model.in_dim} input features, "
                         f"dataset has {graph.x.shape[1]}")
    a_prop = normalize_adjacency(graph, "propagation")
    # the operand the run encoded, so the file holds the run's own Z bit for bit
    z, _ = encode(model, a_prop, graph.x, training=False)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ["node"] + [f"z{j}" for j in range(z.shape[1])]
    columns = [np.arange(z.shape[0]), *z.T]
    if graph.labels is not None:
        header.append("label")
        columns.append(graph.labels)
    write_text_atomic(out, "\t".join(header) + "\n" + tsv_rows(*columns))
    return str(out)


def _random_instance(rng: np.random.Generator):
    n = int(rng.integers(4, 31))
    d = int(rng.integers(2, 9))
    k = int(rng.integers(2, min(6, n + 1)))
    z = rng.standard_normal((n, d))
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    a = (upper | upper.T).astype(np.float64)
    return z, sp.csr_matrix(a), rng.integers(0, k, size=n), k


def verify_theory(n_instances: int = 100, seed: int = 0) -> dict:
    """Randomized check of the loss identities and closed-form gradients.

    Returns the worst relative residual of each identity over
    n_instances random (Z, A, labels, gamma) draws, plus max relative
    errors of the analytic gradients against central finite differences
    on a small fixed instance. Raises ConfigError for fewer than one
    instance or a negative seed.
    """
    if n_instances < 1:
        raise ConfigError(f"verify-theory needs at least one instance, got {n_instances}")
    if seed < 0:
        raise ConfigError(f"verify-theory seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst = {"prop1_rel": 0.0, "prop2_rel": 0.0, "thm1_rel": 0.0}
    for _ in range(n_instances):
        z, a, labels, k = _random_instance(rng)
        gamma = float(10.0 ** rng.uniform(-3, 0))
        res = decomposition_residuals(z, a, labels, gamma, k)
        for key in worst:
            worst[key] = max(worst[key], res[key])

    z, a, labels, k = _random_instance(np.random.default_rng(seed + 1))
    z = z[:8]
    a = a[:8, :8].tocsr()
    labels = labels[:8]
    d = z.shape[1]
    centers = np.random.default_rng(seed + 2).standard_normal((k, d))
    a_clus = build_cluster_graph(labels, k)

    def fd_error(analytic, f, x):
        """Max relative error of analytic against central differences of f at x."""
        numeric = finite_diff_grad(f, x)
        scale = 1.0 + float(np.max(np.abs(numeric)))
        return float(np.max(np.abs(analytic - numeric)) / scale)

    checks = {}
    for weighting in ("plain", "pos_weighted"):
        checks[f"recon_{weighting}"] = fd_error(
            recon_grad_z(z, a, weighting=weighting),
            lambda v: recon_loss(v, a, weighting=weighting), z)
    checks["kmeans_embed"] = fd_error(kmeans_grad_z(z, a_clus),
                                      lambda v: laplacian_quadratic(v, a_clus), z)

    q_labels = student_t_assign(z, centers).labels()
    _, gz, gc = dgae_clus_loss(student_t_assign(z, centers), q_labels)
    checks["kl_z"] = fd_error(
        gz, lambda v: dgae_clus_loss(student_t_assign(v, centers), q_labels)[0], z)
    checks["kl_centers"] = fd_error(
        gc, lambda v: dgae_clus_loss(student_t_assign(z, v), q_labels)[0], centers)

    mu = z[:, : min(d, 4)].copy()
    logstd = 0.1 * np.random.default_rng(seed + 3).standard_normal(mu.shape)
    _, g_mu, g_ls = vgae_kl_prior(mu, logstd)
    checks["vgae_kl_mu"] = fd_error(g_mu, lambda v: vgae_kl_prior(v, logstd)[0], mu)
    checks["vgae_kl_logstd"] = fd_error(g_ls, lambda v: vgae_kl_prior(mu, v)[0], logstd)

    return {"instances": int(n_instances), "residuals": worst, "grad_checks": checks}
