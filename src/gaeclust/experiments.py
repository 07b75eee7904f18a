"""Experiment harness: multi-seed runs, and grids of them that resume.

One run = (pretrain or reuse a shared checkpoint) + clustering phase, per
seed. A grid (run_cells) is a list of runs, its cells; ablation and
robustness grids are built by run_ablation_grid and run_robustness. Its
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
from .errors import ConfigError, StateError
from .graphio import (AttributedGraph, fractional_count, load_dataset, normalize_adjacency,
                      perturb_graph, tsv_rows, write_text_atomic)
from .linalg import finite_diff_grad
from .models import (VALID_MODELS, TrainConfig, dgae_clus_loss, encode, init_model,
                     load_checkpoint, pretrain, save_checkpoint, vgae_kl_prior)
from .operators import save_edge_list
from .pairs import (blas_core, blas_threads, kmeans_grad_z, laplacian_quadratic,
                    pair_sweep_workers, recon_grad_z, recon_loss, usable_cores)
from .training import check_xi_clusters, train_joint

RESULTS_SCHEMA = "gaeclust/results/v1"
GRID_SCHEMA = "gaeclust/grid/v2"


def _check_perturbation(spec) -> None:
    """Raise ConfigError unless spec is a perturb_graph cell: an object with
    a kind, a finite amount within float range (a whole one for the count
    kinds), an optional non-negative integer seed and no other key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"perturbation must be a JSON object, got {spec!r}")
    missing = {"kind", "amount"} - set(spec)
    if missing:
        raise ConfigError(f"perturbation spec missing keys: {sorted(missing)}")
    unknown = set(spec) - {"kind", "amount", "seed"}
    if unknown:
        raise ConfigError(f"unknown perturbation keys {sorted(unknown)}")
    amount, seed = spec["amount"], spec.get("seed", 0)
    real = not isinstance(amount, bool) and isinstance(amount, numbers.Real)
    try:
        # converted as perturb_graph converts it: an int beyond float range overflows
        finite = real and math.isfinite(float(amount))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError("perturbation amount must be a finite number within float range, "
                          f"got {amount!r}")
    if fractional_count(spec["kind"], amount):
        raise ConfigError(f"perturbation {spec['kind']} needs a whole amount, got {amount!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"perturbation seed must be an integer >= 0, got {seed!r}")


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
        if self.perturbation is not None:
            _check_perturbation(self.perturbation)

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
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """Load a flat JSON config; non-None override values win."""
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        merged = dict(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
                merged[key] = value
        if "dataset" not in merged:
            raise ConfigError("config needs a dataset path")
        return cls(**merged)


@dataclass
class RunResult:
    """The results.json payload plus where it was written."""

    data: dict
    path: str


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


def _perturbed(graph: AttributedGraph, spec: dict | None) -> AttributedGraph:
    """graph under the perturbation cell spec; graph itself when spec is None."""
    if spec is None:
        return graph
    return perturb_graph(graph, spec["kind"], spec["amount"], spec.get("seed", 0))


def _prepare_graph(config: ExperimentConfig, graph: AttributedGraph | None):
    """The run's graph (loaded and perturbed unless given), its graph_hash,
    and that hash again if it was perturbed."""
    if graph is None:
        graph = _perturbed(load_dataset(config.dataset), config.perturbation)
    g_hash = graph_hash(graph)
    return graph, g_hash, g_hash if config.perturbation is not None else None


def _checkpoint(config: ExperimentConfig, seed: int, g_hash: str) -> tuple:
    """(path, provenance) of the pretraining checkpoint a run of config
    needs for seed on the graph of digest g_hash: a file in pretrain_ckpt,
    else in out, named by encoder, so gae and dgae runs of a seed share
    one, and on a perturbed graph by g_hash's first 8 hex digits too; and
    what it must record: the graph and the pretraining config."""
    tag = f"_p{g_hash[:8]}" if config.perturbation is not None else ""
    name = f"pretrain_{config.encoder}{tag}_seed{seed}.json"
    return Path(config.pretrain_ckpt or config.out) / name, {
        "graph_sha256": g_hash, "pretrain_epochs": config.pretrain_epochs, "lr": config.lr}


def _pretrained_model(config: ExperimentConfig, graph: AttributedGraph, seed: int, g_hash: str):
    """Load the shared pretraining checkpoint (_checkpoint) or create it.

    The model comes back with the run's arch. Reusing a checkpoint made
    from another graph or pretraining config raises StateError instead of
    silently starting from stale weights. One made under another kernel
    set (_kernels) only warns: its weights stay valid, but the run's output
    bytes may differ from a run under the set that made them.
    """
    path, provenance = _checkpoint(config, seed, g_hash)
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
    graph, g_hash, p_hash = _prepare_graph(config, None)
    entries = []
    for seed in config.seeds:
        t0 = time.perf_counter()
        _, path = _pretrained_model(config, graph, seed, g_hash)
        entries.append({"seed": seed, "checkpoint": str(path),
                        "sha256": sha256_file(path),
                        "wall_time_s": time.perf_counter() - t0})
    manifest = {"schema": RESULTS_SCHEMA, "mode": "pretrain",
                "config": config.to_dict(),
                "perturbation_sha256": p_hash, "checkpoints": entries}
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


def run(config: ExperimentConfig, graph: AttributedGraph | None = None) -> RunResult:
    """Pretrain (or reuse checkpoints) and run the clustering phase per seed.

    graph, when given, is the dataset with config.perturbation applied.
    """
    graph, g_hash, p_hash = _prepare_graph(config, graph)
    check_xi_clusters(config, graph.k_clusters)  # before pretraining writes a checkpoint
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    per_seed = []
    for seed in config.seeds:
        model, pre_path = _pretrained_model(config, graph, seed, g_hash)
        model, trace, info = train_joint(model, graph, config, seed=seed)
        tag = config.run_tag(seed)
        trace_csv = out / f"trace_{tag}.csv"
        trace.to_csv(trace_csv)
        trace.to_json(out / f"trace_{tag}.json")
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
            "wall_time_s": info["wall_time_s"],
            "stop_reason": info["stop_reason"],
            "epochs_run": info["epochs_run"],
            "omega_final": int(info["omega"].size),
            "omega_sizes": info["omega_sizes"],
            "empty_omega_epochs": info["empty_omega_epochs"],
            "pretrain_checkpoint": str(pre_path),
            "pretrain_sha256": sha256_file(pre_path),
            "perturbation_sha256": p_hash,
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
    as (kind, amount, seed), an absent seed 0, so amounts 5 and 5.0 agree."""
    key, p = cell.to_dict(), cell.perturbation
    del key["out"]
    key["perturbation"] = None if p is None else (p["kind"], p["amount"], p.get("seed", 0))
    return key


def _finished(cell: ExperimentConfig, g_hash: str, kernels: dict) -> dict | None:
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
                   [sha256_file(_checkpoint(cell, seed, g_hash)[0]) for seed in cell.seeds])]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StateError(f"cannot read back {path}: {exc!r}; delete {cell.out} to run the "
                         "cell again") from exc
    for what, old, new in checks:
        if old != new:
            raise StateError(f"{path} records the {what} {old!r}, the grid's cell has {new!r}; "
                             f"delete {cell.out} to run the cell again")
    return data


def _pair(cells: list, data: list, plain: int, rethink: int) -> dict:
    """The record of two cells that differ only in rethink: per seed, their
    accs and the delta rethink minus plain, with win, loss and tie counts.
    Raises StateError unless both saw the same pretraining and graph."""
    per_seed = []
    for d, r in zip(data[plain]["per_seed"], data[rethink]["per_seed"]):
        for key in ("pretrain_sha256", "perturbation_sha256"):
            if d[key] != r[key]:
                raise StateError(f"cells {cells[plain].out} and {cells[rethink].out} differ in "
                                 f"{key} at seed {d['seed']}")
        delta = None if d["acc"] is None else r["acc"] - d["acc"]
        per_seed.append({"seed": d["seed"], "plain_acc": d["acc"], "rethink_acc": r["acc"],
                         "acc_delta": delta})
    deltas = [e["acc_delta"] for e in per_seed if e["acc_delta"] is not None]
    return {"plain": plain, "rethink": rethink, "per_seed": per_seed,
            "wins": sum(x > 0 for x in deltas), "losses": sum(x < 0 for x in deltas),
            "ties": sum(x == 0 for x in deltas)}


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
    run(cell, graph). The record lists every cell, and a pair (_pair) for
    each two cells that differ only in rethink, in grid order.
    """
    if not cells:
        raise ConfigError("a grid needs at least one cell")
    out = Path(out)
    cells = [dataclasses.replace(c, pretrain_ckpt=c.pretrain_ckpt or str(out / "pretrain"))
             for c in cells]
    keys = [_cell_key(c) for c in cells]
    for i, cell in enumerate(cells):
        if keys[i] in keys[:i] or Path(cell.out) in [Path(c.out) for c in cells[:i]]:
            raise ConfigError(f"grid repeats a cell: {cell.to_dict()}")
    clean = {name: load_dataset(name) for name in dict.fromkeys(c.dataset for c in cells)}
    graphs, needs = {}, {}
    for cell, key in zip(cells, keys):
        spec = key["dataset"], key["perturbation"]
        if spec not in graphs:
            graph = _perturbed(clean[cell.dataset], cell.perturbation)
            graphs[spec] = graph, graph_hash(graph)
        check_xi_clusters(cell, graphs[spec][0].k_clusters)
        for seed in cell.seeds:
            path, provenance = _checkpoint(cell, seed, graphs[spec][1])
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
    data = [_finished(c, g_hash, kernels) for c, (_, g_hash) in zip(cells, inputs)]
    for i, (cell, (graph, _)) in enumerate(zip(cells, inputs)):
        if data[i] is None:
            data[i] = run(cell, graph).data
    pairs = [_pair(cells, data, *sorted((i, j), key=lambda c: cells[c].rethink))
             for i, j in itertools.combinations(range(len(cells)), 2)
             if cells[i].rethink != cells[j].rethink
             and {**keys[i], "rethink": None} == {**keys[j], "rethink": None}]
    record = {"schema": GRID_SCHEMA,
              "cells": [{"results": str(Path(c.out) / "results.json"),
                         **{key: d[key] for key in ("config", "dataset", "per_seed",
                                                    "best", "mean", "std")}}
                        for c, d in zip(cells, data)],
              "pairs": pairs}
    out.mkdir(parents=True, exist_ok=True)
    write_json_atomic(out / "results_grid.json", record)
    return record


def run_ablation_grid(base: ExperimentConfig, axes: list) -> dict:
    """run_cells on one rethink cell per ablation name, each in out/ablate_<name>."""
    out = Path(base.out)
    return run_cells([dataclasses.replace(base, rethink=True, ablation=name,
                                          out=str(out / f"ablate_{name.replace(':', '-')}"))
                      for name in axes], out)


def run_robustness(base: ExperimentConfig, grid: list) -> dict:
    """run_cells on a plain and a rethink cell per perturbation of the grid
    (null or {} is the clean graph), in out/robust_<tag>/d and rd."""
    out, cells = Path(base.out), []
    for spec in grid:
        spec = None if spec == {} else spec  # any other entry is checked as a perturbation
        plain = dataclasses.replace(base, rethink=False, ablation="none", perturbation=spec)
        p = plain.perturbation
        sub = out / ("robust_clean" if p is None else
                     f"robust_{p['kind']}_{p['amount']}_s{p.get('seed', 0)}")
        cells += [dataclasses.replace(plain, out=str(sub / "d")),
                  dataclasses.replace(plain, rethink=True, out=str(sub / "rd"))]
    return run_cells(cells, out)


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
