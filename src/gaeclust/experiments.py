"""Experiment harness: multi-seed runs, ablation grids, robustness pairs.

One run = (pretrain or reuse a shared checkpoint) + clustering phase, per
seed. Baseline/rethink pairs share pretraining weights through the
checkpoint files, and robustness cells share the perturbed graph, which
is what makes the paired comparisons meaningful. Everything lands in the
output directory as results.json, per-seed trace CSVs, evolved edge
lists, and checkpoints; files are written atomically.
"""

from __future__ import annotations

import dataclasses
import hashlib
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
GRID_SCHEMA = "gaeclust/ablation-grid/v1"
ROBUSTNESS_SCHEMA = "gaeclust/robustness/v1"


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

    dataset: str
    model: str = "dgae"
    out: str = "runs"
    pretrain_ckpt: str | None = None
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

    def pretrain_name(self, seed: int, perturbation_hash: str | None) -> str:
        tag = f"_p{perturbation_hash[:8]}" if perturbation_hash else ""
        return f"pretrain_{self.encoder}{tag}_seed{seed}.json"

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

    @property
    def per_seed(self) -> list:
        return self.data["per_seed"]

    @property
    def best(self) -> dict | None:
        return self.data["best"]

    @property
    def mean(self) -> dict | None:
        return self.data["mean"]

    @property
    def std(self) -> dict | None:
        return self.data["std"]


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


def _pretrained_model(config: ExperimentConfig, graph: AttributedGraph,
                      seed: int, ckpt_dir: Path, g_hash: str, p_hash: str | None):
    """Load the shared pretraining checkpoint or create it.

    Checkpoints are keyed and checked by encoder, so gae and dgae runs of
    a seed share one; the model comes back with the run's arch. A
    checkpoint records the graph it was pretrained on and the pretraining
    config; reusing one made from anything else raises StateError instead
    of silently starting from stale weights. One made under another kernel
    set (_kernels) only warns: its weights stay valid, but the run's output
    bytes may differ from a run under the set that made them.
    """
    path = ckpt_dir / config.pretrain_name(seed, p_hash)
    provenance = {"graph_sha256": g_hash, "pretrain_epochs": config.pretrain_epochs,
                  "lr": config.lr}
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
        save_checkpoint(model, path)
    # the clustering phase, and so the model it saves, runs under this set
    model.arch, model.kernels = config.model, kernels
    return model, path


def pretrain_only(config: ExperimentConfig) -> dict:
    """Create (or reuse) the pretraining checkpoints for every seed."""
    graph, g_hash, p_hash = _prepare_graph(config, None)
    ckpt_dir = Path(config.pretrain_ckpt) if config.pretrain_ckpt else Path(config.out)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for seed in config.seeds:
        t0 = time.perf_counter()
        _, path = _pretrained_model(config, graph, seed, ckpt_dir, g_hash, p_hash)
        entries.append({"seed": seed, "checkpoint": str(path),
                        "sha256": sha256_file(path),
                        "wall_time_s": time.perf_counter() - t0})
    manifest = {"schema": RESULTS_SCHEMA, "mode": "pretrain",
                "config": config.to_dict(),
                "perturbation_sha256": p_hash, "checkpoints": entries}
    write_json_atomic(ckpt_dir / f"pretrain_manifest_{config.model}.json", manifest)
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
    ckpt_dir = Path(config.pretrain_ckpt) if config.pretrain_ckpt else out
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    per_seed = []
    for seed in config.seeds:
        model, pre_path = _pretrained_model(config, graph, seed, ckpt_dir, g_hash, p_hash)
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
                    "has_labels": graph.labels is not None},
        "per_seed": per_seed,
        "best": best,
        "mean": mean,
        "std": std,
        "environment": _environment(),
    }
    results_path = out / "results.json"
    write_json_atomic(results_path, payload)
    return RunResult(payload, str(results_path))


def run_ablation_grid(base: ExperimentConfig, axes: list) -> dict:
    """Run one rethink cell per ablation name, sharing pretraining.

    Every cell runs with rethink=True (the grid compares the full
    rewiring loop against its ablations); checkpoints are shared through
    a common pretrain directory. Every cell's config is built, and so
    checked, before the first one runs.
    """
    if not axes:
        raise ConfigError("ablation axes must be non-empty")
    if len(set(axes)) != len(axes):
        raise ConfigError(f"ablation axes repeat a name: {list(axes)}")
    base_out = Path(base.out)
    ckpt_dir = base.pretrain_ckpt or str(base_out / "pretrain")
    configs = [dataclasses.replace(base, rethink=True, ablation=name,
                                   out=str(base_out / f"ablate_{name.replace(':', '-')}"),
                                   pretrain_ckpt=ckpt_dir) for name in axes]
    cells = {cell.ablation: run(cell).data for cell in configs}
    payload = {"schema": GRID_SCHEMA, "base_config": base.to_dict(),
               "axes": list(axes), "cells": cells}
    write_json_atomic(base_out / "results_grid.json", payload)
    return payload


def run_robustness(base: ExperimentConfig, grid: list) -> dict:
    """Paired baseline/rethink runs per perturbation cell.

    Both sides of a pair see the same perturbed graph and share the same
    perturbed-pretraining checkpoints; the pairing is checked through the
    recorded hashes. Every cell is perturbed before the first one runs, so
    a grid with a bad or repeated cell fails before it writes anything.
    """
    if not grid:
        raise ConfigError("perturbation grid must be non-empty")
    grid = [spec or None for spec in grid]
    for spec in grid:
        if spec is not None:
            _check_perturbation(spec)
    clean = load_dataset(base.dataset)
    graphs = [_perturbed(clean, spec) for spec in grid]
    # every kind is known now; a count of 5 and one of 5.0 are one cell
    cells = [None if spec is None else (spec["kind"], spec["amount"], spec.get("seed", 0))
             for spec in grid]
    if len(set(cells)) != len(cells):
        raise ConfigError(f"perturbation grid repeats a cell: {grid}")
    base_out = Path(base.out)
    rows = []
    for spec, graph in zip(grid, graphs):
        if spec is None:
            tag = "clean"
        else:
            tag = f"{spec['kind']}_{spec['amount']}_s{spec.get('seed', 0)}"
        sub = base_out / f"robust_{tag}"
        ckpt_dir = base.pretrain_ckpt or str(sub / "pretrain")
        d_cfg = dataclasses.replace(base, rethink=False, ablation="none",
                                    perturbation=spec, out=str(sub / "d"),
                                    pretrain_ckpt=ckpt_dir)
        rd_cfg = dataclasses.replace(base, rethink=True, ablation="none",
                                     perturbation=spec, out=str(sub / "rd"),
                                     pretrain_ckpt=ckpt_dir)
        d_res = run(d_cfg, graph)
        rd_res = run(rd_cfg, graph)
        for d_entry, rd_entry in zip(d_res.per_seed, rd_res.per_seed):
            if d_entry["pretrain_sha256"] != rd_entry["pretrain_sha256"]:
                raise StateError(f"robustness cell {tag}: pretraining checkpoints diverged")
            if d_entry["perturbation_sha256"] != rd_entry["perturbation_sha256"]:
                raise StateError(f"robustness cell {tag}: perturbed graphs diverged")
        rows.append({"perturbation": spec, "tag": tag,
                     "perturbation_sha256": d_res.per_seed[0]["perturbation_sha256"],
                     "baseline": d_res.data, "rethink": rd_res.data})
    payload = {"schema": ROBUSTNESS_SCHEMA, "base_config": base.to_dict(),
               "cells": rows}
    write_json_atomic(base_out / "results_robustness.json", payload)
    return payload


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
