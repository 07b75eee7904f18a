"""In-memory spans around the package's public functions.

A Tracer replaces functions at the module attributes their callers look
them up through (for example `gaeclust.training.recon_loss`), records one
span per call (name, start, end, parent span, run id), and puts every
original back when the `with` block ends. Nothing under src/ changes; a
binding that no longer exists is skipped, so its spans read as zero.
Spans stay in memory until `write_csv` flushes them.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("graphio", "models", "linalg", "clustering", "operators",
          "diagnostics", "training", "experiments")

# (module, attribute, span name): every binding through which the clustering
# and pretraining code calls the functions below. A function imported into
# several modules is patched in each of them under one span name.
PATCHES = [
    ("experiments", "load_dataset", "graphio.load_dataset"),
    ("experiments", "normalize_adjacency", "graphio.normalize_adjacency"),
    ("models", "normalize_adjacency", "graphio.normalize_adjacency"),
    ("training", "normalize_adjacency", "graphio.normalize_adjacency"),
    ("experiments", "init_model", "models.init_model"),
    ("experiments", "load_checkpoint", "models.load_checkpoint"),
    ("experiments", "save_checkpoint", "models.save_checkpoint"),
    ("experiments", "pretrain", "models.pretrain"),
    ("models", "reconstruction_step", "models.reconstruction_step"),
    ("training", "reconstruction_step", "models.reconstruction_step"),
    ("models", "encode", "models.encode"),
    ("training", "encode", "models.encode"),
    ("diagnostics", "encode", "models.encode"),
    ("models", "backprop_theta", "models.backprop_theta"),
    ("training", "backprop_theta", "models.backprop_theta"),
    ("diagnostics", "backprop_theta", "models.backprop_theta"),
    ("models", "recon_loss", "models.recon_loss"),
    ("training", "recon_loss", "models.recon_loss"),
    ("models", "recon_grad_z", "models.recon_grad_z"),
    ("training", "recon_grad_z", "models.recon_grad_z"),
    ("diagnostics", "recon_grad_z", "models.recon_grad_z"),
    ("training", "regularizer_R", "models.regularizer_R"),
    ("training", "laplacian_quadratic", "models.laplacian_quadratic"),
    ("training", "centroid_kmeans_loss", "models.centroid_kmeans_loss"),
    ("training", "dgae_clus_loss", "models.dgae_clus_loss"),
    ("diagnostics", "dgae_clus_loss", "models.dgae_clus_loss"),
    ("diagnostics", "kmeans_grad_z", "models.kmeans_grad_z"),
    ("models", "adam_step", "linalg.adam_step"),
    ("training", "adam_step", "linalg.adam_step"),
    ("training", "kmeans", "clustering.kmeans"),
    ("training", "student_t_assign", "clustering.student_t_assign"),
    ("training", "evaluate_clustering", "clustering.evaluate_clustering"),
    ("diagnostics", "build_cluster_graph", "clustering.build_cluster_graph"),
    ("operators", "gaussian_soft_assign", "clustering.gaussian_soft_assign"),
    ("training", "xi_select", "operators.xi_select"),
    ("training", "compute_centroid_nodes", "operators.compute_centroid_nodes"),
    ("operators", "compute_centroid_nodes", "operators.compute_centroid_nodes"),
    ("training", "upsilon_transform", "operators.upsilon_transform"),
    ("operators", "upsilon_transform", "operators.upsilon_transform"),
    ("training", "build_supervised_target", "operators.build_supervised_target"),
    ("experiments", "save_edge_list", "operators.save_edge_list"),
    ("training", "lambda_fr", "diagnostics.lambda_fr"),
    ("training", "lambda_fd", "diagnostics.lambda_fd"),
    ("training", "graph_evolution_stats", "diagnostics.graph_evolution_stats"),
    ("diagnostics", "DiagnosticTrace.to_csv", "diagnostics.DiagnosticTrace.to_csv"),
    ("diagnostics", "DiagnosticTrace.to_json", "diagnostics.DiagnosticTrace.to_json"),
    ("training", "model_assignment", "training.model_assignment"),
    ("training", "_dgae_step", "training._dgae_step"),
    ("experiments", "train_joint", "training.train_joint"),
    ("experiments", "sha256_file", "experiments.sha256_file"),
    ("experiments", "write_json_atomic", "experiments.write_json_atomic"),
]


class Tracer:
    """Collects spans as tuples (run, span_id, parent_id, name, start, end)."""

    def __init__(self, package_modules: dict):
        self._modules = package_modules
        self._saved = []
        self._stack = []
        self.spans = []
        self.run_id = 0

    def __enter__(self):
        for module, attr, name in PATCHES:
            owner = self._modules[module]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:  # the binding is gone at this commit
                continue
            self._saved.append((owner, path[-1], original))
            setattr(owner, path[-1], self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def span(self, name):
        return _Span(self, name)

    def write_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("run", "span", "parent", "name", "start", "end"))
            writer.writerows(self.spans)


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans) + len(t._stack)
        self.parent = t._stack[-1].sid if t._stack else -1
        t._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append((t.run_id, self.sid, self.parent, self.name, self.start, end))
        return False


class SpanTree:
    """The spans of one run, indexed for self times and ancestry queries."""

    def __init__(self, spans):
        self.by_id = {s[1]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s[2]].append(s[1])

    def named(self, name):
        return [s for s in self.by_id.values() if s[3] == name]

    def duration(self, sid) -> float:
        s = self.by_id[sid]
        return s[5] - s[4]

    def self_time(self, sid) -> float:
        return self.duration(sid) - sum(self.duration(c) for c in self.children[sid])

    def parent_name(self, sid):
        parent = self.by_id.get(self.by_id[sid][2])
        return None if parent is None else parent[3]

    def under(self, sid, ancestor_names) -> bool:
        """True when some ancestor of the span has one of the given names."""
        pid = self.by_id[sid][2]
        while pid in self.by_id:
            if self.by_id[pid][3] in ancestor_names:
                return True
            pid = self.by_id[pid][2]
        return False

    def function_self_times(self) -> dict:
        out = defaultdict(float)
        for sid, s in self.by_id.items():
            out[s[3]] += self.self_time(sid)
        return dict(out)

    def layer_self_times(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.function_self_times().items():
            out[name.split(".")[0]] += t
        return out
