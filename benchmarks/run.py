"""gaeclust benchmark: Cora-like workloads, phase timings, layer spans, kernel gate.

Run from the repository root:

    python3 benchmarks/run.py --workload cora-pretrain --seed 0 --seconds 24 --trace 0

One invocation runs one workload as a closed loop: one process, one run
of the package at a time, one BLAS thread. It

1. generates a Cora-like attributed SBM from --seed (benchmarks/gen.py)
   and writes it as a dataset directory, the only input the package sees;
2. for the clustering workloads, pretrains the checkpoint they start from
   (untimed, with the code under test, in a fresh directory);
3. times set-up (load_dataset + normalize_adjacency + model init or
   checkpoint load) twice before each run and twice after the last one,
   and keeps the median;
4. makes round(--seconds / nominal_s) whole runs (`experiments.pretrain_only`
   or `experiments.run`, each in a fresh output directory), where nominal_s
   is what one run of the workload takes on the reference machine. The
   work, and so the number of epoch samples behind each percentile, is
   then the same on every commit and machine, and a run of the benchmark
   lasts about --seconds at the baseline;
5. checks every run (epoch cap reached, the workload did what it claims,
   identical results on every repetition) and, outside the timed window,
   compares recon_loss / recon_grad_z on the final embedding at full N
   against the dense reference in gate.py.

With --trace 1, runs alternate untraced and traced; the traced ones wrap
the package's functions in spans (spans.py) and the per-layer metrics
come from those spans. The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. The pair kernels are mostly
# single-threaded elementwise numpy: on a 2-core machine a second BLAS thread
# saves ~2 % per epoch but doubles the run-to-run spread, because any other
# load on the second core stalls every multithreaded BLAS call.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gate import TOLERANCE, kernel_errors  # noqa: E402
from gen import PRESETS, generate, write_dataset  # noqa: E402
from spans import SpanTree, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPAN_DIR = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    epochs: int          # epochs in one timed run (pretraining epochs for cora-pretrain)
    nominal_s: float     # seconds one run takes on the reference machine
    rethink: bool = False
    alpha1: float = 0.3
    m1: int = 20
    m2: int = 15
    diag_stride: int = 1
    convergence_fraction: float = 0.9


# Reference machine: 2-core Intel Xeon, OpenBLAS 0.3.31 with 1 thread,
# numpy 2.4, python 3.11, at the commit that added this benchmark.
WORKLOADS = {w.name: w for w in (
    # reconstruction pretraining only: the pair kernel does nearly all the work
    Workload("cora-pretrain", model="gae", epochs=8, nominal_s=8.0),
    # dgae rewiring with diagnostics every epoch. alpha1 = 0.2 gives |Omega|
    # of 0.8-0.9 N by the last refresh (epoch 4); convergence_fraction = 1.0
    # keeps a large Omega from ending the run before its cap.
    Workload("cora-rdgae-diag", model="dgae", epochs=5, nominal_s=12.0, rethink=True,
             alpha1=0.2, m1=2, m2=2, diag_stride=1, convergence_fraction=1.0),
    # gae rewiring, k-means every epoch, diagnostics only on epoch 0 (train_joint
    # always runs them on epoch 0). gae's Gaussian confidences are near 1, so
    # alpha1 = 0.9999 still admits 0.7-0.92 N nodes while keeping Omega short
    # of N (at 0.99 some seeds reached 0.97 N).
    Workload("cora-rgae-nodiag", model="gae", epochs=10, nominal_s=12.0, rethink=True,
             alpha1=0.9999, m1=2, m2=2, diag_stride=10_000, convergence_fraction=1.0),
)}

PREP_EPOCHS = 10     # untimed pretraining; with 5, dgae collapsed on some seeds
SETUP_REPEATS = 2    # set-up timings before each run and after the last
ACC_FLOOR = 0.40     # the largest Cora-like block alone scores 0.30
# cora-pretrain scores its embedding with the best of several k-means
# restarts (lowest inertia); one restart put acc anywhere in 0.70-0.94
KMEANS_RESTARTS = 10

PAIR_KERNELS = ("models.recon_loss", "models.recon_grad_z", "models.regularizer_R")
# calls train_joint makes only to fill the diagnostic trace columns
DIAG_CALLS = ("diagnostics.lambda_fr", "diagnostics.lambda_fd",
              "diagnostics.graph_evolution_stats", "operators.build_supervised_target",
              "models.laplacian_quadratic", "models.regularizer_R",
              "models.centroid_kmeans_loss")
OUTPUT_CALLS = ("diagnostics.DiagnosticTrace.to_csv", "diagnostics.DiagnosticTrace.to_json",
                "experiments.write_json_atomic", "experiments.sha256_file")
PER_CALL = ("models.recon_loss", "models.recon_grad_z", "models.regularizer_R",
            "models.encode", "models.backprop_theta", "models.dgae_clus_loss",
            "models.load_checkpoint", "models.save_checkpoint",
            "diagnostics.lambda_fr", "diagnostics.lambda_fd",
            "diagnostics.graph_evolution_stats", "operators.build_supervised_target",
            "operators.xi_select", "operators.upsilon_transform", "operators.save_edge_list",
            "clustering.kmeans", "clustering.student_t_assign",
            "clustering.evaluate_clustering", "linalg.adam_step",
            "training.model_assignment", "graphio.load_dataset",
            "graphio.normalize_adjacency")


def declared_units(kind: str) -> dict:
    """Metric name -> unit of the BENCHMARK.json section kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_package() -> dict:
    """Import gaeclust from this checkout's src/, never from elsewhere."""
    if not (SRC / "gaeclust" / "__init__.py").is_file():
        raise SystemExit(f"error: no gaeclust package under {SRC}; "
                         "run from the root of a gaeclust checkout")
    sys.path.insert(0, str(SRC))
    names = ("graphio", "models", "linalg", "clustering", "operators",
             "diagnostics", "training", "experiments")
    mods = {name: importlib.import_module(f"gaeclust.{name}") for name in names}
    if Path(mods["models"].__file__).resolve().parent != (SRC / "gaeclust").resolve():
        raise SystemExit(f"error: gaeclust was imported from {mods['models'].__file__}")
    return mods


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc = None
    try:
        levels = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/level"),
                        key=lambda p: int(p.read_text()))
        if levels:
            llc = (levels[-1].parent / "size").read_text().strip()
    except (OSError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(samples) -> tuple:
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, and never below the median."""
    x = np.asarray(samples, dtype=np.float64)
    for q in range(99, 50, -1):
        value = float(np.percentile(x, q))
        if int(np.sum(x > value)) >= 10:
            return q, value
    return 50, float(np.median(x))


def experiment_config(mods, w: Workload, seed: int, data_dir, out, ckpt_dir):
    return mods["experiments"].ExperimentConfig(
        dataset=str(data_dir), model=w.model, rethink=w.rethink, out=str(out),
        pretrain_ckpt=None if ckpt_dir is None else str(ckpt_dir), seeds=(seed,),
        pretrain_epochs=PREP_EPOCHS if w.rethink else w.epochs,
        train_epochs=w.epochs, alpha1=w.alpha1, m1=w.m1, m2=w.m2,
        convergence_fraction=w.convergence_fraction, diag_stride=w.diag_stride)


class EpochClock:
    """Times each models.reconstruction_step call: one pretraining epoch each."""

    def __init__(self, models):
        self.models = models
        self.times = []

    def __enter__(self):
        self.original = self.models.reconstruction_step

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.original(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - t0)

        self.models.reconstruction_step = timed
        return self

    def __exit__(self, *exc):
        self.models.reconstruction_step = self.original
        return False


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def edge_file_adjacency(path, n: int):
    """Symmetric CSR adjacency and added-edge count from a saved edge list."""
    rows = [line.split("\t") for line in Path(path).read_text().splitlines() if line]
    u = np.array([int(r[0]) for r in rows], dtype=np.int64)
    v = np.array([int(r[1]) for r in rows], dtype=np.int64)
    added = sum(1 for r in rows if r[2] == "A")
    a = sp.csr_matrix((np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(n, n))
    return a, added


def one_run(mods, w: Workload, seed: int, data_dir, ckpt_dir, out, tracer=None) -> dict:
    """One timed run of the package plus the facts harvested from its outputs."""
    ex = mods["experiments"]
    cfg = experiment_config(mods, w, seed, data_dir, out,
                            ckpt_dir if w.rethink else None)
    entry = ex.run if w.rethink else ex.pretrain_only
    with EpochClock(mods["models"]) as clock:
        t0 = time.perf_counter()
        if tracer is None:
            result = entry(cfg)
        else:
            with tracer.span(f"experiments.{entry.__name__}"):
                result = entry(cfg)
        run_s = time.perf_counter() - t0

    info = {"run_s": run_s, "problems": []}
    if not w.rethink:
        ckpt = result["checkpoints"][0]
        info.update(epoch_s=clock.times, epochs=len(clock.times),
                    checkpoint=ckpt["checkpoint"], fingerprint=file_sha256(ckpt["checkpoint"]),
                    omega_final=0, edges_rewired=0, target=None)
        if info["epochs"] != w.epochs:
            info["problems"].append(f"ran {info['epochs']} of {w.epochs} pretraining epochs")
        return info

    seed_entry = result.data["per_seed"][0]
    with open(seed_entry["trace_csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    wall = [float(r["wall_time"]) for r in rows]
    diag_epochs = [int(r["epoch"]) for r in rows if r["lambda_fr"] != ""]
    n = result.data["dataset"]["n_nodes"]
    target, added = edge_file_adjacency(seed_entry["edge_list"], n)
    deleted = sum(1 for line in Path(seed_entry["edge_list"] + ".deleted").read_text().splitlines()
                  if line)
    omega_sizes = seed_entry["omega_sizes"]
    info.update(epoch_s=list(np.diff([0.0] + wall)), epochs=seed_entry["epochs_run"],
                checkpoint=seed_entry["checkpoint"],
                fingerprint=file_sha256(seed_entry["checkpoint"]),
                acc=seed_entry["acc"], nmi=seed_entry["nmi"],
                omega_final=omega_sizes[-1][1] if omega_sizes else 0,
                edges_rewired=added + deleted, target=target, diag_epochs=diag_epochs)
    p = info["problems"]
    if seed_entry["stop_reason"] != "epoch_cap" or info["epochs"] != w.epochs:
        p.append(f"stopped ({seed_entry['stop_reason']}) after {info['epochs']} "
                 f"of {w.epochs} epochs")
    if info["omega_final"] == 0:
        p.append("the reliable set is empty")
    if info["edges_rewired"] == 0:
        p.append("the self-supervision graph was never rewired")
    want_diag = list(range(0, w.epochs, w.diag_stride))
    if diag_epochs != want_diag:
        p.append(f"diagnostics ran on epochs {diag_epochs}, expected {want_diag}")
    return info


def gate(mods, w: Workload, seed: int, data_dir, last: dict) -> tuple:
    """Kernel check on the final embedding at full N; returns (problems, scores)."""
    graph = mods["graphio"].load_dataset(data_dir)
    a_prop = mods["graphio"].normalize_adjacency(graph, "propagation")
    model = mods["models"].load_checkpoint(last["checkpoint"])
    z, _ = mods["models"].encode(model, a_prop, graph.features, training=False)
    target = graph.adjacency if last["target"] is None else last["target"]
    errors = kernel_errors(z, target, mods["models"].recon_loss, mods["models"].recon_grad_z)
    problems = [f"{name} differs from the dense reference by {err:.3g} (relative)"
                for name, err in errors.items() if not err <= TOLERANCE]
    if w.rethink:
        scores = {"acc": last["acc"], "nmi": last["nmi"]}
    else:
        clustering = mods["clustering"]
        fits = [clustering.kmeans(z, graph.k_clusters, seed * KMEANS_RESTARTS + r)
                for r in range(KMEANS_RESTARTS)]
        _, pred = min(fits, key=lambda f: float(np.sum((z - f[0].centers[f[1]]) ** 2)))
        scores = clustering.evaluate_clustering(pred, graph.labels, graph.k_clusters)
    if not scores["acc"] >= ACC_FLOOR:
        problems.append(f"acc {scores['acc']:.4f} is below the floor {ACC_FLOOR}")
    return problems, {"acc": scores["acc"], "nmi": scores["nmi"], "kernel_errors": errors}


def layer_metrics(tree: SpanTree, info: dict, n_nodes: int) -> dict:
    """Per-layer metrics of one traced run."""
    epochs = max(1, info["epochs"])

    def durations(name):
        return [tree.duration(s[1]) for s in tree.named(name)]

    def top_level(name):
        return [s for s in tree.named(name) if tree.parent_name(s[1]) == "training.train_joint"]

    m = {}
    for name in PER_CALL:
        d = durations(name)
        m[f"{name}_s"] = statistics.median(d) if d else 0.0
    pair = [t for name in PAIR_KERNELS for t in durations(name)]
    m["models.pair_passes_per_epoch"] = len(pair) / epochs
    m["models.pair_rate_gpairs_s"] = (len(pair) * n_nodes ** 2 / sum(pair) / 1e9
                                      if pair else 0.0)
    m["models.encode_calls_per_epoch"] = len(durations("models.encode")) / epochs
    m["models.backprop_calls_per_epoch"] = len(durations("models.backprop_theta")) / epochs

    rows = top_level("operators.build_supervised_target")
    diag_encodes = [s for s in tree.named("models.encode")
                    if tree.under(s[1], {"diagnostics.lambda_fr", "diagnostics.lambda_fd"})]
    m["diagnostics.encodes_per_row"] = len(diag_encodes) / len(rows) if rows else 0.0
    loop = tree.named("training.train_joint")
    loop_s = sum(tree.duration(s[1]) for s in loop)
    diag_s = sum(tree.duration(s[1]) for name in DIAG_CALLS for s in top_level(name))
    m["diagnostics.share"] = diag_s / loop_s if loop_s else 0.0
    m["clustering.kmeans_calls_per_epoch"] = len(durations("clustering.kmeans")) / epochs
    m["training.loop_self_s"] = sum(tree.self_time(s[1]) for s in loop) / epochs
    m["operators.omega_frac"] = info["omega_final"] / n_nodes
    m["operators.edges_rewired"] = info["edges_rewired"]
    m["experiments.outputs_s"] = sum(t for name in OUTPUT_CALLS for t in durations(name))
    for layer, t in tree.layer_self_times().items():
        m[f"{layer}.self_s"] = t
    return m


def layer_table(tree: SpanTree, run_s: float) -> list:
    lines = [f"  {'layer':<12} {'self s/run':>10} {'share':>7}"]
    for layer, t in sorted(tree.layer_self_times().items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {t:10.4f} {t / run_s:7.1%}")
    lines.append("  top functions by self time:")
    top = sorted(tree.function_self_times().items(), key=lambda kv: -kv[1])[:8]
    lines += [f"    {name:<40} {t:9.4f} s" for name, t in top]
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object plus a human-readable report."""
    mods = load_package()
    w = WORKLOADS[workload]
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    report = [f"env {json.dumps(environment())}"]
    try:
        data = generate(PRESETS["cora"], seed)
        data_dir = write_dataset(data, work / "data")
        n_nodes = int(data["labels"].size)
        ckpt_dir = work / "pretrain"
        if w.rethink:
            mods["experiments"].pretrain_only(
                experiment_config(mods, w, seed, data_dir, ckpt_dir, None))
            ckpt_path = next(ckpt_dir.glob("pretrain_*_seed*.json"))

        setup = []

        def time_setup():
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                graph = mods["graphio"].load_dataset(data_dir)
                mods["graphio"].normalize_adjacency(graph, "propagation")
                if w.rethink:
                    mods["models"].load_checkpoint(ckpt_path)
                else:
                    mods["models"].init_model(w.model, graph.features.shape[1], seed)
                setup.append(time.perf_counter() - t0)

        runs, traced, untraced, failures = [], [], [], []
        tracer = Tracer(mods) if trace else None
        n_runs = max(2 if trace else 1, round(seconds / w.nominal_s))
        for i in range(n_runs):
            time_setup()
            use_trace = trace and i % 2 == 1
            if tracer is not None:
                tracer.run_id = i
            try:
                if use_trace:
                    with tracer:
                        info = one_run(mods, w, seed, data_dir, ckpt_dir,
                                       work / f"run{i}", tracer)
                else:
                    info = one_run(mods, w, seed, data_dir, ckpt_dir, work / f"run{i}")
            except Exception:  # a run that raises counts as failed; keep measuring
                failures.append(traceback.format_exc())
                info = None
            if info is not None:
                info["index"] = i
                (traced if use_trace else untraced).append(info)
            runs.append(info)
        time_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ok = [r for r in runs if r is not None and not r["problems"]]
        for r in runs:
            if r is not None and r["problems"]:
                failures.append("; ".join(r["problems"]))
        if len({r["fingerprint"] for r in ok}) > 1:
            failures.append("final checkpoints differ between repetitions of the same run")
            ok = []
        scores = None
        if ok:
            problems, scores = gate(mods, w, seed, data_dir, ok[-1])
            if problems:
                failures.append("; ".join(problems))
                ok = ok[:-1]
        attempted = len(runs)
        failed = attempted - len(ok)
        correct = not failures

        epochs = [t for r in untraced for t in r["epoch_s"]]
        report.append(f"workload {workload} seed {seed}: {attempted} runs "
                      f"({len(traced)} traced), {failed} failed, "
                      f"{len(epochs)} untraced epoch samples, {len(setup)} set-up samples")
        if ok and w.rethink:
            report.append(f"|Omega| at the last refresh {ok[-1]['omega_final']} of {n_nodes} "
                          f"nodes, {ok[-1]['edges_rewired']} edges rewired")
        for msg in failures:
            report.append(f"FAIL {msg.strip()}")
        if scores is not None:
            report.append("kernel gate (relative error vs dense reference): " + ", ".join(
                f"{k} {v:.2e}" for k, v in scores["kernel_errors"].items()))

        if trace:
            metrics = {}
            if traced:
                per_run = []
                for r in traced:
                    tree = SpanTree([s for s in tracer.spans if s[0] == r["index"]])
                    per_run.append(layer_metrics(tree, r, n_nodes))
                metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
                metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                               - statistics.median(r["run_s"] for r in untraced)
                                               if untraced else 0.0)
                last = traced[-1]
                report.append(f"per-layer self time, traced run of {last['run_s']:.3f} s "
                              f"({last['epochs']} epochs):")
                report += layer_table(SpanTree([s for s in tracer.spans
                                                if s[0] == last["index"]]), last["run_s"])
                report.append(f"tracing overhead {metrics['trace.overhead_s']:+.4f} s per run")
                tracer.write_csv(SPAN_DIR / f"spans-{workload}-seed{seed}.csv")
        else:
            metrics = {}
            if epochs:
                q, tail = tail_percentile(epochs)
                metrics = {
                    "setup_s": statistics.median(setup),
                    "epoch_s.p50": float(np.median(epochs)),
                    "epoch_s.tail": tail,
                    "run_s": statistics.median(r["run_s"] for r in untraced),
                    "peak_rss_mb": peak_rss_mb,
                    "acc": scores["acc"] if scores else 0.0,
                    "nmi": scores["nmi"] if scores else 0.0,
                    "pass_frac": (attempted - failed) / attempted,
                }
                report.append(f"epoch_s.tail is p{q} of {len(epochs)} epoch samples "
                              f"({int(np.sum(np.asarray(epochs) > tail))} above it)")
        units = declared_units("per_layer" if trace else "end_to_end")
        if metrics and set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                               "BENCHMARK.json")
        for name, value in metrics.items():
            report.append(f"  {name:<40} {value:14.6f} {units[name]}")
        result = {"correct": correct and bool(metrics), "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": float(v), "unit": units[k]}
                              for k, v in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaeclust benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
