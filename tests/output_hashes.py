"""Print a sha256 for every file a clustering run writes whose bytes are pinned.

    PYTHONPATH=src python3 tests/output_hashes.py [--gate] [--workers N] > hashes.txt

Runs experiments.run for gae, vgae and dgae, each plain and with rethink,
at diag_stride 1 and 3, on the seed-0 cora preset of benchmarks/gen.py
(N=2708, J=1433, K=7; imported, never written). With --gate it runs the
byte gate's smaller list instead: the same six runs at diag_stride 2 on
the seed-0 cora preset shrunk to N=1200, J=600, 2400 edges (a pair sweep
of 4 strips), plus one dgae rethink run at ablation fr_correction_delay:2,
and the report of experiments.verify_theory(100, 0), whose table
tests/test_output_bytes.py compares with tests/output_bytes.txt under
pinned kernels. It prints one line `<sha256>  <file>` per pretraining
checkpoint, final checkpoint, edge list, `.deleted` sidecar and trace CSV;
the trace is hashed without its wall_time column, and the report as
json.dumps(report, sort_keys=True). Two checkouts whose outputs carry the same bytes print
the same lines, so `diff` of their outputs is the check. --workers forces
gaeclust.pairs.pair_sweep_workers() to N, which must leave every hash as it is.

pytest does not collect this file (it is no test_*.py).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (model, rethink settings): alpha1 keeps Omega short of N and the rewiring busy,
# as in benchmarks/run.py's workloads
MODELS = {"gae": 0.9999, "vgae": 0.9999, "dgae": 0.2}
PRETRAIN_EPOCHS = 10
TRAIN_EPOCHS = 6
# the byte gate's graph: the cora preset at sizes whose runs take seconds
GATE_SIZES = {"n_nodes": 1200, "n_features": 600, "n_edges": 2400, "topic_size": 60}
# the byte gate's ablation run: its corrections start at epoch 2, so Omega
# holds every node before it and the delayed Xi and Upsilon phases follow
GATE_ABLATION = "fr_correction_delay:2"


def trace_digest(path: Path) -> str:
    """sha256 of the trace CSV with its wall_time column dropped."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_time"]
    buf = io.StringIO()
    csv.writer(buf).writerows([[row[i] for i in keep] for row in rows])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", action="store_true",
                        help="run the byte gate's N=1200 list at diag_stride 2")
    parser.add_argument("--workers", type=int, default=None,
                        help="force pair_sweep_workers() to this many threads (1-8)")
    args = parser.parse_args(argv)
    if args.workers is not None and not 1 <= args.workers <= 8:
        parser.error("--workers must lie in [1, 8]")

    sys.dont_write_bytecode = True  # leave no __pycache__ beside gen.py
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from gen import PRESETS, generate, write_dataset

    import gaeclust.pairs
    from gaeclust.experiments import ExperimentConfig, run, verify_theory
    if args.workers is not None:
        # the hashes cannot show a stale target: worker count never moves a byte
        if not hasattr(gaeclust.pairs, "pair_sweep_workers"):
            parser.error("--workers: gaeclust.pairs has no pair_sweep_workers to force")
        gaeclust.pairs.pair_sweep_workers = lambda: args.workers
    preset, strides = PRESETS["cora"], (1, 3)
    if args.gate:
        preset, strides = dataclasses.replace(preset, **GATE_SIZES), (2,)

    with tempfile.TemporaryDirectory(prefix="output-hashes-") as tmp:
        work = Path(tmp)
        data_dir = write_dataset(generate(preset, 0), work / "data")
        runs = [(model, rethink, stride, "none") for model in MODELS
                for rethink in (False, True) for stride in strides]
        if args.gate:
            runs.append(("dgae", True, 2, GATE_ABLATION))
        lines = []
        for model, rethink, stride, ablation in runs:
            name = f"{model}_{'rethink' if rethink else 'plain'}_stride{stride}"
            if ablation != "none":
                name += "_" + ablation.replace(":", "-")
            cfg = ExperimentConfig(
                dataset=str(data_dir), model=model, rethink=rethink, out=str(work / name),
                pretrain_ckpt=str(work / "pretrain"), seeds=(0,),
                pretrain_epochs=PRETRAIN_EPOCHS, train_epochs=TRAIN_EPOCHS,
                alpha1=MODELS[model], m1=2, m2=2, convergence_fraction=1.0,
                diag_stride=stride, ablation=ablation)
            entry = run(cfg).data["per_seed"][0]
            files = [Path(entry["checkpoint"]), Path(entry["edge_list"]),
                     Path(entry["edge_list"] + ".deleted")]
            lines += [f"{file_digest(p)}  {name}/{p.name}" for p in files]
            trace = Path(entry["trace_csv"])
            lines.append(f"{trace_digest(trace)}  {name}/{trace.name}")
        for path in sorted((work / "pretrain").glob("pretrain_*.json")):
            lines.append(f"{file_digest(path)}  pretrain/{path.name}")
    if args.gate:
        # the cluster graph, the pair kernels and every closed-form gradient
        report = json.dumps(verify_theory(100, 0), sort_keys=True)
        lines.append(f"{hashlib.sha256(report.encode()).hexdigest()}  verify_theory(100, 0)")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
