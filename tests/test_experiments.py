"""Experiment harness: configs, multi-seed runs, grids, robustness."""

import ast
import dataclasses
import importlib.util
import itertools
import json
import re
import shutil
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gaeclust
from gaeclust import (ConfigError, ExperimentConfig, RangeError, StateError, TrainConfig,
                      graphio, init_model, load_dataset, make_graph, pretrain, run,
                      save_dataset, train_joint, verify_theory)
from gaeclust.experiments import (_checkpoint, _pair, _sign_test_p, export_embeddings,
                                  graph_hash, grid_cells, pair_indices, pretrain_only, run_cells,
                                  sha256_file, write_json_atomic)
from gaeclust.graphio import normalize_adjacency, perturb_graph
from gaeclust.models import encode, load_checkpoint, save_checkpoint

from conftest import dense, planted_partition

PATH_KEYS = {"wall_time_s", "peak_rss_mb", "out", "pretrain_ckpt", "pretrain_checkpoint",
             "trace_csv", "edge_list", "checkpoint", "dataset"}


def scrub(obj):
    """Drop timing, memory and path fields so run outputs can be compared."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k not in PATH_KEYS}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    save_dataset(planted_partition(20, 2, 0.8, 0.05, seed=42), root / "blobs")
    return root / "blobs"


def tiny_config(dataset_dir, out, **kwargs):
    defaults = dict(dataset=str(dataset_dir), model="dgae", out=str(out),
                    seeds=(0, 1), pretrain_epochs=5, train_epochs=3,
                    m1=2, m2=2, diag_stride=10)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig(dataset="d")
        assert cfg.model == "dgae"
        assert cfg.seeds == (0, 1, 2)

    @pytest.mark.parametrize("kwargs", [
        {"model": "gcn"},
        {"seeds": ()},
        {"seeds": (1, 1)},
        {"ablation": "no_xi"},  # needs rethink
        {"perturbation": {"kind": "drop_random_edges"}},  # missing amount
        {"alpha1": 2.0},  # checked by TrainConfig.__post_init__
        {"rethink": True, "ablation": "bogus"},
        # each value must have its field's type
        {"seeds": "0,1"},
        {"seeds": 3},
        {"seeds": (0, True)},
        {"seeds": [0, 1.5]},
        {"alpha1": "x"},
        {"m1": 2.5},
        {"pretrain_epochs": "3"},
        {"rethink": "no"},
        {"dataset": 5},
        {"model": None},
        {"out": 3},
        {"pretrain_ckpt": 7},
        # a count perturbation needs a whole amount
        {"perturbation": {"kind": "add_random_edges", "amount": 5.7}},
        # numpy refuses negative seeds
        {"seeds": (-1,)},
        {"seeds": (0, -2)},
        {"perturbation": {"kind": "drop_random_edges", "amount": 1, "seed": -1}},
        # a misspelled key would run at seed 0
        {"perturbation": {"kind": "drop_random_edges", "amount": 1, "sead": 3}},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{"dataset": "d", **kwargs})

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries(
        {"kind": st.sampled_from(["add_random_edges", "drop_random_edges", "drop_feature_columns",
                                  "feature_gaussian_noise", "shuffle", "shuffle_labels"]),
         "amount": st.one_of(st.booleans(), st.integers(0, 5), st.floats(0, 5),
                             st.floats(-5, 5), st.sampled_from(
                                 [float("nan"), float("inf"), -float("inf"), 10 ** 400, -1,
                                  -0.0, 0.5, 5.7]))},
        optional={"seed": st.one_of(st.integers(0, 3), st.sampled_from([-1, 1.5, True, False]))}))
    def test_a_perturbation_is_refused_exactly_when_perturb_graph_refuses_it(self, spec):
        # a 20-node ring with J = 20 has room for every amount up to 5
        n = 20
        ring = make_graph(n, np.array([[i, (i + 1) % n] for i in range(n)]), features=np.eye(n))
        cell = spec["kind"], spec["amount"], spec.get("seed", 0)
        try:
            perturb_graph(ring, *cell)
            refusal = None
        except RangeError as exc:
            refusal = str(exc)
        try:
            config = ExperimentConfig(dataset="d", perturbation=spec)
        except ConfigError as exc:
            assert str(exc) == refusal
        else:
            assert refusal is None
            assert graphio.perturbation_key(spec) == cell
            assert config.to_dict()["perturbation"] == spec

    def test_numpy_scalars_are_held_as_python_scalars(self):
        # results.json and the grid records hold the config as JSON
        cfg = ExperimentConfig(dataset="d", m1=np.int64(5), train_epochs=np.int64(2),
                               perturbation={"kind": "drop_random_edges",
                                             "amount": np.int64(2), "seed": np.int64(3)})
        plain = ExperimentConfig(dataset="d", m1=5, train_epochs=2,
                                 perturbation={"kind": "drop_random_edges", "amount": 2,
                                               "seed": 3})
        assert json.dumps(cfg.to_dict()) == json.dumps(plain.to_dict())
        assert type(cfg.perturbation["seed"]) is int

    def test_run_tags(self):
        assert ExperimentConfig(dataset="d").run_tag(0) == "dgae_seed0"
        assert ExperimentConfig(dataset="d", rethink=True).run_tag(1) == "dgae_r_seed1"
        cfg = ExperimentConfig(dataset="d", rethink=True, ablation="fr_correction_delay:5")
        assert cfg.run_tag(0) == "dgae_r_fr_correction_delay-5_seed0"

    def test_pretrain_name_shared_across_regimes(self):
        def name(seed=0, clean_hash="cafe" * 16, **kwargs):
            config = ExperimentConfig(dataset="d", **kwargs)
            return _checkpoint(config, seed, "cafe" * 16, clean_hash)[0].name
        assert name(rethink=False) == name(rethink=True, ablation="no_xi")
        # keyed by encoder: dgae pretrains the gae encoder
        noisy = {"kind": "drop_random_edges", "amount": 1}
        assert name(perturbation=noisy, clean_hash="beef" * 16) == \
            "pretrain_gae_pcafecafe_seed0.json"
        # tagged by the digest, not by the config: a perturbation that leaves
        # the clean digest shares the clean checkpoint
        assert name(perturbation=noisy) == "pretrain_gae_seed0.json"
        names = {m: name(1, model=m) for m in ("gae", "vgae", "dgae")}
        assert names == {"gae": "pretrain_gae_seed1.json", "vgae": "pretrain_vgae_seed1.json",
                         "dgae": "pretrain_gae_seed1.json"}

    def test_checkpoint_directory_and_provenance(self):
        cfg = ExperimentConfig(dataset="d", out="o", lr=0.02, pretrain_epochs=7, gamma=0.5)
        path, provenance = _checkpoint(cfg, 3, "ab" * 32, "ab" * 32)
        assert path == Path("o") / "pretrain_gae_seed3.json"
        assert provenance == {"graph_sha256": "ab" * 32, "pretrain_epochs": 7, "lr": 0.02}
        shared = dataclasses.replace(cfg, pretrain_ckpt="p", out="elsewhere")
        assert _checkpoint(shared, 3, "ab" * 32, "ab" * 32) == (Path("p") / path.name, provenance)

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d", "model": "gae", "train_epochs": 7,
                                    "perturbation": {"kind": "drop_random_edges", "amount": 1}}))
        cfg = ExperimentConfig.from_file(path, {"model": "vgae", "perturbation": None})
        assert cfg.model == "vgae"          # an override wins
        assert cfg.perturbation is None     # a None override too
        assert cfg.train_epochs == 7        # a key without override keeps the file's value

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d", "optimizer": "sgd"}))
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_file(path)

    def test_from_file_needs_dataset(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "gae"}))
        with pytest.raises(ConfigError, match="dataset"):
            ExperimentConfig.from_file(path)

    def test_from_file_names_itself_in_a_refusal_of_a_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d", "alpha1": 2.0}))
        with pytest.raises(ConfigError) as refused:
            ExperimentConfig.from_file(path)
        assert str(refused.value) == f"{path}: alpha1 must lie in [0, 1]"

    @pytest.mark.parametrize("text", ['["dataset", "d"]', '"d"', "null"])
    def test_from_file_needs_a_json_object(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            ExperimentConfig.from_file(path, {"dataset": "d"})

    def test_to_dict_round_trips(self):
        cfg = ExperimentConfig(dataset="d", rethink=True, seeds=(3, 4))
        again = ExperimentConfig(**cfg.to_dict())
        assert again == cfg


class TestTrainConfigFields:
    def test_defaults_match_train_config(self):
        got, want = ExperimentConfig(dataset="d"), TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert "seed" not in {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_every_field_is_carried(self, dataset_dir, tmp_path, monkeypatch):
        values = {"gamma": 0.5, "lr": 0.02, "pretrain_epochs": 3, "train_epochs": 2,
                  "alpha1": 0.8, "alpha2": 0.1, "m1": 3, "m2": 4, "rethink": True,
                  "convergence_fraction": 0.5, "diag_stride": 5, "ablation": "no_xi"}
        defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        assert set(values) == set(defaults)
        assert all(values[k] != defaults[k] for k in values)
        calls = {"init_model": [], "pretrain": [], "train_joint": []}

        def spy(name):
            real = getattr(gaeclust.experiments, name)

            def wrapper(*args, **kwargs):
                calls[name].append((args, kwargs))
                return real(*args, **kwargs)
            monkeypatch.setattr(gaeclust.experiments, name, wrapper)

        for name in calls:
            spy(name)
        result = run(ExperimentConfig(dataset=str(dataset_dir), out=str(tmp_path),
                                      seeds=(11, 12), **values))
        assert [a[2] for a, _ in calls["init_model"]] == [11, 12]
        for entry in result.data["per_seed"]:
            assert load_checkpoint(entry["pretrain_checkpoint"]).adam.lr == 0.02
        assert [k["seed"] for _, k in calls["train_joint"]] == [11, 12]
        for name in ("pretrain", "train_joint"):
            assert len(calls[name]) == 2, name
            for args, _ in calls[name]:
                for field, value in values.items():
                    assert getattr(args[2], field) == value, (name, field)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_field_checks_its_type(self, name):
        # bytes are no value of any field, so a field added without a check fails here
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            ExperimentConfig(**{"dataset": "d", name: b"1"})


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_python_blocks() -> list:
    """The ```python blocks of README.md, parsed."""
    text = README.read_text()
    return [ast.parse(block) for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)]


class TestPublicSurface:
    def test_exports_are_the_readme_api(self):
        """__all__ is what README's code imports from gaeclust, plus
        verify_theory (named in its prose), the error classes and
        __version__; every other name is imported from its module."""
        imported = {alias.name for tree in readme_python_blocks() for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "gaeclust"
                    for alias in node.names}
        errors = {name for name, obj in vars(gaeclust.errors).items()
                  if isinstance(obj, type) and issubclass(obj, gaeclust.GaeClustError)}
        assert "`verify_theory()`" in README.read_text()
        assert sorted(gaeclust.__all__) == sorted(imported | {"verify_theory", "__version__"} | errors)

    def test_readme_imports_run(self):
        statements = [node for tree in readme_python_blocks() for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert statements
        for node in statements:
            exec(compile(ast.Module([node], []), "README.md", "exec"), {})

    def test_no_public_name_outside_all(self):
        public = {name for name in vars(gaeclust) if not name.startswith("_")}
        submodules = {name for name in public
                      if isinstance(getattr(gaeclust, name), types.ModuleType)
                      and getattr(gaeclust, name).__name__ == f"gaeclust.{name}"}
        assert public - submodules == set(gaeclust.__all__) - {"__version__"}

    def test_every_exported_name_resolves(self):
        for name in gaeclust.__all__:
            assert hasattr(gaeclust, name), name

    def test_removed_names_stay_gone(self):
        for name in ("CentroidNodes", "kmeans_embed_loss", "filter_impact", "lambda_prime_fr",
                     "ReliableSet", "all_nodes_reliable", "NormalizedAdjacency",
                     "hard_target", "onehot_assignment"):
            assert name not in gaeclust.__all__
            assert not hasattr(gaeclust, name)

    def test_benchmark_span_bindings_resolve(self):
        """The benchmark traces each function at the module attribute its
        callers look it up through and skips a binding that is gone, so a
        refactor that drops one would silently zero that span."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
        spec = importlib.util.spec_from_file_location("benchmark_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        # bindings known to read zero: diagnostics stopped importing
        # recon_grad_z (lambda_fd takes L_C's gradient, kmeans_grad_z) and
        # encode (it reads the epoch's encode), training, not operators,
        # now calls gaussian_soft_assign, so its time shows as training's
        # self time, and a run writes no trace summary, so
        # DiagnosticTrace.to_json is gone
        stale = {("diagnostics", "recon_grad_z"), ("diagnostics", "encode"),
                 ("operators", "gaussian_soft_assign"),
                 ("diagnostics", "DiagnosticTrace.to_json")}
        missing = []
        for module, attr, _ in spans.PATCHES:
            owner = importlib.import_module(f"gaeclust.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append((module, attr))
        # exactly the stale bindings are gone, so none hides one that resolves again
        assert sorted(missing) == sorted(stale)


class TestGraphHash:
    def test_sensitive_to_content(self, blobs2):
        base = graph_hash(blobs2)
        assert base == graph_hash(blobs2)
        dropped = perturb_graph(blobs2, "drop_random_edges", 1, seed=0)
        assert graph_hash(dropped) != base
        noisy = perturb_graph(blobs2, "feature_gaussian_noise", 0.1, seed=0)
        assert graph_hash(noisy) != base

    @staticmethod
    def digest_v2(g):
        """graph_hash's digest v2 written out from the dense X and .tobytes()
        copies: X enters as the CSR of its entries whose bits are not +0.0."""
        import hashlib
        x = np.ascontiguousarray(dense(g.x), dtype=np.float64)
        stored = x.view(np.uint64) != 0
        rows, cols = np.nonzero(stored)
        indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
        h = hashlib.sha256()
        h.update(np.int64(g.n_nodes).tobytes())
        h.update(g.edge_array().astype(np.int64).tobytes())
        h.update(np.array(x.shape, dtype=np.int64).tobytes())
        h.update(indptr.astype(np.int64).tobytes())
        h.update(cols.astype(np.int64).tobytes())
        h.update(x[rows, cols].astype("<f8").tobytes())
        if g.labels is None:
            h.update(b"no-labels")
        else:
            h.update(np.asarray(g.labels).astype(np.int64).tobytes())
        h.update(np.int64(g.k_clusters).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("block_bytes", [1, 8 * 23 * 5, 1 << 20])
    def test_dense_and_csr_storage_hash_alike(self, blobs2, monkeypatch, tmp_path, block_bytes):
        """One X gives one digest stored dense, as CSR with int32 indices,
        as CSR with int64 indices or as the CSR the fixed-layout reader
        builds in blocks of any size: digest v2. A stored -0.0 counts, an
        all-zero row stores nothing."""
        rng = np.random.default_rng(8)
        n = blobs2.n_nodes
        x = np.where(rng.random((n, 23)) < 0.08, rng.standard_normal((n, 23)), 0.0)
        x[4, :3] = -0.0
        x[7] = 0.0
        # a nonnegative two-decimal X in one token shape takes the fixed-layout path
        printed = np.round(np.minimum(np.abs(x), 9.99), 2)
        save_dataset(blobs2, tmp_path)
        text = "".join(" ".join(f"{v:.2f}" for v in row) + "\n" for row in printed)
        (tmp_path / "features.tsv").write_text(text)
        monkeypatch.setattr(gaeclust.graphio, "_BLOCK_BYTES", block_bytes)
        assert sp.issparse(gaeclust.graphio._read_fixed_layout(tmp_path / "features.tsv"))
        from_file = load_dataset(tmp_path)
        assert sp.issparse(from_file.x)
        assert graph_hash(from_file) == graph_hash(dataclasses.replace(blobs2, x=printed))
        assert graph_hash(from_file) == self.digest_v2(from_file)
        as_csr = dataclasses.replace(blobs2, x=x)
        wide = as_csr.x.copy()
        wide.indptr, wide.indices = wide.indptr.astype(np.int64), wide.indices.astype(np.int64)
        as_wide = dataclasses.replace(blobs2, x=wide)
        monkeypatch.setattr(gaeclust.graphio, "_SPARSE_FEATURES", -1.0)
        as_dense = dataclasses.replace(blobs2, x=x)
        assert as_csr.x.indices.dtype == np.int32 and as_wide.x.indices.dtype == np.int64
        assert isinstance(as_dense.x, np.ndarray)
        assert as_csr.x.nnz == np.count_nonzero(x.view(np.uint64))
        want = self.digest_v2(as_dense)
        assert graph_hash(as_csr) == graph_hash(as_wide) == graph_hash(as_dense) == want

    def test_csr_features_are_hashed_without_densifying(self, blobs2, monkeypatch):
        x = (np.random.default_rng(2).random((blobs2.n_nodes, 300)) < 0.03).astype(np.float64)
        g = dataclasses.replace(blobs2, x=x)
        assert sp.issparse(g.x)
        want = self.digest_v2(g)

        def no_dense(*args):
            raise AssertionError("graph_hash densified X")
        monkeypatch.setattr(gaeclust.graphio, "dense_features", no_dense)
        assert graph_hash(g) == want

    def test_bytes_match_copying_hash(self, blobs2):
        """graph_hash hashes the arrays in place; the digest is the one of
        their .tobytes() copies, whatever the memory order or dtype."""
        fortran = dataclasses.replace(blobs2, x=np.asfortranarray(blobs2.x),
                                      labels=blobs2.labels.astype(np.int32))
        unlabelled = dataclasses.replace(blobs2, labels=None)
        for g in (blobs2, fortran, unlabelled):
            assert graph_hash(g) == self.digest_v2(g)
        assert graph_hash(fortran) == graph_hash(blobs2)

    def test_cora_like_digests(self, tmp_path, monkeypatch):
        """The v2 digests of the seed-0 Cora-like dataset of
        benchmarks/gen.py and of two edge perturbations of it: saved
        pretraining checkpoints name these, and the edge bytes are those
        of an int32 sp.triu + lexsort edge array, as int64."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "gen.py"
        spec = importlib.util.spec_from_file_location("benchmark_gen", path)
        gen = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
        spec.loader.exec_module(gen)
        g = load_dataset(gen.write_dataset(gen.generate(gen.PRESETS["cora"], 0), tmp_path))
        graphs = {"base": g,
                  "add": perturb_graph(g, "add_random_edges", 100, 0),
                  "drop": perturb_graph(g, "drop_random_edges", 100, 0)}
        digests = {name: graph_hash(h) for name, h in graphs.items()}
        assert digests == {
            "base": "f27403206c6ec90b2e07cdce5a9f9de8da3d01b31e1c934c93cece10ed7d95d5",
            "add": "ea7a1ec761f61bb0c2ee0824688b56b603ec76e30b22c78c13213dc9e200c4c5",
            "drop": "316ae882cbc89ce43002f3736b7500027994169f1e7c9c46f491250578abdab6",
        }

        def triu_edge_array(self):
            coo = sp.triu(self.adjacency, k=1).tocoo()
            pairs = np.stack([coo.row, coo.col], axis=1)
            return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        assert g.edge_array().dtype == np.int64
        monkeypatch.setattr(type(g), "edge_array", triu_edge_array)
        assert {name: graph_hash(h) for name, h in graphs.items()} == digests

    def test_file_hash_and_atomic_write(self, tmp_path):
        write_json_atomic(tmp_path / "x.json", {"a": 1})
        assert json.loads((tmp_path / "x.json").read_text()) == {"a": 1}
        assert not (tmp_path / "x.json.tmp").exists()
        h = sha256_file(tmp_path / "x.json")
        assert len(h) == 64
        assert h == sha256_file(tmp_path / "x.json")


class TestRun:
    def test_artifacts_and_aggregates(self, dataset_dir, tmp_path):
        config = tiny_config(dataset_dir, tmp_path / "out", rethink=True)
        result = run(config)
        data = result.data
        assert data["schema"] == "gaeclust/results/v2"
        assert data["mode"] == "cluster"
        assert data["dataset"]["n_nodes"] == 20
        assert len(result.data["per_seed"]) == 2
        for entry in result.data["per_seed"]:
            assert entry["stop_reason"] in ("epoch_cap", "omega_converged")
            assert Path(entry["trace_csv"]).is_file()
            assert Path(entry["edge_list"]).is_file()
            assert Path(entry["checkpoint"]).is_file()
            assert Path(entry["pretrain_checkpoint"]).is_file()
            assert entry["pretrain_sha256"] == sha256_file(entry["pretrain_checkpoint"])
        assert json.loads(Path(result.path).read_text()) == data
        # aggregate math
        accs = [e["acc"] for e in result.data["per_seed"]]
        assert result.data["mean"]["acc"] == pytest.approx(float(np.mean(accs)))
        assert result.data["std"]["acc"] == pytest.approx(float(np.std(accs)))
        top = max(result.data["per_seed"], key=lambda e: (e["acc"], e["nmi"], e["ari"]))
        assert result.data["best"] == {k: top[k] for k in ("seed", "acc", "nmi", "ari")}

    def test_environment_block(self, dataset_dir, tmp_path):
        env = run(tiny_config(dataset_dir, tmp_path / "out")).data["environment"]
        assert set(env) == {"gaeclust", "python", "numpy", "scipy", "blas", "blas_core",
                            "numpy_simd", "blas_threads", "nproc", "pair_sweep_workers",
                            "peak_rss_mb"}
        assert env["gaeclust"] == gaeclust.__version__
        for key in ("python", "numpy", "scipy", "blas"):
            assert isinstance(env[key], str) and env[key]
        assert env["blas_core"] == gaeclust.pairs.blas_core()
        assert env["blas_core"] is None or (isinstance(env["blas_core"], str)
                                            and env["blas_core"])
        assert env["numpy_simd"] == np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        assert all(isinstance(name, str) for name in env["numpy_simd"])
        assert env["blas_threads"] is None or (type(env["blas_threads"]) is int
                                               and env["blas_threads"] >= 1)
        for key in ("nproc", "pair_sweep_workers"):
            assert type(env[key]) is int and env[key] >= 1
        assert isinstance(env["peak_rss_mb"], float) and env["peak_rss_mb"] > 0.0

    def test_deterministic_modulo_timing_and_paths(self, dataset_dir, tmp_path):
        r1 = run(tiny_config(dataset_dir, tmp_path / "a", rethink=True))
        r2 = run(tiny_config(dataset_dir, tmp_path / "b", rethink=True))
        assert scrub(r1.data) == scrub(r2.data)

    def test_checkpoint_reuse_skips_pretraining(self, dataset_dir, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        config = tiny_config(dataset_dir, tmp_path / "out1", seeds=(0,),
                             pretrain_ckpt=str(ckpt_dir))
        manifest = pretrain_only(config)
        stored = manifest["checkpoints"][0]["sha256"]
        result = run(config)
        assert result.data["per_seed"][0]["pretrain_sha256"] == stored
        again = pretrain_only(config)
        assert again["checkpoints"][0]["sha256"] == stored

    def test_checkpoint_from_other_kernels_warns(self, dataset_dir, tmp_path, monkeypatch):
        config = tiny_config(dataset_dir, tmp_path / "out", seeds=(0,),
                             pretrain_ckpt=str(tmp_path / "ckpt"))
        made_under = pretrain_only(config)["checkpoints"][0]
        assert load_checkpoint(made_under["checkpoint"]).kernels == gaeclust.experiments._kernels()
        monkeypatch.setattr(gaeclust.experiments, "blas_core", lambda: "OtherCore")
        with pytest.warns(UserWarning) as record:
            result = run(config)
        assert len(record) == 1
        message = str(record[0].message)
        assert "'OtherCore'" in message and repr(gaeclust.pairs.blas_core()) in message
        # reused, not refused; the clustering phase records the set it ran under
        entry = result.data["per_seed"][0]
        assert entry["pretrain_sha256"] == made_under["sha256"]
        assert load_checkpoint(entry["checkpoint"]).kernels["blas_core"] == "OtherCore"

    def test_checkpoint_from_same_kernels_does_not_warn(self, dataset_dir, tmp_path):
        config = tiny_config(dataset_dir, tmp_path / "out", seeds=(0,),
                             pretrain_ckpt=str(tmp_path / "ckpt"))
        pretrain_only(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(config)

    @pytest.mark.parametrize("change", ["pretrain_epochs", "lr", "dataset"])
    def test_stale_checkpoint_is_refused(self, dataset_dir, tmp_path, change):
        ckpt_dir = tmp_path / "ckpt"
        pretrain_only(tiny_config(dataset_dir, tmp_path / "a", seeds=(0,),
                                  pretrain_ckpt=str(ckpt_dir)))
        if change == "dataset":
            # same size and feature width, one edge fewer
            g = load_dataset(dataset_dir)
            save_dataset(make_graph(g.n_nodes, g.edge_array()[1:], features=g.x,
                                    labels=g.labels, k_clusters=g.k_clusters),
                         tmp_path / "other")
            override = {"dataset": str(tmp_path / "other")}
        else:
            override = {"pretrain_epochs": 6} if change == "pretrain_epochs" else {"lr": 0.02}
        stale = tiny_config(dataset_dir, tmp_path / "b", seeds=(0,),
                            pretrain_ckpt=str(ckpt_dir), **override)
        with pytest.raises(StateError, match="pretrained with"):
            pretrain_only(stale)
        with pytest.raises(StateError, match="pretrained with"):
            run(stale)

    def test_checkpoint_arch_mismatch(self, dataset_dir, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        run(tiny_config(dataset_dir, tmp_path / "v", model="vgae", seeds=(0,),
                        pretrain_ckpt=str(ckpt_dir)))
        # rename the vgae checkpoint, both files, where gae and dgae runs expect theirs
        for suffix in ("", ".f8"):
            (ckpt_dir / f"pretrain_vgae_seed0.json{suffix}").replace(
                ckpt_dir / f"pretrain_gae_seed0.json{suffix}")
        for model in ("gae", "dgae"):
            bad = tiny_config(dataset_dir, tmp_path / model, model=model, seeds=(0,),
                              pretrain_ckpt=str(ckpt_dir))
            with pytest.raises(StateError, match="holds a vgae model, expected gae"):
                run(bad)

    def test_checkpoint_of_another_feature_width_is_refused(self, dataset_dir, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        config = tiny_config(dataset_dir, tmp_path / "out", seeds=(0,),
                             pretrain_ckpt=str(ckpt_dir))
        width = load_dataset(dataset_dir).x.shape[1]
        ckpt_dir.mkdir()
        save_checkpoint(init_model("gae", width + 1, seed=0), ckpt_dir / "pretrain_gae_seed0.json")
        with pytest.raises(StateError, match=f"expects {width + 1} input features, "
                                             f"dataset has {width}"):
            run(config)

    def test_gae_and_dgae_share_one_pretraining(self, dataset_dir, tmp_path, monkeypatch):
        calls = []
        real_pretrain = gaeclust.experiments.pretrain
        monkeypatch.setattr(gaeclust.experiments, "pretrain",
                            lambda *args: calls.append(args[0]) or real_pretrain(*args))
        shared = tmp_path / "shared"
        run(tiny_config(dataset_dir, tmp_path / "g", model="gae", rethink=True, seeds=(0,),
                        pretrain_ckpt=str(shared)))
        after_gae = run(tiny_config(dataset_dir, tmp_path / "d", rethink=True, seeds=(0,),
                                    pretrain_ckpt=str(shared)))
        assert len(calls) == 1 and calls[0].arch == "gae"
        assert [p.name for p in shared.glob("pretrain_*_seed0.json")] == \
            ["pretrain_gae_seed0.json"]
        fresh = run(tiny_config(dataset_dir, tmp_path / "f", rethink=True, seeds=(0,),
                                pretrain_ckpt=str(tmp_path / "fresh")))
        assert len(calls) == 2
        a, b = after_gae.data["per_seed"][0], fresh.data["per_seed"][0]
        assert load_checkpoint(b["checkpoint"]).arch == "dgae"
        assert a["pretrain_sha256"] == b["pretrain_sha256"]
        for key in ("edge_list", "checkpoint"):
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes(), key
        assert Path(a["edge_list"] + ".deleted").read_bytes() == \
            Path(b["edge_list"] + ".deleted").read_bytes()

        def trace(entry):
            lines = Path(entry["trace_csv"]).read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]  # wall_time is the last column

        assert trace(a) == trace(b)

    def test_unlabeled_dataset_reports_no_scores(self, dataset_dir, tmp_path):
        unlabeled = tmp_path / "nolabels"
        g = load_dataset(dataset_dir)
        save_dataset(g, unlabeled)
        (unlabeled / "labels.tsv").unlink()
        result = run(tiny_config(unlabeled, tmp_path / "out", seeds=(0,)))
        assert result.data["per_seed"][0]["acc"] is None
        assert result.data["best"] is None
        assert result.data["mean"] is None
        assert result.data["std"] is None

    def test_zero_noise_perturbation_changes_nothing_but_hash(self, dataset_dir, tmp_path):
        clean = run(tiny_config(dataset_dir, tmp_path / "clean"))
        noisy = run(tiny_config(dataset_dir, tmp_path / "noisy",
                                perturbation={"kind": "feature_gaussian_noise",
                                              "amount": 0.0, "seed": 0}))
        # noise of deviation 0 adds +0.0, so the digest stays, and with it the
        # clean cell's checkpoint name and bytes
        assert noisy.data["dataset"]["graph_sha256"] == clean.data["dataset"]["graph_sha256"]
        for a, b in zip(clean.data["per_seed"], noisy.data["per_seed"]):
            assert Path(b["pretrain_checkpoint"]).name == Path(a["pretrain_checkpoint"]).name == \
                f"pretrain_gae_seed{a['seed']}.json"
            assert b["pretrain_sha256"] == a["pretrain_sha256"]
        for a, b in zip(clean.data["per_seed"], noisy.data["per_seed"]):
            assert a["acc"] == b["acc"]
            assert a["nmi"] == b["nmi"]

    @pytest.fixture(scope="class")
    def one_cluster_dir(self, tmp_path_factory):
        base = planted_partition(20, 2, 0.8, 0.05, seed=42)
        path = tmp_path_factory.mktemp("k1") / "one"
        save_dataset(make_graph(20, base.edge_array(), labels=np.zeros(20, dtype=np.int64),
                                k_clusters=1), path)
        return path

    @pytest.mark.parametrize("model", ["gae", "vgae", "dgae"])
    def test_one_cluster_rethink_is_refused_before_pretraining(self, one_cluster_dir,
                                                               tmp_path, model):
        with pytest.raises(ConfigError, match="k_clusters >= 2"):
            run(tiny_config(one_cluster_dir, tmp_path / "out", model=model, rethink=True))
        assert not list((tmp_path / "out").glob("pretrain_*"))

    @pytest.mark.parametrize("changes", [
        dict(rethink=False), dict(rethink=True, ablation="no_xi"),
        dict(rethink=True, ablation="fr_correction_delay:3"),
    ], ids=["plain", "no_xi", "delay-at-the-cap"])
    def test_one_cluster_runs_without_xi_finish(self, one_cluster_dir, tmp_path, changes):
        result = run(tiny_config(one_cluster_dir, tmp_path / "out", seeds=(0,), **changes))
        assert result.data["per_seed"][0]["epochs_run"] == 3

    def test_train_joint_refuses_xi_on_one_cluster(self, one_cluster_dir):
        graph = load_dataset(one_cluster_dir)
        model = init_model("gae", graph.x.shape[1], seed=0)
        with pytest.raises(ConfigError, match="k_clusters >= 2"):
            train_joint(model, graph, TrainConfig(train_epochs=3, rethink=True))


def tiny_spec(dataset_dir, out, axes, **base):
    """A grid spec over tiny_config's settings, with base's changes."""
    return {"base": tiny_config(dataset_dir, out, **base).to_dict(), "axes": axes}


def run_spec(spec) -> dict:
    return run_cells(*grid_cells(spec))


def readme_grid_specs() -> list:
    """The ```json blocks of README.md's Grids section, parsed."""
    section = README.read_text().split("\n### Grids\n", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"^```json\n(.*?)^```", section, re.M | re.S)]


def relative_outs(cells, out) -> list:
    return [Path(c.out).relative_to(out).as_posix() for c in cells]


class TestGridAndRobustness:
    ABLATIONS = ["none", "no_xi", "no_alpha1", "no_alpha2", "no_add_edge", "no_drop_edge"]
    DROP = {"kind": "drop_random_edges", "amount": 500, "seed": 1}

    def test_readme_specs_give_the_old_verbs_cells_and_pairs(self):
        ablate, robustness = readme_grid_specs()
        # the cells `ablate --axes none,no_xi,...` and `robustness --grid '[null, DROP]'`
        # built from --dataset data/cora --model dgae (--rethink for ablate), in their order
        base = ExperimentConfig(dataset="data/cora", model="dgae")
        for spec, out, expected, dirs, pairs in [
                (ablate, "runs/abl",
                 [dataclasses.replace(base, rethink=True, ablation=name) for name in self.ABLATIONS],
                 [f"ablation-{name}" for name in self.ABLATIONS], []),
                (robustness, "runs/rob",
                 [dataclasses.replace(base, perturbation=graph, rethink=rethink)
                  for graph in (None, self.DROP) for rethink in (False, True)],
                 [f"perturbation-{tag}/rethink-{side}" for tag in ("clean",
                                                                   "drop_random_edges_500_s1")
                  for side in ("false", "true")], [(0, 1), (2, 3)])]:
            cells, grid_out = grid_cells(spec)
            assert grid_out == out
            assert [dataclasses.replace(c, out=base.out) for c in cells] == expected
            assert relative_outs(cells, out) == dirs
            assert pair_indices(cells) == pairs

    def test_axes_cross_in_spec_order_the_last_fastest(self):
        cells, out = grid_cells({"base": {"dataset": "d", "out": "g", "model": "gae"}, "axes": {
            "gamma": [0.001, 1], "seeds": [[0, 1], [2]], "ablation": ["no_xi", "fr_correction_delay:3"],
            "rethink": [True]}})
        assert out == "g"
        assert [(c.gamma, c.seeds, c.ablation) for c in cells] == list(itertools.product(
            [0.001, 1], [(0, 1), (2,)], ["no_xi", "fr_correction_delay:3"]))
        assert relative_outs(cells, out)[:3] == [
            "gamma-0.001/seeds-0,1/ablation-no_xi/rethink-true",
            "gamma-0.001/seeds-0,1/ablation-fr_correction_delay-3/rethink-true",
            "gamma-0.001/seeds-2/ablation-no_xi/rethink-true"]
        assert all(c.model == "gae" for c in cells)

    def test_a_spec_without_out_grids_under_the_default(self):
        cells, out = grid_cells({"base": {"dataset": "d"}, "axes": {"rethink": [False]}})
        assert out == ExperimentConfig(dataset="d").out
        assert relative_outs(cells, out) == ["rethink-false"]

    def test_ablation_grid_shares_pretraining(self, dataset_dir, tmp_path):
        payload = run_spec(tiny_spec(dataset_dir, tmp_path / "grid", {"ablation": ["none", "no_xi"]},
                                     seeds=(0,), rethink=True))
        assert payload["schema"] == "gaeclust/grid/v3"
        assert [cell["config"]["ablation"] for cell in payload["cells"]] == ["none", "no_xi"]
        for cell in payload["cells"]:
            assert cell["config"]["rethink"] is True
        assert payload["pairs"] == []  # every cell runs rethink
        sha0, sha1 = (cell["per_seed"][0]["pretrain_sha256"] for cell in payload["cells"])
        assert sha0 == sha1
        assert json.loads((tmp_path / "grid" / "results_grid.json").read_text()) == payload
        assert (tmp_path / "grid" / "ablation-no_xi" / "results.json").is_file()

    def test_ablation_grid_rejects_empty_axes(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError, match="at least one cell"):
            run_spec(tiny_spec(dataset_dir, tmp_path / "g", {"ablation": []}, rethink=True))

    @pytest.mark.parametrize("axes, message", [
        (["no_xi", "bogus"], "unknown ablation 'bogus'"),
        (["no_xi", "no_xi"], "repeat"),
    ], ids=["unknown-name", "repeated-name"])
    def test_ablation_grid_refuses_bad_axes_before_any_cell(self, dataset_dir, tmp_path,
                                                            monkeypatch, axes, message):
        monkeypatch.setattr(gaeclust.experiments, "pretrain",
                            lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError, match=message):
            run_spec(tiny_spec(dataset_dir, tmp_path / "g", {"ablation": axes}, rethink=True))
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("grid", [
        [{"kind": "drop_random_edges", "amount": 5}, {"kind": "drop_random_edges", "amount": 5.0}],
        [{"kind": "drop_random_edges", "amount": 5},
         {"kind": "drop_random_edges", "amount": 5, "seed": 0}],
        [None, None],
    ], ids=["5-and-5.0", "default-seed", "two-clean"])
    def test_robustness_refuses_repeated_cells(self, dataset_dir, tmp_path, monkeypatch, grid):
        monkeypatch.setattr(gaeclust.experiments, "pretrain",
                            lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError, match="repeats a cell"):
            run_spec(tiny_spec(dataset_dir, tmp_path / "r",
                               {"perturbation": grid, "rethink": [False, True]}))
        assert not (tmp_path / "r").exists()

    def test_the_empty_object_is_no_clean_graph(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError, match="perturbation spec missing keys"):
            grid_cells(tiny_spec(dataset_dir, tmp_path / "r", {"perturbation": [None, {}]}))

    def test_robustness_pairs_share_graph_and_pretraining(self, dataset_dir, tmp_path):
        payload = run_spec(tiny_spec(dataset_dir, tmp_path / "rob", {
            "perturbation": [None, {"kind": "drop_random_edges", "amount": 5, "seed": 1}],
            "rethink": [False, True]}, seeds=(0,)))
        assert payload["schema"] == "gaeclust/grid/v3"
        dirs = [Path(cell["config"]["out"]).relative_to(tmp_path / "rob").as_posix()
                for cell in payload["cells"]]
        assert dirs == ["perturbation-clean/rethink-false", "perturbation-clean/rethink-true",
                        "perturbation-drop_random_edges_5_s1/rethink-false",
                        "perturbation-drop_random_edges_5_s1/rethink-true"]
        assert [(pair["plain"], pair["rethink"]) for pair in payload["pairs"]] == [(0, 1), (2, 3)]
        clean, _, dropped, _ = payload["cells"]
        assert clean["dataset"]["graph_sha256"] != dropped["dataset"]["graph_sha256"]
        for pair in payload["pairs"]:
            d, rd = payload["cells"][pair["plain"]], payload["cells"][pair["rethink"]]
            assert d["config"]["rethink"] is False
            assert rd["config"]["rethink"] is True
            assert d["per_seed"][0]["pretrain_sha256"] == rd["per_seed"][0]["pretrain_sha256"]
            assert d["dataset"]["graph_sha256"] == rd["dataset"]["graph_sha256"]
        assert json.loads((tmp_path / "rob" / "results_grid.json").read_text()) == payload

    def test_zero_noise_cell_shares_the_clean_pretraining(self, dataset_dir, tmp_path,
                                                          monkeypatch):
        made = []
        real = gaeclust.experiments.save_checkpoint

        def spy(model, path):
            if Path(path).name.startswith("pretrain_"):
                made.append(Path(path).name)
            return real(model, path)
        monkeypatch.setattr(gaeclust.experiments, "save_checkpoint", spy)
        payload = run_spec(tiny_spec(dataset_dir, tmp_path / "r", {
            "perturbation": [None, {"kind": "feature_gaussian_noise", "amount": 0}],
            "rethink": [False, True]}, seeds=(0,)))
        assert made == ["pretrain_gae_seed0.json"]
        assert [p.name for p in (tmp_path / "r" / "pretrain").glob("*.json")] == made
        assert len({cell["per_seed"][0]["pretrain_sha256"] for cell in payload["cells"]}) == 1

    def test_robustness_rejects_empty_grid(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError, match="at least one cell"):
            run_spec(tiny_spec(dataset_dir, tmp_path / "r",
                               {"perturbation": [], "rethink": [False, True]}))

    def test_a_spec_run_twice_trains_once(self, dataset_dir, tmp_path, monkeypatch):
        spec = tiny_spec(dataset_dir, tmp_path / "g", {"rethink": [False, True]}, seeds=(0,))
        calls = []
        count_calls(monkeypatch, calls)
        first = run_spec(spec)
        assert [name for name, _ in calls] == ["pretrain"] + ["train_joint"] * 2
        calls.clear()
        assert run_spec(spec) == first and calls == []


def three_cells(dataset_dir, out):
    """A plain cell, its rethink pair and a no_xi ablation, in out/<name>."""
    base = tiny_config(dataset_dir, out, seeds=(0, 1))
    return [dataclasses.replace(base, out=str(out / name), **changes) for name, changes in
            [("d", {}), ("rd", {"rethink": True}), ("rd_no_xi", {"rethink": True,
                                                                  "ablation": "no_xi"})]]


def without_wall_times(obj):
    if isinstance(obj, dict):
        return {k: without_wall_times(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [without_wall_times(v) for v in obj]
    return obj


class Cut(Exception):
    """Stands in for an interruption of a grid."""


def count_calls(monkeypatch, calls, cut=None):
    """Record (name, cell out) of every pretrain and train_joint call run
    makes; train_joint raises Cut in the cell whose out is cut."""
    for name in ("pretrain", "train_joint"):
        def counted(model, graph, config, *args, real=getattr(gaeclust.experiments, name),
                    name=name, **kwargs):
            calls.append((name, Path(config.out).name))
            if name == "train_joint" and config.out == cut:
                raise Cut(config.out)
            return real(model, graph, config, *args, **kwargs)
        monkeypatch.setattr(gaeclust.experiments, name, counted)


def side(seed, acc, epochs, sha="a" * 64):
    """A hand-built per_seed entry of one side of a pair."""
    return {"seed": seed, "acc": acc, "epochs_run": epochs, "pretrain_sha256": sha,
            "stop_reason": "omega_converged" if epochs < 3 else "epoch_cap"}


class TestPair:
    CELLS = [ExperimentConfig(dataset="d", out="d"),
             ExperimentConfig(dataset="d", out="rd", rethink=True)]

    def test_a_seed_with_a_one_epoch_side_is_untested(self):
        plain = [side(0, 0.6, 3), side(1, 0.5, 1), side(2, 0.7, 3), side(3, 0.5, 3),
                 side(4, 0.6, 3)]
        rethink = [side(0, 0.8, 1), side(1, 0.9, 3), side(2, 0.75, 3), side(3, 0.4, 2),
                   side(4, 0.6, 3)]
        pair = _pair(self.CELLS, [{"per_seed": plain}, {"per_seed": rethink}], 0, 1)
        assert pair["per_seed"][0] == {
            "seed": 0, "plain_acc": 0.6, "rethink_acc": 0.8, "acc_delta": 0.8 - 0.6,
            "plain_stop_reason": "epoch_cap", "plain_epochs_run": 3,
            "rethink_stop_reason": "omega_converged", "rethink_epochs_run": 1, "tested": False}
        assert [e["tested"] for e in pair["per_seed"]] == [False, False, True, True, True]
        # seeds 0 and 1 gained most, but a one-epoch side tests nothing
        assert (pair["wins"], pair["losses"], pair["ties"], pair["untested"]) == (1, 1, 1, 2)
        assert pair["sign_test_p"] == 1.0
        assert pair["median_acc_delta"] == 0.0

    def test_no_tested_seed_gives_no_p_and_no_median(self):
        pair = _pair(self.CELLS, [{"per_seed": [side(0, 0.6, 200)]},
                                  {"per_seed": [side(0, 0.9, 1)]}], 0, 1)
        assert (pair["wins"], pair["losses"], pair["ties"], pair["untested"]) == (0, 0, 0, 1)
        assert pair["sign_test_p"] is None and pair["median_acc_delta"] is None

    def test_sides_from_two_checkpoints_are_refused(self):
        with pytest.raises(StateError, match="pretrain_sha256 at seed 0"):
            _pair(self.CELLS, [{"per_seed": [side(0, 0.6, 3)]},
                               {"per_seed": [side(0, 0.7, 3, sha="b" * 64)]}], 0, 1)

    @pytest.mark.parametrize("n", range(13))
    def test_sign_test_p_matches_brute_force(self, n):
        for wins in range(n + 1):
            losses = n - wins
            # two-sided: every sign vector at least as far from n/2 wins as the observed one
            extreme = sum(abs(2 * sum(signs) - n) >= abs(wins - losses)
                          for signs in itertools.product((0, 1), repeat=n))
            assert _sign_test_p(wins, losses) == (extreme / 2 ** n if n else None)


class TestRunCells:
    def test_record_pairs_plain_and_rethink_cells(self, dataset_dir, tmp_path):
        record = run_cells(three_cells(dataset_dir, tmp_path / "g"), tmp_path / "g")
        assert record["schema"] == "gaeclust/grid/v3"
        assert [Path(c["results"]).parent.name for c in record["cells"]] == ["d", "rd", "rd_no_xi"]
        for cell in record["cells"]:
            results = json.loads(Path(cell["results"]).read_text())
            assert {k: results[k] for k in cell if k != "results"} == {
                k: v for k, v in cell.items() if k != "results"}
            assert cell["config"]["pretrain_ckpt"] == str(tmp_path / "g" / "pretrain")
            assert cell["dataset"]["graph_sha256"] == graph_hash(load_dataset(dataset_dir))
        (pair,) = record["pairs"]  # rd_no_xi differs from d in its ablation too
        assert (pair["plain"], pair["rethink"]) == (0, 1)
        d, rd = record["cells"][0]["per_seed"], record["cells"][1]["per_seed"]
        assert pair["per_seed"] == [
            {"seed": a["seed"], "plain_acc": a["acc"], "rethink_acc": b["acc"],
             "acc_delta": b["acc"] - a["acc"], "plain_stop_reason": a["stop_reason"],
             "plain_epochs_run": a["epochs_run"], "rethink_stop_reason": b["stop_reason"],
             "rethink_epochs_run": b["epochs_run"],
             "tested": min(a["epochs_run"], b["epochs_run"]) >= 2} for a, b in zip(d, rd)]
        deltas = [e["acc_delta"] for e in pair["per_seed"] if e["tested"]]
        assert (pair["wins"], pair["losses"], pair["ties"]) == (
            sum(x > 0 for x in deltas), sum(x < 0 for x in deltas), sum(x == 0 for x in deltas))
        assert pair["wins"] + pair["losses"] + pair["ties"] + pair["untested"] == 2
        assert pair["median_acc_delta"] == (float(np.median(deltas)) if deltas else None)

    def test_a_cut_grid_resumes_without_rerunning_finished_cells(self, dataset_dir, tmp_path,
                                                                  monkeypatch):
        out = tmp_path / "g"
        cells = three_cells(dataset_dir, out)
        whole = run_cells(cells, out)
        shutil.rmtree(out)
        calls = []
        count_calls(monkeypatch, calls, cut=cells[2].out)
        with pytest.raises(Cut):
            run_cells(cells, out)
        assert not (out / "results_grid.json").exists()
        assert not (out / "rd_no_xi" / "results.json").exists()
        calls.clear()
        monkeypatch.undo()
        count_calls(monkeypatch, calls)
        resumed = run_cells(cells, out)
        # the two finished cells make no call; the cut one reuses their pretraining
        assert calls == [("train_joint", "rd_no_xi")] * 2
        assert without_wall_times(resumed) == without_wall_times(whole)
        assert json.loads((out / "results_grid.json").read_text()) == resumed
        calls.clear()
        assert run_cells(cells, out) == resumed and calls == []

    def test_a_finished_v1_cell_is_read_back(self, dataset_dir, tmp_path, monkeypatch):
        out = tmp_path / "g"
        cells = three_cells(dataset_dir, out)[:2]
        whole = run_cells(cells, out)
        for cell in cells:  # as the v1 schema wrote it
            results = Path(cell.out) / "results.json"
            data = json.loads(results.read_text())
            data["schema"] = "gaeclust/results/v1"
            for entry in data["per_seed"]:
                del entry["best_epoch_acc"]
                entry["perturbation_sha256"] = None
            write_json_atomic(results, data)
        monkeypatch.setattr(gaeclust.experiments, "train_joint", lambda *a, **k: pytest.fail("ran"))
        assert run_cells(cells, out)["pairs"] == whole["pairs"]

    @pytest.mark.parametrize("change", ["config", "graph-digest", "kernel-set",
                                        "checkpoint-bytes", "checkpoint-gone"])
    def test_a_changed_finished_cell_is_refused(self, dataset_dir, tmp_path, monkeypatch,
                                                change):
        out = tmp_path / "g"
        cells = three_cells(dataset_dir, out)[:2]
        run_cells(cells, out)
        results = out / "rd" / "results.json"
        data = json.loads(results.read_text())
        checkpoint = Path(data["per_seed"][1]["pretrain_checkpoint"])
        if change == "config":
            data["config"]["gamma"] = 0.5
        elif change == "graph-digest":
            data["dataset"]["graph_sha256"] = "0" * 64
        elif change == "kernel-set":
            data["environment"]["numpy_simd"] = ["SSE"]
        elif change == "checkpoint-bytes":
            checkpoint.write_text(checkpoint.read_text() + " ")
        else:
            checkpoint.unlink()
        write_json_atomic(results, data)
        before = {path: path.read_bytes() for path in out.rglob("*.json")}
        monkeypatch.setattr(gaeclust.experiments, "pretrain", lambda *a: pytest.fail("ran"))
        monkeypatch.setattr(gaeclust.experiments, "train_joint", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(StateError, match="delete"):
            run_cells(cells, out)
        assert {path: path.read_bytes() for path in out.rglob("*.json")} == before

    @pytest.mark.parametrize("perturbations", [
        [{"kind": "drop_random_edges", "amount": 5}, {"kind": "drop_random_edges", "amount": 5.0}],
        [{"kind": "drop_random_edges", "amount": 5},
         {"kind": "drop_random_edges", "amount": 5, "seed": 0}],
        [None, None],
    ], ids=["5-and-5.0", "default-seed", "two-clean"])
    def test_repeated_cells_are_refused_before_any_is_written(self, dataset_dir, tmp_path,
                                                              monkeypatch, perturbations):
        monkeypatch.setattr(gaeclust.experiments, "pretrain", lambda *a: pytest.fail("ran"))
        cells = [tiny_config(dataset_dir, tmp_path / "g" / str(i), perturbation=spec)
                 for i, spec in enumerate(perturbations)]
        with pytest.raises(ConfigError, match="repeats a cell"):
            run_cells(cells, tmp_path / "g")
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("change", [{"lr": 0.02}, {"pretrain_epochs": 6}],
                             ids=["lr", "pretrain-epochs"])
    def test_cells_that_need_one_checkpoint_pretrained_twice_are_refused(
            self, dataset_dir, tmp_path, monkeypatch, change):
        monkeypatch.setattr(gaeclust.experiments, "pretrain", lambda *a: pytest.fail("ran"))
        base = tiny_config(dataset_dir, tmp_path / "g" / "a")
        cells = [base, dataclasses.replace(base, out=str(tmp_path / "g" / "b"), **change)]
        with pytest.raises(ConfigError, match="pretrain_gae_seed0.json"):
            run_cells(cells, tmp_path / "g")
        assert not (tmp_path / "g").exists()

    def test_a_stale_checkpoint_is_refused_before_any_cell_runs(self, dataset_dir, tmp_path,
                                                                  monkeypatch):
        out = tmp_path / "g"
        pretrain_only(tiny_config(dataset_dir, out, seeds=(1,), pretrain_epochs=4,
                                  pretrain_ckpt=str(out / "pretrain")))
        monkeypatch.setattr(gaeclust.experiments, "pretrain", lambda *a: pytest.fail("ran"))
        with pytest.raises(StateError, match="pretrain_gae_seed1.json was pretrained with"):
            run_cells(three_cells(dataset_dir, out), out)
        assert [p.name for p in out.iterdir()] == ["pretrain"]

    def test_cells_of_one_provenance_share_one_checkpoint(self, dataset_dir, tmp_path,
                                                          monkeypatch):
        out, calls = tmp_path / "g", []
        count_calls(monkeypatch, calls)
        base = tiny_config(dataset_dir, out, model="gae")
        cells = [dataclasses.replace(base, out=str(out / name), **changes) for name, changes in
                 [("gae", {}), ("dgae", {"model": "dgae"}),
                  ("rdgae", {"model": "dgae", "rethink": True})]]
        record = run_cells(cells, out)
        assert [c for c in calls if c[0] == "pretrain"] == [("pretrain", "gae")] * 2
        for cell in record["cells"]:
            assert [e["pretrain_checkpoint"] for e in cell["per_seed"]] == [
                str(out / "pretrain" / f"pretrain_gae_seed{seed}.json") for seed in (0, 1)]

    def test_cells_in_one_directory_are_refused(self, dataset_dir, tmp_path):
        cells = [tiny_config(dataset_dir, tmp_path / "g" / "c", rethink=rethink)
                 for rethink in (False, True)]
        with pytest.raises(ConfigError, match="repeats a cell"):
            run_cells(cells, tmp_path / "g")
        assert not (tmp_path / "g").exists()

    def test_one_directory_under_two_spellings_is_refused(self, dataset_dir, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        cells = [tiny_config(dataset_dir, out, gamma=gamma)
                 for out, gamma in [("g/a", 0.001), (tmp_path / "g" / "a", 0.5)]]
        with pytest.raises(ConfigError, match="repeats a cell"):
            run_cells(cells, "g")
        assert list(tmp_path.iterdir()) == []

    def test_a_perturbation_that_cannot_apply_stops_the_grid_before_any_cell(self, dataset_dir,
                                                                             tmp_path):
        cells = [tiny_config(dataset_dir, tmp_path / "g" / name, perturbation=spec)
                 for name, spec in [("clean", None),
                                    ("all", {"kind": "drop_random_edges", "amount": 10 ** 6})]]
        with pytest.raises(RangeError, match="cannot drop"):
            run_cells(cells, tmp_path / "g")
        assert not (tmp_path / "g").exists()

    def test_an_empty_grid_is_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one cell"):
            run_cells([], tmp_path / "g")


class TestExportEmbeddings:
    def test_tsv_round_trips_embedding(self, dataset_dir, tmp_path):
        config = tiny_config(dataset_dir, tmp_path / "out", seeds=(0,))
        result = run(config)
        ckpt = result.data["per_seed"][0]["checkpoint"]
        out = export_embeddings(ckpt, dataset_dir, tmp_path / "emb.tsv")
        lines = Path(out).read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "node"
        assert header[-1] == "label"
        assert len(lines) == 21
        graph = load_dataset(dataset_dir)
        model = load_checkpoint(ckpt)
        z, _ = encode(model, normalize_adjacency(graph, "propagation"),
                      graph.x)
        row0 = lines[1].split("\t")
        assert np.array_equal(np.array([float(v) for v in row0[1:-1]]), z[0])
        assert int(row0[-1]) == int(graph.labels[0])

    def test_tsv_holds_the_runs_final_embedding(self, tmp_path):
        # bag-of-words features, which the run encodes as CSR; at 1000 words
        # their dense product rounds differently
        base = planted_partition(40, 2, 0.4, 0.05, seed=3)
        words = (np.random.default_rng(3).random((40, 1000)) < 0.05).astype(np.float64)
        save_dataset(make_graph(40, base.edge_array(), features=words, labels=base.labels,
                                k_clusters=2), tmp_path / "bow")
        graph = load_dataset(tmp_path / "bow")
        assert sp.issparse(graph.x)
        model = pretrain(init_model("gae", 1000, seed=0), graph, TrainConfig(pretrain_epochs=20))
        model, _, info = train_joint(model, graph, TrainConfig(train_epochs=3))
        save_checkpoint(model, tmp_path / "final.json")
        out = export_embeddings(tmp_path / "final.json", tmp_path / "bow", tmp_path / "emb.tsv")
        rows = [line.split("\t") for line in Path(out).read_text().splitlines()[1:]]
        z = np.array([[float(v) for v in row[1:-1]] for row in rows])
        assert np.array_equal(z, info["embedding"])

    def test_a_run_never_builds_the_dense_features(self, tmp_path, monkeypatch):
        # every reader of X takes graph.x: pretraining, the clustering loop,
        # its diagnostics, graph_hash, the checkpoint checks and the export
        base = planted_partition(40, 2, 0.4, 0.05, seed=3)
        words = (np.random.default_rng(3).random((40, 300)) < 0.05).astype(np.float64)
        save_dataset(make_graph(40, base.edge_array(), features=words, labels=base.labels,
                                k_clusters=2), tmp_path / "bow")

        def no_dense(graph):
            raise AssertionError("the dense features were built")
        monkeypatch.setattr(gaeclust.graphio.AttributedGraph, "features", property(no_dense))
        config = ExperimentConfig(dataset=str(tmp_path / "bow"), out=str(tmp_path / "runs"),
                                  model="dgae", rethink=True, seeds=(0,), pretrain_epochs=2,
                                  train_epochs=2, m1=1, m2=1)
        result = run(config)
        run(config)  # the shared pretraining checkpoint is checked and reused
        export_embeddings(result.data["per_seed"][0]["checkpoint"], tmp_path / "bow",
                          tmp_path / "emb.tsv")

    @pytest.mark.parametrize("labelled", [True, False])
    def test_bytes_equal_a_per_row_repr_writer(self, tmp_path, labelled):
        base = planted_partition(30, 3, 0.5, 0.05, seed=5)
        graph = make_graph(30, base.edge_array(), features=base.x,
                           labels=base.labels if labelled else None, k_clusters=3)
        save_dataset(graph, tmp_path / "data")
        model = pretrain(init_model("vgae", graph.x.shape[1], seed=1), graph,
                         TrainConfig(pretrain_epochs=3))
        save_checkpoint(model, tmp_path / "m.json")
        out = export_embeddings(tmp_path / "m.json", tmp_path / "data", tmp_path / "emb.tsv")
        z, _ = encode(model, normalize_adjacency(graph, "propagation"), graph.x)
        # the oracle: one line per node, each entry formatted on its own
        lines = ["\t".join(["node"] + [f"z{j}" for j in range(z.shape[1])]
                           + (["label"] if labelled else []))]
        for i in range(z.shape[0]):
            row = [str(i)] + [repr(float(v)) for v in z[i]]
            if labelled:
                row.append(str(int(graph.labels[i])))
            lines.append("\t".join(row))
        assert Path(out).read_text() == "\n".join(lines) + "\n"

    def test_in_dim_mismatch(self, dataset_dir, tmp_path):
        model = init_model("gae", 99, seed=0)
        save_checkpoint(model, tmp_path / "m.json")
        with pytest.raises(StateError, match="input features"):
            export_embeddings(tmp_path / "m.json", dataset_dir, tmp_path / "e.tsv")


class TestVerifyTheory:
    def test_residuals_and_gradients_tiny(self):
        out = verify_theory(n_instances=10, seed=0)
        assert out["instances"] == 10
        assert all(v < 1e-10 for v in out["residuals"].values())
        assert set(out["grad_checks"]) == {
            "recon_plain", "recon_pos_weighted", "kmeans_embed",
            "kl_z", "kl_centers", "vgae_kl_mu", "vgae_kl_logstd",
        }
        assert all(v < 1e-5 for v in out["grad_checks"].values())
