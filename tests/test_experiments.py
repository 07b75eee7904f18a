"""Experiment harness: configs, multi-seed runs, grids, robustness."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import gaeclust
from gaeclust import (
    ConfigError,
    ExperimentConfig,
    StateError,
    TrainConfig,
    encode,
    export_embeddings,
    graph_hash,
    init_model,
    load_checkpoint,
    load_dataset,
    make_graph,
    normalize_adjacency,
    perturb_graph,
    pretrain,
    pretrain_only,
    run,
    run_ablation_grid,
    run_robustness,
    save_checkpoint,
    save_dataset,
    sha256_file,
    train_joint,
    verify_theory,
    write_json_atomic,
)

from gaeclust.models import feature_operand

from conftest import planted_partition

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
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{"dataset": "d", **kwargs})

    def test_run_tags(self):
        assert ExperimentConfig(dataset="d").run_tag(0) == "dgae_seed0"
        assert ExperimentConfig(dataset="d", rethink=True).run_tag(1) == "dgae_r_seed1"
        cfg = ExperimentConfig(dataset="d", rethink=True, ablation="fr_correction_delay:5")
        assert cfg.run_tag(0) == "dgae_r_fr_correction_delay-5_seed0"

    def test_pretrain_name_shared_across_regimes(self):
        base = ExperimentConfig(dataset="d", rethink=False)
        rethink = ExperimentConfig(dataset="d", rethink=True, ablation="no_xi")
        assert base.pretrain_name(0, None) == rethink.pretrain_name(0, None)
        # keyed by encoder: dgae pretrains the gae encoder
        assert base.pretrain_name(0, "cafe" * 16) == "pretrain_gae_pcafecafe_seed0.json"
        names = {m: ExperimentConfig(dataset="d", model=m).pretrain_name(1, None)
                 for m in ("gae", "vgae", "dgae")}
        assert names == {"gae": "pretrain_gae_seed1.json", "vgae": "pretrain_vgae_seed1.json",
                         "dgae": "pretrain_gae_seed1.json"}

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dataset": "d", "model": "gae", "train_epochs": 7}))
        cfg = ExperimentConfig.from_file(path, {"model": "vgae", "train_epochs": None})
        assert cfg.model == "vgae"          # non-None override wins
        assert cfg.train_epochs == 7        # None override falls back to file

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
        for entry in result.per_seed:
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


class TestPublicSurface:
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
        # diagnostics stopped importing kmeans_grad_z; that span is known to read zero
        stale = {("diagnostics", "kmeans_grad_z")}
        missing = []
        for module, attr, _ in spans.PATCHES:
            owner = importlib.import_module(f"gaeclust.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if owner is None and (module, attr) not in stale:
                missing.append((module, attr))
        assert missing == []


class TestGraphHash:
    def test_sensitive_to_content(self, blobs2):
        base = graph_hash(blobs2)
        assert base == graph_hash(blobs2)
        dropped = perturb_graph(blobs2, "drop_random_edges", 1, seed=0)
        assert graph_hash(dropped) != base
        noisy = perturb_graph(blobs2, "feature_gaussian_noise", 0.1, seed=0)
        assert graph_hash(noisy) != base

    def test_bytes_match_copying_hash(self, blobs2):
        """graph_hash hashes the arrays in place; the digest is the one of
        their .tobytes() copies."""
        import hashlib

        def copying_hash(g):
            h = hashlib.sha256()
            h.update(np.int64(g.n_nodes).tobytes())
            h.update(g.edge_array().tobytes())
            h.update(np.ascontiguousarray(g.features, dtype=np.float64).tobytes())
            if g.labels is None:
                h.update(b"no-labels")
            else:
                h.update(np.ascontiguousarray(g.labels, dtype=np.int64).tobytes())
            h.update(np.int64(g.k_clusters).tobytes())
            return h.hexdigest()

        fortran = dataclasses.replace(blobs2, features=np.asfortranarray(blobs2.features),
                                      labels=blobs2.labels.astype(np.int32))
        unlabelled = dataclasses.replace(blobs2, labels=None)
        for g in (blobs2, fortran, unlabelled):
            assert graph_hash(g) == copying_hash(g)
        assert graph_hash(fortran) == graph_hash(blobs2)

    def test_cora_like_digests(self, tmp_path, monkeypatch):
        """The digests of the seed-0 Cora-like dataset of benchmarks/gen.py
        and of two edge perturbations of it: saved pretraining checkpoints
        name these, and the edge bytes are those of the sp.triu +
        lexsort edge array graph_hash once read."""
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
            "base": "857b2448179a8cb26fee275467867175c50af404b0f56a5020e12e9e95e8c98f",
            "add": "e82c637b4aabfc7f6a7e6619841e2db139d74aaa694f91d83d4a156bac6cdebe",
            "drop": "b85475a4bde39a7a5d8aa65efe96510cc55f6aeb84da89d43587e6014569c674",
        }

        def triu_edge_array(self):
            coo = sp.triu(self.adjacency, k=1).tocoo()
            pairs = np.stack([coo.row, coo.col], axis=1)
            return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        assert g.edge_array().dtype == np.int32
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
        assert data["schema"] == "gaeclust/results/v1"
        assert data["mode"] == "cluster"
        assert data["dataset"]["n_nodes"] == 20
        assert len(result.per_seed) == 2
        for entry in result.per_seed:
            assert entry["stop_reason"] in ("epoch_cap", "omega_converged")
            assert Path(entry["trace_csv"]).is_file()
            assert Path(entry["edge_list"]).is_file()
            assert Path(entry["checkpoint"]).is_file()
            assert Path(entry["pretrain_checkpoint"]).is_file()
            assert entry["pretrain_sha256"] == sha256_file(entry["pretrain_checkpoint"])
        assert json.loads(Path(result.path).read_text()) == data
        # aggregate math
        accs = [e["acc"] for e in result.per_seed]
        assert result.mean["acc"] == pytest.approx(float(np.mean(accs)))
        assert result.std["acc"] == pytest.approx(float(np.std(accs)))
        top = max(result.per_seed, key=lambda e: (e["acc"], e["nmi"], e["ari"]))
        assert result.best == {k: top[k] for k in ("seed", "acc", "nmi", "ari")}

    def test_environment_block(self, dataset_dir, tmp_path):
        env = run(tiny_config(dataset_dir, tmp_path / "out")).data["environment"]
        assert set(env) == {"gaeclust", "python", "numpy", "scipy", "blas", "blas_core",
                            "numpy_simd", "blas_threads", "nproc", "pair_sweep_workers",
                            "peak_rss_mb"}
        assert env["gaeclust"] == gaeclust.__version__
        for key in ("python", "numpy", "scipy", "blas"):
            assert isinstance(env[key], str) and env[key]
        assert env["blas_core"] == gaeclust.models.blas_core()
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
        assert result.per_seed[0]["pretrain_sha256"] == stored
        again = pretrain_only(config)
        assert again["checkpoints"][0]["sha256"] == stored

    @pytest.mark.parametrize("change", ["pretrain_epochs", "lr", "dataset"])
    def test_stale_checkpoint_is_refused(self, dataset_dir, tmp_path, change):
        ckpt_dir = tmp_path / "ckpt"
        pretrain_only(tiny_config(dataset_dir, tmp_path / "a", seeds=(0,),
                                  pretrain_ckpt=str(ckpt_dir)))
        if change == "dataset":
            # same size and feature width, one edge fewer
            g = load_dataset(dataset_dir)
            save_dataset(make_graph(g.n_nodes, g.edge_array()[1:], features=g.features,
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
        # rename the vgae checkpoint where gae and dgae runs expect theirs
        src = ckpt_dir / "pretrain_vgae_seed0.json"
        src.replace(ckpt_dir / "pretrain_gae_seed0.json")
        for model in ("gae", "dgae"):
            bad = tiny_config(dataset_dir, tmp_path / model, model=model, seeds=(0,),
                              pretrain_ckpt=str(ckpt_dir))
            with pytest.raises(StateError, match="holds a vgae model, expected gae"):
                run(bad)

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
        a, b = after_gae.per_seed[0], fresh.per_seed[0]
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
        assert result.per_seed[0]["acc"] is None
        assert result.best is None
        assert result.mean is None
        assert result.std is None

    def test_zero_noise_perturbation_changes_nothing_but_hash(self, dataset_dir, tmp_path):
        clean = run(tiny_config(dataset_dir, tmp_path / "clean"))
        noisy = run(tiny_config(dataset_dir, tmp_path / "noisy",
                                perturbation={"kind": "feature_gaussian_noise",
                                              "amount": 0.0, "seed": 0}))
        assert noisy.per_seed[0]["perturbation_sha256"] is not None
        assert clean.per_seed[0]["perturbation_sha256"] is None
        for a, b in zip(clean.per_seed, noisy.per_seed):
            assert a["acc"] == b["acc"]
            assert a["nmi"] == b["nmi"]


class TestGridAndRobustness:
    def test_ablation_grid_shares_pretraining(self, dataset_dir, tmp_path):
        base = tiny_config(dataset_dir, tmp_path / "grid", seeds=(0,))
        payload = run_ablation_grid(base, ["none", "no_xi"])
        assert payload["schema"] == "gaeclust/ablation-grid/v1"
        assert set(payload["cells"]) == {"none", "no_xi"}
        for name, cell in payload["cells"].items():
            assert cell["config"]["rethink"] is True
            assert cell["config"]["ablation"] == name
        sha0 = payload["cells"]["none"]["per_seed"][0]["pretrain_sha256"]
        sha1 = payload["cells"]["no_xi"]["per_seed"][0]["pretrain_sha256"]
        assert sha0 == sha1
        assert (tmp_path / "grid" / "results_grid.json").is_file()
        assert (tmp_path / "grid" / "ablate_no_xi" / "results.json").is_file()

    def test_ablation_grid_rejects_empty_axes(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError):
            run_ablation_grid(tiny_config(dataset_dir, tmp_path / "g"), [])

    @pytest.mark.parametrize("axes, message", [
        (["no_xi", "bogus"], "unknown ablation 'bogus'"),
        (["no_xi", "no_xi"], "repeat"),
    ], ids=["unknown-name", "repeated-name"])
    def test_ablation_grid_refuses_bad_axes_before_any_cell(self, dataset_dir, tmp_path,
                                                            monkeypatch, axes, message):
        monkeypatch.setattr(gaeclust.experiments, "pretrain",
                            lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError, match=message):
            run_ablation_grid(tiny_config(dataset_dir, tmp_path / "g"), axes)
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("grid", [
        [{"kind": "drop_random_edges", "amount": 5}, {"kind": "drop_random_edges", "amount": 5.0}],
        [{"kind": "drop_random_edges", "amount": 5},
         {"kind": "drop_random_edges", "amount": 5, "seed": 0}],
        [None, {}],
    ], ids=["5-and-5.0", "default-seed", "two-clean"])
    def test_robustness_refuses_repeated_cells(self, dataset_dir, tmp_path, monkeypatch, grid):
        monkeypatch.setattr(gaeclust.experiments, "pretrain",
                            lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ConfigError, match="repeats a cell"):
            run_robustness(tiny_config(dataset_dir, tmp_path / "r"), grid)
        assert not (tmp_path / "r").exists()

    def test_robustness_pairs_share_graph_and_pretraining(self, dataset_dir, tmp_path):
        base = tiny_config(dataset_dir, tmp_path / "rob", seeds=(0,))
        payload = run_robustness(base, [None, {"kind": "drop_random_edges",
                                               "amount": 5, "seed": 1}])
        assert payload["schema"] == "gaeclust/robustness/v1"
        tags = [cell["tag"] for cell in payload["cells"]]
        assert tags == ["clean", "drop_random_edges_5_s1"]
        clean, dropped = payload["cells"]
        assert clean["perturbation_sha256"] is None
        assert dropped["perturbation_sha256"] is not None
        for cell in payload["cells"]:
            assert cell["baseline"]["config"]["rethink"] is False
            assert cell["rethink"]["config"]["rethink"] is True
            d = cell["baseline"]["per_seed"][0]
            rd = cell["rethink"]["per_seed"][0]
            assert d["pretrain_sha256"] == rd["pretrain_sha256"]
            assert d["perturbation_sha256"] == rd["perturbation_sha256"]
        assert (tmp_path / "rob" / "results_robustness.json").is_file()

    def test_robustness_rejects_empty_grid(self, dataset_dir, tmp_path):
        with pytest.raises(ConfigError):
            run_robustness(tiny_config(dataset_dir, tmp_path / "r"), [])


class TestExportEmbeddings:
    def test_tsv_round_trips_embedding(self, dataset_dir, tmp_path):
        config = tiny_config(dataset_dir, tmp_path / "out", seeds=(0,))
        result = run(config)
        ckpt = result.per_seed[0]["checkpoint"]
        out = export_embeddings(ckpt, dataset_dir, tmp_path / "emb.tsv")
        lines = Path(out).read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "node"
        assert header[-1] == "label"
        assert len(lines) == 21
        graph = load_dataset(dataset_dir)
        model = load_checkpoint(ckpt)
        z, _ = encode(model, normalize_adjacency(graph, "propagation"),
                      feature_operand(graph.features))
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
        assert sp.issparse(feature_operand(graph.features))
        model = pretrain(init_model("gae", 1000, seed=0), graph, TrainConfig(pretrain_epochs=20))
        model, _, info = train_joint(model, graph, TrainConfig(train_epochs=3))
        save_checkpoint(model, tmp_path / "final.json")
        out = export_embeddings(tmp_path / "final.json", tmp_path / "bow", tmp_path / "emb.tsv")
        rows = [line.split("\t") for line in Path(out).read_text().splitlines()[1:]]
        z = np.array([[float(v) for v in row[1:-1]] for row in rows])
        assert np.array_equal(z, info["embedding"])

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
