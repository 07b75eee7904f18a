"""Command line interface wiring."""

import csv
import dataclasses
import json
import re
import shutil

import pytest

from gaeclust import ExperimentConfig, save_dataset
from gaeclust.cli import _CONFIG_FLAG_KEYS, _config_from_args, build_parser, main

from conftest import planted_partition


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    save_dataset(planted_partition(20, 2, 0.8, 0.05, seed=42), root / "blobs")
    return root / "blobs"


def run_cli(*argv):
    return main(list(argv))


def assert_one_error_line(code, capsys, *words):
    err = capsys.readouterr().err
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for word in words:
        assert word in lines[0]


class TestClusterVerb:
    def test_end_to_end(self, dataset_dir, tmp_path, capsys):
        code = run_cli("cluster", "--dataset", str(dataset_dir),
                       "--model", "dgae", "--rethink",
                       "--out", str(tmp_path / "out"),
                       "--seed", "0", "--pretrain-epochs", "5",
                       "--train-epochs", "3", "--m1", "2", "--m2", "2",
                       "--diag-stride", "10")
        captured = capsys.readouterr()
        assert code == 0
        assert "seed 0:" in captured.out
        assert "acc=" in captured.out
        assert "best:" in captured.out
        assert (tmp_path / "out" / "results.json").is_file()

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_writes_one_record_per_run(self, dataset_dir, tmp_path, labeled):
        data_dir = dataset_dir
        if not labeled:
            data_dir = tmp_path / "nolabels"
            shutil.copytree(dataset_dir, data_dir)
            (data_dir / "labels.tsv").unlink()
        out = tmp_path / "out"
        code = run_cli("cluster", "--dataset", str(data_dir), "--model", "gae", "--rethink",
                       "--out", str(out), "--pretrain-ckpt", str(tmp_path / "ckpt"),
                       "--seeds", "0,1", "--pretrain-epochs", "3", "--train-epochs", "3",
                       "--m1", "2", "--m2", "2", "--diag-stride", "10")
        assert code == 0
        tags = [f"gae_r_seed{seed}" for seed in (0, 1)]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["results.json"] + [name for tag in tags for name in (
                f"trace_{tag}.csv", f"edges_{tag}.tsv", f"edges_{tag}.tsv.deleted",
                f"model_{tag}.json", f"model_{tag}.json.f8")])
        for entry in json.loads((out / "results.json").read_text())["per_seed"]:
            with open(entry["trace_csv"], newline="") as fh:
                accs = [float(row["acc_all"]) for row in csv.DictReader(fh) if row["acc_all"]]
            assert entry["best_epoch_acc"] == (max(accs) if labeled else None)
            assert bool(accs) is labeled

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path, capsys):
        cfg = {"dataset": str(dataset_dir), "model": "gae", "seeds": [0],
               "pretrain_epochs": 4, "train_epochs": 2, "diag_stride": 10,
               "out": str(tmp_path / "file_out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("cluster", "--config", str(cfg_path),
                       "--out", str(tmp_path / "flag_out"))
        assert code == 0
        assert (tmp_path / "flag_out" / "results.json").is_file()
        assert not (tmp_path / "file_out").exists()
        data = json.loads((tmp_path / "flag_out" / "results.json").read_text())
        assert data["config"]["model"] == "gae"

    def test_seeds_list_flag(self, dataset_dir, tmp_path):
        code = run_cli("cluster", "--dataset", str(dataset_dir),
                       "--model", "gae", "--seeds", "0,1",
                       "--out", str(tmp_path / "out"),
                       "--pretrain-epochs", "3", "--train-epochs", "2",
                       "--diag-stride", "10")
        assert code == 0
        data = json.loads((tmp_path / "out" / "results.json").read_text())
        assert [e["seed"] for e in data["per_seed"]] == [0, 1]

    def test_missing_dataset_is_config_error(self, capsys):
        code = run_cli("cluster", "--model", "gae")
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_bad_seeds_value(self, dataset_dir, capsys):
        code = run_cli("cluster", "--dataset", str(dataset_dir), "--seeds", "0,x")
        assert code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_negative_epoch_count(self, dataset_dir, tmp_path, capsys):
        code = run_cli("cluster", "--dataset", str(dataset_dir), "--out", str(tmp_path / "out"),
                       "--train-epochs", "-1")
        assert_one_error_line(code, capsys, "train_epochs")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--seeds=-1", "--seeds=0,-1", "--seed=-1"])
    def test_negative_seed(self, dataset_dir, tmp_path, capsys, flag):
        code = run_cli("cluster", "--dataset", str(dataset_dir), "--out", str(tmp_path / "out"),
                       "--pretrain-epochs", "1", "--train-epochs", "1", flag)
        assert_one_error_line(code, capsys, "seeds")
        assert not (tmp_path / "out").exists()

    def test_bad_perturbation_json(self, dataset_dir, capsys):
        code = run_cli("cluster", "--dataset", str(dataset_dir),
                       "--perturbation", "{kind:")
        assert code == 2
        assert "JSON" in capsys.readouterr().err


class TestPretrainVerb:
    def test_writes_manifest(self, dataset_dir, tmp_path, capsys):
        code = run_cli("pretrain", "--dataset", str(dataset_dir),
                       "--model", "gae", "--seed", "0",
                       "--out", str(tmp_path / "ckpt"), "--pretrain-epochs", "3")
        assert code == 0
        assert "sha256=" in capsys.readouterr().out
        assert (tmp_path / "ckpt" / "pretrain_manifest_gae.json").is_file()
        assert (tmp_path / "ckpt" / "pretrain_gae_seed0.json").is_file()

    def test_null_perturbation_flag_beats_the_config_file(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dataset": str(dataset_dir), "model": "gae", "pretrain_epochs": 1,
            "perturbation": {"kind": "drop_random_edges", "amount": 10}}))
        out = tmp_path / "ckpt"
        code = run_cli("pretrain", "--config", str(config), "--seed", "0", "--out", str(out),
                       "--perturbation", "null")
        assert code == 0
        assert [p.name for p in out.glob("pretrain_gae_*.json")] == ["pretrain_gae_seed0.json"]
        manifest = json.loads((out / "pretrain_manifest_gae.json").read_text())
        assert manifest["config"]["perturbation"] is None

    def test_negative_zero_noise_runs(self, dataset_dir, tmp_path, capsys):
        code = run_cli("pretrain", "--dataset", str(dataset_dir), "--model", "gae",
                       "--seed", "0", "--out", str(tmp_path / "ckpt"), "--pretrain-epochs", "1",
                       "--perturbation", '{"kind": "feature_gaussian_noise", "amount": -0.0}')
        assert code == 0
        assert "sha256=" in capsys.readouterr().out

    @pytest.mark.parametrize("amount", [
        "NaN", "Infinity", "-Infinity",
        pytest.param("1" + "0" * 400, id="int-beyond-float-range"),
    ])
    def test_non_finite_noise_is_refused_before_the_dataset_loads(self, tmp_path, capsys,
                                                                  amount):
        # the dataset does not exist, so an error about it would mean it was read first
        code = run_cli("pretrain", "--dataset", str(tmp_path / "absent"), "--model", "gae",
                       "--out", str(tmp_path / "ckpt"), "--perturbation",
                       f'{{"kind": "feature_gaussian_noise", "amount": {amount}}}')
        assert_one_error_line(code, capsys, "perturbation amount must be a finite number")
        assert not (tmp_path / "ckpt").exists()

    def test_unknown_kind_is_refused_before_the_dataset_loads(self, tmp_path, capsys):
        code = run_cli("pretrain", "--dataset", str(tmp_path / "absent"), "--model", "gae",
                       "--out", str(tmp_path / "ckpt"), "--perturbation",
                       '{"kind": "shuffle", "amount": 1}')
        assert_one_error_line(code, capsys, "unknown perturbation kind 'shuffle'")
        assert not (tmp_path / "ckpt").exists()


def write_spec(path, base, axes):
    """A grid spec file at path; it returns path as a string."""
    path.write_text(json.dumps({"base": base, "axes": axes}))
    return str(path)


class TestGridVerbs:
    def test_ablate(self, dataset_dir, tmp_path, capsys):
        spec = write_spec(tmp_path / "abl.json", {
            "dataset": str(dataset_dir), "model": "dgae", "rethink": True,
            "out": str(tmp_path / "grid"), "seeds": [0], "pretrain_epochs": 3, "train_epochs": 2,
            "m1": 2, "m2": 2, "diag_stride": 10}, {"ablation": ["none", "no_xi"]})
        code = run_cli("grid", spec)
        captured = capsys.readouterr()
        assert code == 0
        assert "ablation-no_xi: acc=" in captured.out
        assert (tmp_path / "grid" / "results_grid.json").is_file()

    def test_robustness_with_grid_file(self, dataset_dir, tmp_path, capsys):
        spec = write_spec(tmp_path / "grid.json", {
            "dataset": str(dataset_dir), "model": "gae", "out": str(tmp_path / "rob"),
            "seeds": [0], "pretrain_epochs": 3, "train_epochs": 2, "diag_stride": 10},
            {"perturbation": [None], "rethink": [False, True]})
        code = run_cli("grid", spec)
        captured = capsys.readouterr()
        assert code == 0
        assert "perturbation-clean/rethink-false: acc=" in captured.out
        assert "perturbation-clean/rethink-true: acc=" in captured.out
        assert re.search(r"perturbation-clean/rethink-true - perturbation-clean/rethink-false: "
                         r"acc wins=\d+  losses=\d+  ties=\d+  untested=\d+  "
                         r"p=(n/a|[01]\.\d{4})  median=(n/a|[+-]\d\.\d{4})\n", captured.out)
        assert f"results: {tmp_path / 'rob' / 'results_grid.json'}\n" in captured.out
        assert (tmp_path / "rob" / "results_grid.json").is_file()

    def test_robustness_rejects_non_list_grid(self, dataset_dir, tmp_path, capsys):
        spec = write_spec(tmp_path / "grid.json",
                          {"dataset": str(dataset_dir), "out": str(tmp_path / "out")},
                          {"perturbation": {}})
        code = run_cli("grid", spec)
        assert_one_error_line(code, capsys, "list")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, word", [
        ('{"base": {"dataset": ', "cannot read grid spec"),
        ([{"base": {}, "axes": {}}], "grid spec is an object"),
        ({"base": {}, "axes": {}, "name": "x"}, "grid spec is an object"),
        ({"base": {}}, "grid spec is an object"),
        ({"base": [], "axes": {}}, "grid spec is an object"),
        ({"base": {}, "axes": {"optimizer": ["sgd"]}}, "unknown config keys ['optimizer']"),
        ({"base": {}, "axes": {"out": ["a", "b"]}}, "other than out"),
        ({"base": {}, "axes": {"gamma": 0.5}}, "JSON list of values, got 'gamma': 0.5"),
        ({"base": {"train_epochs": 1}, "axes": {"rethink": [True, False],
                                                "ablation": ["none", "no_xi"]}},
         'cell {"rethink": false, "ablation": "no_xi"}: ablation \'no_xi\' needs rethink'),
        ({"base": {"dataset": 5}, "axes": {"gamma": [0.5]}}, "dataset must be"),
    ], ids=["not-json", "not-an-object", "unknown-top-level-key", "no-axes", "base-not-an-object",
            "axis-not-a-field", "axis-out", "values-not-a-list", "invalid-cell", "invalid-base"])
    def test_a_bad_spec_is_refused_before_anything_is_written(self, dataset_dir, tmp_path,
                                                              capsys, spec, word):
        # a base object runs on the dataset into tmp_path/out unless it says otherwise
        if isinstance(spec, dict) and isinstance(spec.get("base"), dict):
            spec["base"] = {"dataset": str(dataset_dir), "out": str(tmp_path / "out"),
                            **spec["base"]}
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        code = run_cli("grid", str(path))
        # every refusal names the spec file
        assert_one_error_line(code, capsys, str(path), word)
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_the_verb_takes_one_spec_and_no_flag(self):
        verbs = next(a for a in build_parser()._actions if a.dest == "verb")
        actions = verbs.choices["grid"]._actions
        assert [(a.dest, a.option_strings) for a in actions] == [("help", ["-h", "--help"]),
                                                                 ("spec", [])]


class TestExportAndVerify:
    def test_export_embeddings(self, dataset_dir, tmp_path, capsys):
        assert run_cli("pretrain", "--dataset", str(dataset_dir),
                       "--model", "gae", "--seed", "0",
                       "--out", str(tmp_path / "ckpt"), "--pretrain-epochs", "3") == 0
        capsys.readouterr()
        code = run_cli("export-embeddings",
                       "--checkpoint", str(tmp_path / "ckpt" / "pretrain_gae_seed0.json"),
                       "--dataset", str(dataset_dir),
                       "--out", str(tmp_path / "emb.tsv"))
        captured = capsys.readouterr()
        assert code == 0
        assert str(tmp_path / "emb.tsv") in captured.out
        header = (tmp_path / "emb.tsv").read_text().splitlines()[0]
        assert header.startswith("node\tz0")

    def test_verify_theory_passes(self, capsys):
        code = run_cli("verify-theory", "--instances", "5", "--seed", "1")
        captured = capsys.readouterr()
        assert code == 0
        assert "status: ok" in captured.out
        assert "prop1_rel" in captured.out
        # every value starts in one column, after the longest key
        rows = [line for line in captured.out.splitlines() if line.startswith("  ")]
        assert len({line.rindex(" ") for line in rows}) == 1

    @pytest.mark.parametrize("flag, value, word", [
        ("--instances", "-3", "instance"), ("--instances", "0", "instance"),
        ("--seed", "-1", "seed"),
    ])
    def test_verify_theory_rejects_bad_counts(self, capsys, flag, value, word):
        code = run_cli("verify-theory", flag, value)
        assert_one_error_line(code, capsys, word)


class TestUnreadableInputs:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli("cluster", "--config", str(tmp_path / "missing.json"))
        assert_one_error_line(code, capsys, "missing.json")

    def test_config_file_not_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{dataset: ")
        code = run_cli("cluster", "--config", str(cfg_path))
        assert_one_error_line(code, capsys, "cfg.json")

    def test_missing_grid_file(self, tmp_path, capsys):
        code = run_cli("grid", str(tmp_path / "missing.json"))
        assert_one_error_line(code, capsys, "grid spec", "missing.json")
        assert list(tmp_path.iterdir()) == []

    def test_missing_checkpoint(self, dataset_dir, tmp_path, capsys):
        code = run_cli("export-embeddings", "--checkpoint", str(tmp_path / "missing.json"),
                       "--dataset", str(dataset_dir), "--out", str(tmp_path / "emb.tsv"))
        assert_one_error_line(code, capsys, "missing.json")
        assert not (tmp_path / "emb.tsv").exists()

    def test_checkpoint_not_json(self, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "torn.json"
        ckpt.write_text('{"format_version": 1, "arch": "ga')
        code = run_cli("export-embeddings", "--checkpoint", str(ckpt),
                       "--dataset", str(dataset_dir), "--out", str(tmp_path / "emb.tsv"))
        assert_one_error_line(code, capsys, "torn.json")

    @pytest.mark.parametrize("text, word", [
        ('{"format_version": 1}', "version 1"),
        ('{"format_version": 2, "arch": "gae", "weights": {}}', "version 2"),
        ("[1, 2]", "bad.json"),
        ('{"format_version": 3, "arch": "gae"}', "bad.json"),
        ('{"format_version": 3, "arch": "gae", "arrays": [["weights", "w1", [2, 2]]]}',
         "bad.json"),
    ], ids=["version-1", "version-2", "not-an-object", "missing-keys", "size-vs-shape"])
    def test_malformed_checkpoint(self, dataset_dir, tmp_path, capsys, text, word):
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(text)
        (tmp_path / "bad.json.f8").write_bytes(bytes(8))  # one float64, not the header's four
        code = run_cli("export-embeddings", "--checkpoint", str(ckpt),
                       "--dataset", str(dataset_dir), "--out", str(tmp_path / "emb.tsv"))
        assert_one_error_line(code, capsys, word)
        assert not (tmp_path / "emb.tsv").exists()


    @pytest.mark.parametrize("verb, flag, value", [
        ("cluster", "--perturbation", "5"),
        ("cluster", "--config", {"perturbation": 5}),
        ("grid", "perturbation", [{"amount": 5}]),
        ("grid", "perturbation", [5]),
        ("grid", "perturbation", [0]),
        ("grid", "perturbation", [False]),
        ("cluster", "--perturbation", '{"kind": "drop_random_edges", "amount": "many"}'),
        ("grid", "perturbation", [{"kind": "drop_random_edges", "amount": "many"}]),
        ("grid", "perturbation", [{"kind": "drop_random_edges", "amount": 1, "seed": "x"}]),
        ("cluster", "--perturbation", '{"kind": "add_random_edges", "amount": 5.7}'),
        ("grid", "perturbation",
         [{"kind": "drop_random_edges", "amount": 1}, {"kind": "add_random_edges", "amount": 5.7}]),
        ("grid", "perturbation",
         [{"kind": "drop_random_edges", "amount": 1}, {"kind": "shuffle", "amount": 1}]),
        ("cluster", "--perturbation", '{"kind": "drop_random_edges", "amount": 1, "seed": -1}'),
        ("grid", "perturbation",
         [{"kind": "drop_random_edges", "amount": 1},
          {"kind": "drop_random_edges", "amount": 1, "seed": -1}]),
    ], ids=["flag-not-an-object", "config-not-an-object", "cell-without-kind",
            "cell-not-an-object", "cell-zero", "cell-false", "flag-amount-not-a-number", "cell-amount-not-a-number",
            "cell-seed-not-an-integer", "flag-fractional-count", "second-cell-fractional-count",
            "second-cell-unknown-kind", "flag-negative-seed", "second-cell-negative-seed"])
    def test_malformed_perturbation(self, dataset_dir, tmp_path, capsys, verb, flag, value):
        base = {"dataset": str(dataset_dir), "out": str(tmp_path / "out"), "pretrain_epochs": 1,
                "train_epochs": 1}
        if verb == "grid":  # the values of a perturbation axis, each with both rethink sides
            spec = write_spec(tmp_path / "spec.json", base, {flag: value, "rethink": [False, True]})
            code = run_cli(verb, spec)
        else:
            if isinstance(value, dict):
                value_path = tmp_path / "cfg.json"
                value_path.write_text(json.dumps({"dataset": str(dataset_dir), **value}))
                value = str(value_path)
            code = run_cli(verb, "--dataset", str(dataset_dir), "--out", base["out"],
                           "--pretrain-epochs", "1", "--train-epochs", "1", flag, value)
        assert_one_error_line(code, capsys, "perturbation")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("key, value", [
        ("seeds", "0,1"), ("alpha1", "x"), ("m1", 2.5), ("pretrain_epochs", "3"),
        ("rethink", "no"), ("model", 3),
    ])
    def test_mistyped_config_value(self, dataset_dir, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": str(dataset_dir), "out": str(tmp_path / "out"),
                                        "pretrain_epochs": 1, "train_epochs": 1, key: value}))
        code = run_cli("cluster", "--config", str(cfg_path))
        assert_one_error_line(code, capsys, key)
        assert not (tmp_path / "out").exists()

    def test_meta_count_not_an_integer(self, dataset_dir, tmp_path, capsys):
        data = shutil.copytree(dataset_dir, tmp_path / "data")
        meta = json.loads((data / "meta.json").read_text())
        (data / "meta.json").write_text(json.dumps({**meta, "n_nodes": "abc"}))
        code = run_cli("cluster", "--dataset", str(data), "--out", str(tmp_path / "out"),
                       "--pretrain-epochs", "1", "--train-epochs", "1")
        assert_one_error_line(code, capsys, "meta.json", "n_nodes")
        assert not (tmp_path / "out").exists()


class TestConfigFlags:
    def test_every_config_key_is_a_cluster_flag(self):
        parser = build_parser()
        verbs = next(a for a in parser._actions if a.dest == "verb")
        dests = {a.dest for a in verbs.choices["cluster"]._actions}
        assert set(_CONFIG_FLAG_KEYS) <= dests
        # every config field is reachable from the command line
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(_CONFIG_FLAG_KEYS) | {"seeds", "perturbation"} == fields


class TestGeneratedFlags:
    """The flags _add_config_flags makes from ExperimentConfig's fields."""

    @pytest.mark.parametrize("flags", [["--model", "bogus"], ["--rethink", "--no-rethink"],
                                       ["--m1", "x"]], ids=["model", "bool-pair", "int"])
    def test_refused_with_exit_2(self, dataset_dir, tmp_path, capsys, flags):
        try:
            code = run_cli("cluster", "--dataset", str(dataset_dir),
                           "--out", str(tmp_path / "out"), *flags)
        except SystemExit as exc:  # argparse's own refusals exit here
            code = exc.code
        assert code == 2
        assert flags[0].lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, rethink", [(["--no-rethink"], False), ([], True)],
                             ids=["flag-wins", "file-kept"])
    def test_a_bool_flag_overrides_the_config_file(self, dataset_dir, tmp_path, flags, rethink):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": str(dataset_dir), "model": "gae", "rethink": True, "seeds": [0],
            "pretrain_epochs": 2, "train_epochs": 1, "diag_stride": 10,
            "out": str(tmp_path / "out")}))
        assert run_cli("cluster", "--config", str(cfg_path), *flags) == 0
        data = json.loads((tmp_path / "out" / "results.json").read_text())
        assert data["config"]["rethink"] is rethink

    def test_every_flag_sets_its_field(self):
        values = dict(dataset="d", model="gae", out="o", pretrain_ckpt="p", seeds=(3, 4),
                      pretrain_epochs=5, lr=0.02, rethink=True, alpha1=0.4, alpha2=0.1, m1=3,
                      m2=4, gamma=0.5, train_epochs=6, diag_stride=2, convergence_fraction=0.8,
                      ablation="no_xi", perturbation={"kind": "drop_random_edges", "amount": 2})
        # every field moves off its default, so no flag can fall back to it unseen
        default = ExperimentConfig(dataset="")
        assert all(values[f.name] != getattr(default, f.name)
                   for f in dataclasses.fields(ExperimentConfig))
        argv = ["cluster", "--dataset", "d", "--model", "gae", "--out", "o", "--pretrain-ckpt", "p",
                "--seeds", "3,4", "--pretrain-epochs", "5", "--lr", "0.02", "--rethink",
                "--alpha1", "0.4", "--alpha2", "0.1", "--m1", "3", "--m2", "4", "--gamma", "0.5",
                "--train-epochs", "6", "--diag-stride", "2", "--convergence-fraction", "0.8",
                "--ablation", "no_xi", "--perturbation", json.dumps(values["perturbation"])]
        assert _config_from_args(build_parser().parse_args(argv)) == ExperimentConfig(**values)

    @pytest.mark.parametrize("verb", ["cluster", "pretrain"])
    def test_help_lists_every_fields_flag(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, "--help")
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        flags = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(ExperimentConfig)}
        assert flags | {"--config", "--seed", "--no-rethink"} <= listed
