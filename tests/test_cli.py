import csv
import json
import os

import numpy as np
import pytest

from diffdag.cli import _write_manifest, main
from diffdag.semdata import GenSpec
from diffdag.training import TrainConfig


def run(argv):
    return main(argv)


class TestGenerate:
    def test_writes_requested_datasets(self, tmp_path):
        out = str(tmp_path / "data")
        assert run(["generate", "--kind", "er", "--n", "6", "--m", "6",
                    "--samples", "80", "--seeds", "2", "--out", out]) == 0
        dirs = sorted(os.listdir(out))
        assert dirs == ["er-6-6-seed0", "er-6-6-seed1"]
        for d in dirs:
            for f in ("data.csv", "truth.edges", "meta.json", "manifest.json"):
                assert (tmp_path / "data" / d / f).exists()

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run(["generate", "--kind", "sf", "--n", "8", "--m", "16",
                        "--samples", "60", "--out", out]) == 0
        fa = (tmp_path / "a" / "sf-8-16-seed0" / "data.csv").read_bytes()
        fb = (tmp_path / "b" / "sf-8-16-seed0" / "data.csv").read_bytes()
        assert fa == fb

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIFFDAG_OUT", str(tmp_path / "envroot"))
        assert run(["generate", "--kind", "er", "--n", "4", "--m", "3", "--samples", "30"]) == 0
        assert (tmp_path / "envroot" / "er-4-3-seed0" / "data.csv").exists()

    def test_flags_set_genspec_fields(self, tmp_path):
        out = str(tmp_path / "data")
        assert run(["generate", "--kind", "sf", "--n", "5", "--m", "4", "--samples", "30",
                    "--noise-std", "0.5", "--first-seed", "3", "--out", out]) == 0
        manifest = json.loads((tmp_path / "data" / "sf-5-4-seed3" / "manifest.json").read_text())
        # a flag left out keeps GenSpec's default
        assert manifest["config"] == vars(GenSpec("sf", 5, 4, N=30, noise_std=0.5, seed=3))

    def test_manifest_contents(self, tmp_path):
        out = str(tmp_path / "data")
        run(["generate", "--kind", "er", "--n", "4", "--m", "3", "--samples", "30", "--out", out])
        manifest = json.loads((tmp_path / "data" / "er-4-3-seed0" / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert len(manifest["config_hash"]) == 64
        assert "diffdag_version" in manifest


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """generate -> train once; reused by eval/threshold tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data_out = str(root / "data")
    assert run(["generate", "--kind", "er", "--n", "6", "--m", "6",
                "--samples", "150", "--out", data_out]) == 0
    dataset = os.path.join(data_out, "er-6-6-seed0")
    train_out = str(root / "train")
    assert run(["train", "--dataset", dataset, "--max-epochs", "12",
                "--hidden", "8", "--out", train_out]) == 0
    ckpt = os.path.join(train_out, "train-er-6-6-seed0-seed0", "checkpoint.json")
    assert os.path.exists(ckpt)
    return root, dataset, ckpt


class TestTrainEval:
    def test_history_csv_schema(self, small_run):
        root, dataset, ckpt = small_run
        hist = os.path.join(os.path.dirname(ckpt), "history.csv")
        with open(hist) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"epoch", "train_loss", "val_loss", "wall_time"}

    def test_eval_emits_structure_numbers_and_mse(self, small_run, tmp_path):
        root, dataset, ckpt = small_run
        out = str(tmp_path / "metrics")
        assert run(["eval", "--checkpoint", ckpt, "--dataset", dataset,
                    "--bench-reps", "3", "--out", out]) == 0
        blob = json.loads((tmp_path / "metrics" / "metrics-er-6-6-seed0.json").read_text())
        structure_keys = {"un_auc_pr", "un_auc_roc", "dir_auc_pr", "dir_auc_roc",
                          "shd@0.1", "shd@0.3", "shd@0.5", "shd@0.7"}
        assert structure_keys <= set(blob)
        assert "mse" in blob and np.isfinite(blob["mse"])
        assert "sample_seconds" in blob and blob["sample_seconds"] > 0
        csv_path = tmp_path / "metrics" / "metrics-er-6-6-seed0.csv"
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    # once numpy's "boolean index did not match indexed array" from the AUCs
    def test_eval_on_other_node_count_fails_with_one_line(self, small_run, tmp_path, capsys):
        root, dataset, ckpt = small_run
        data_out = str(tmp_path / "data")
        assert run(["generate", "--kind", "er", "--n", "8", "--m", "8", "--samples", "30", "--out", data_out]) == 0
        capsys.readouterr()
        out = str(tmp_path / "metrics")
        assert run(["eval", "--checkpoint", ckpt, "--dataset", os.path.join(data_out, "er-8-8-seed0"),
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"error: node counts differ: {ckpt} model has 6, er-8-8-seed0 has 8\n"
        assert not os.path.exists(out)

    def test_equal_flags_write_equal_checkpoint_bytes(self, small_run, tmp_path):
        root, dataset, ckpt = small_run
        out = str(tmp_path / "again")
        assert run(["train", "--dataset", dataset, "--max-epochs", "12",
                    "--hidden", "8", "--out", out]) == 0
        again = os.path.join(out, "train-er-6-6-seed0-seed0")
        with open(os.path.join(again, "checkpoint.json"), "rb") as a, open(ckpt, "rb") as b:
            assert a.read() == b.read()
        # the wall time lives in the run's manifest instead
        with open(os.path.join(again, "manifest.json")) as fh:
            assert json.load(fh)["train_seconds"] > 0

    def test_eval_reads_train_seconds_from_either_layout(self, small_run, tmp_path):
        root, dataset, ckpt = small_run

        def eval_train_seconds(checkpoint):
            out = str(tmp_path / "metrics")
            assert run(["eval", "--checkpoint", checkpoint, "--dataset", dataset,
                        "--bench-reps", "1", "--out", out]) == 0
            with open(os.path.join(out, "metrics-er-6-6-seed0.json")) as fh:
                return json.load(fh)["train_seconds"]

        with open(os.path.join(os.path.dirname(ckpt), "manifest.json")) as fh:
            assert eval_train_seconds(ckpt) == json.load(fh)["train_seconds"] > 0
        # a checkpoint written before the wall time moved holds it in its
        # extras; with no manifest beside it that is the value reported
        with open(ckpt) as fh:
            blob = json.load(fh)
        old = tmp_path / "old"
        old.mkdir()
        blob["extras"]["train_seconds"] = 1.25
        (old / "checkpoint.json").write_text(json.dumps(blob))
        assert eval_train_seconds(str(old / "checkpoint.json")) == 1.25
        del blob["extras"]["train_seconds"]
        (old / "checkpoint.json").write_text(json.dumps(blob))
        assert eval_train_seconds(str(old / "checkpoint.json")) is None

    def test_gt_dag_training(self, small_run, tmp_path):
        root, dataset, ckpt = small_run
        out = str(tmp_path / "gt")
        assert run(["train", "--dataset", dataset, "--gt-dag", "--max-epochs", "8",
                    "--hidden", "8", "--out", out]) == 0
        gt_ckpt = os.path.join(out, "train-er-6-6-seed0-seed0", "checkpoint.json")
        assert run(["eval", "--checkpoint", gt_ckpt, "--dataset", dataset, "--out", out]) == 0
        with open(os.path.join(out, "metrics-er-6-6-seed0.json")) as fh:
            blob = json.load(fh)
        assert "mse" in blob and "un_auc_pr" not in blob


class TestValidation:
    def test_invalid_lambda_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--dataset", "whatever", "--lam", "0.7"])
        assert exc.value.code == 2

    def test_invalid_prior_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--dataset", "x", "--prior", "0.9"])
        assert exc.value.code == 2

    def test_grid_has_no_perm_mode_flag(self, capsys):
        # grid sweeps --modes; a --perm-mode it would override is not taken
        with pytest.raises(SystemExit) as exc:
            run(["grid", "--dataset", "x", "--perm-mode", "sinkhorn"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --perm-mode" in capsys.readouterr().err

    def test_missing_dataset_fails_cleanly(self, capsys):
        assert run(["train", "--dataset", "/nonexistent/path"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lr", "--tau"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_nonpositive_float_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--dataset", "whatever", flag, value])
        assert exc.value.code == 2
        assert "must be finite and positive" in capsys.readouterr().err

    # each once passed argparse and failed in TrainConfig or GenSpec with
    # exit 1, or (train) after trying to read the dataset; the config it sets
    # now rejects it before any file is read or written
    @pytest.mark.parametrize(
        ("argv", "field"),
        [
            (["train", "--dataset", "/nonexistent", "--hidden", "0"], "hidden"),
            (["train", "--dataset", "/nonexistent", "--batch-size", "0"], "batch_size"),
            (["train", "--dataset", "/nonexistent", "--seed", "-1"], "seed"),
            (["train", "--dataset", "/nonexistent", "--lam", "0.5"], "lam"),
            (["grid", "--dataset", "/nonexistent", "--priors", "0.9"], "prior_p"),
            (["grid", "--dataset", "/nonexistent", "--lams", "0.05,0.5"], "lam"),
            (["generate", "--kind", "er", "--n", "4", "--m", "3", "--noise-std", "nan"], "noise_std"),
            (["generate", "--kind", "er", "--n", "4", "--m", "3", "--samples", "2"], "N"),
            (["generate", "--kind", "er", "--n", "1", "--m", "1"], "n"),
            (["generate", "--kind", "er", "--n", "4", "--m", "3", "--first-seed", "-1"], "seed"),
            (["direct", "--n", "1", "--m", "1"], "n"),
            (["generate", "--kind", "sf", "--n", "5", "--m", "30"], "m"),
            (["direct", "--kind", "sf", "--n", "5", "--m", "30"], "m"),
        ],
    )
    def test_value_the_config_rejects_is_usage_error(self, argv, field, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: {field} " in errors[0]
        assert "meta.json" not in errors[0]
        assert not out.exists()

    # a negative seed once failed in numpy with a message naming no flag
    # (exit 1), --sizes 0 or 1 timed and wrote rows for edgeless graphs,
    # --bench-reps 0 failed after computing every metric, and --workers -2
    # ran serially and recorded -2 in the manifest
    @pytest.mark.parametrize(
        ("argv", "flag"),
        [
            (["bench", "--seed", "-1"], "--seed"),
            (["direct", "--n", "4", "--m", "3", "--seed", "-1"], "--seed"),
            (["bench", "--sizes", "0"], "--sizes"),
            (["bench", "--sizes", "1"], "--sizes"),
            (["bench", "--sizes", "5,1", "--modes", "topk"], "--sizes"),
            (["bench", "--reps", "0"], "--reps"),
            (["eval", "--checkpoint", "/nonexistent", "--dataset", "/nonexistent", "--bench-reps", "0"],
             "--bench-reps"),
            (["grid", "--dataset", "/nonexistent", "--workers", "-2"], "--workers"),
            (["grid", "--dataset", "/nonexistent", "--workers", "0"], "--workers"),
        ],
    )
    def test_flag_value_below_its_range_is_usage_error(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}:" in errors[0]
        assert captured.out == "" and not out.exists()  # nothing timed, nothing written

    # lr=-1 once ran gradient ascent and wrote the ascended model's AUCs
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_direct_bad_learning_rate_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["direct", "--n", "4", "--m", "3", "--graphs", "1", "--lrs", "-1",
                    "--steps", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: lr must be finite and positive, got -1.0\n"
        assert not out.exists()

    # each once ran into numpy warnings and then `error: list index out of range`
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["direct", "--graphs", "0"],
            ["direct", "--lrs", ""],
            ["direct", "--lrs", ","],
            ["grid", "--dataset", "x", "--modes", ""],
            ["grid", "--dataset", "x", "--priors", ""],
            ["grid", "--dataset", "x", "--lams", ""],
            ["bench", "--sizes", ""],
            ["generate", "--kind", "er", "--n", "4", "--m", "3", "--seeds", "0"],
        ],
    )
    def test_empty_run_list_is_one_line_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "index" not in err

    # a nan in data.csv once trained (exit 0) and then evaluated to "mse": NaN
    def test_non_finite_data_fails_before_training(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        assert run(["generate", "--kind", "er", "--n", "4", "--m", "3", "--samples", "30", "--out", data]) == 0
        path = tmp_path / "data" / "er-4-3-seed0" / "data.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = "nan," + lines[5].split(",", 1)[1]
        path.write_text("".join(lines))
        out = tmp_path / "out"
        assert run(["train", "--dataset", str(path.parent), "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith("data.csv: row 5 holds a non-finite value\n")
        assert not out.exists()

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            run(["bench", "--modes", "quantum"])


class TestDivergence:
    # numpy's overflow warnings on the way to inf would fail the test: the
    # one-line diagnostic is all that reaches stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_divergence_exits_1_and_records_manifest(self, small_run, tmp_path, capsys):
        root, dataset, ckpt = small_run
        out = str(tmp_path / "div")
        flags = ["train", "--dataset", dataset, "--max-epochs", "4", "--hidden", "8", "--out", out]
        assert run(flags) == 0  # an earlier run's artifacts in the same directory
        capsys.readouterr()
        assert run(flags + ["--lr", "1e150"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training loss is") and err.count("\n") == 1
        run_dir = tmp_path / "div" / "train-er-6-6-seed0-seed0"
        assert os.listdir(run_dir) == ["manifest.json"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert err == f"error: {manifest['diverged']}\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_divergence_names_the_config(self, small_run, tmp_path, capsys):
        # two worker processes: the error is pickled back to the parent
        root, dataset, ckpt = small_run
        out = str(tmp_path / "grid")
        assert run(["grid", "--dataset", dataset, "--modes", "topk", "--priors", "0.05",
                    "--lams", "0.0,0.01", "--lr", "1e150", "--max-epochs", "2",
                    "--hidden", "8", "--workers", "2", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: perm_mode=topk prior_p=0.05 lam=0.0: training loss is")
        assert not os.path.exists(os.path.join(out, "grid-report.json"))


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_direct_divergence_is_one_line(self, tmp_path, capsys):
        for mode in ("topk", "sinkhorn"):
            assert run(["direct", "--n", "5", "--m", "5", "--graphs", "1", "--lrs", "1e308",
                        "--steps", "20", "--perm-mode", mode, "--out", str(tmp_path / mode)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: sampler parameters are not finite after step") and err.count("\n") == 1


class TestBenchDirectGrid:
    def test_bench_writes_csv(self, tmp_path):
        out = str(tmp_path / "bench")
        assert run(["bench", "--sizes", "5,10", "--modes", "topk", "--reps", "3", "--out", out]) == 0
        with open(os.path.join(out, "sampling-times.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and rows[0]["mode"] == "topk"

    def test_direct_small(self, tmp_path, capsys):
        out = str(tmp_path / "direct")
        assert run(["direct", "--kind", "er", "--n", "5", "--m", "5", "--graphs", "1",
                    "--lrs", "0.05", "--steps", "150", "--out", out]) == 0
        assert "AUC-PR" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "direct-learning.csv"))

    def test_grid_selects_best(self, small_run, tmp_path):
        root, dataset, ckpt = small_run
        out = str(tmp_path / "grid")
        assert run(["grid", "--dataset", dataset, "--modes", "topk",
                    "--priors", "0.05", "--lams", "0.0,0.05",
                    "--max-epochs", "6", "--hidden", "8", "--out", out]) == 0
        report = json.loads((tmp_path / "grid" / "grid-report.json").read_text())
        assert len(report["runs"]) == 2
        assert report["best_val_loss"] == min(r["val_loss"] for r in report["runs"])


def manifest_config(path):
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    return manifest["config"], manifest["config_hash"]


class TestManifests:
    """A manifest's config is the configuration that ran, and only that."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--sizes", "4", "--modes", "topk", "--reps", "2"],
            ["direct", "--n", "4", "--m", "3", "--graphs", "1", "--lrs", "0.1", "--steps", "5"],
            ["grid", "--modes", "topk", "--priors", "0.05", "--lams", "0.01",
             "--max-epochs", "2", "--hidden", "4"],
        ],
    )
    def test_identical_runs_record_equal_hashes(self, argv, small_run, tmp_path):
        if argv[0] == "grid":
            argv = argv + ["--dataset", small_run[1]]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(argv + ["--out", a]) == 0 and run(argv + ["--out", b]) == 0
        (config, hash_a), (_, hash_b) = manifest_config(a), manifest_config(b)
        assert hash_a == hash_b
        assert not {"func", "command", "out"} & set(config)

    def test_grid_records_swept_lists_not_overridden_scalars(self, small_run, tmp_path):
        out = str(tmp_path / "grid")
        assert run(["grid", "--dataset", small_run[1], "--modes", "topk", "--priors", "0.05",
                    "--lams", "0.0,0.01", "--max-epochs", "2", "--hidden", "4", "--out", out]) == 0
        config, _ = manifest_config(out)
        assert not {"perm_mode", "prior_p", "lam"} & set(config)
        assert (config["modes"], config["priors"], config["lams"]) == (["topk"], [0.05], [0.0, 0.01])
        assert config["hidden"] == 4 and config["learning_rate"] == TrainConfig().learning_rate

    def test_train_records_train_config_and_gt_dag(self, small_run, tmp_path):
        dataset = small_run[1]
        hashes = []
        for extra in ([], ["--gt-dag"]):
            out = str(tmp_path / f"train{len(extra)}")
            assert run(["train", "--dataset", dataset, *extra, "--out", out]) == 0
            config, config_hash = manifest_config(os.path.join(out, "train-er-6-6-seed0-seed0"))
            # no training flag given: exactly TrainConfig's defaults
            assert config == TrainConfig().to_dict() | {"dataset": dataset, "gt_dag": bool(extra)}
            hashes.append(config_hash)
        assert hashes[0] != hashes[1]

    def test_unencodable_config_value_raises(self, tmp_path):
        with pytest.raises(TypeError):
            _write_manifest(str(tmp_path), "x", {"f": object()})
