"""End-to-end command pipeline on a deliberately tiny configuration."""

import argparse
import csv
import json
import os
import re

import numpy as np
import pytest

from fisherprune import bench, classify, cli, data, prune
from fisherprune.cli import build_parser, main
from fisherprune.data import balanced, images_labels
from fisherprune.deconv import dependency_scores
from fisherprune.errors import ConfigurationError
from fisherprune.modelio import load_model, save_model
from fisherprune.network import build_cnn
from fisherprune.train import TrainConfig, TrainResult, retrain

from test_data import write_pgm
from test_modelio import poke_tensor, rewrite_header, zero_extent_net


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_same_weights(got, want):
    assert len(got.layers) == len(want.layers)
    for a, b in zip(got.layers, want.layers):
        assert a.kind == b.kind
        if b.weights is not None:
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


TINY = ["--n-per-class", "6", "--seed", "0"]


@pytest.fixture(scope="module")
def piperun(tmp_path_factory):
    """One tiny train/extract/analyze/prune/eval/bench run, shared below."""
    out = str(tmp_path_factory.mktemp("cli"))
    model = os.path.join(out, "model.ldap1")
    pruned = os.path.join(out, "pruned.ldap1")
    steps = [
        ["train", "--out", out, "--epochs", "1"] + TINY,
        ["extract", "--out", out, "--model", model] + TINY,
        ["analyze", "--out", out, "--model", model, "--k", "2"] + TINY,
        ["prune", "--out", out, "--model", model, "--k", "2",
         "--grid", "0.3", "--epochs", "1", "--dep-images", "2"] + TINY,
        ["eval", "--out", out, "--model", pruned, "--classifier", "fc"] + TINY,
        ["eval", "--out", out, "--model", pruned, "--classifier", "qda"] + TINY,
        ["bench", "--out", out, "--model", model, "--pruned", pruned] + TINY,
    ]
    for argv in steps:
        assert main(argv) == 0, f"command failed: {argv[0]}"
    return out


class TestArtifacts:
    def test_all_files_present(self, piperun):
        names = [
            "model.ldap1", "train_log.csv", "firing.csv", "ranking.csv",
            "sw.csv", "sb.csv", "dependencies.csv", "pruned.ldap1",
            "prune_report.csv", "eval.csv", "model_with_head.ldap1",
            "bench.csv", "manifest.json", "report.txt",
        ]
        for name in names:
            assert os.path.exists(os.path.join(piperun, name)), name

    def test_train_log_has_one_row_per_epoch(self, piperun):
        header, rows = read_csv(os.path.join(piperun, "train_log.csv"))
        assert header == ["epoch", "loss", "train_acc", "eval_acc"]
        assert len(rows) == 1 and rows[0][0] == "0"
        for value in rows[0][1:]:
            assert value == f"{float(value):.6f}"

    def test_firing_matrix_layout(self, piperun):
        header, rows = read_csv(os.path.join(piperun, "firing.csv"))
        assert header == ["id", "label"] + [f"n{j}" for j in range(32)]
        assert len(rows) == 8  # 80% of 6 per class, both classes
        assert {r[1] for r in rows} == {"0", "1"}

    def test_ranking_is_a_permutation(self, piperun):
        header, rows = read_csv(os.path.join(piperun, "ranking.csv"))
        assert header == ["neuron", "s2w", "s2b", "icc", "rank"]
        assert sorted(int(r[4]) for r in rows) == list(range(32))
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0

    def test_dependency_table_covers_all_conv_filters(self, piperun):
        _, rows = read_csv(os.path.join(piperun, "dependencies.csv"))
        assert len(rows) == 16 + 16 + 32 + 32 + 32 + 32
        for _, _, score in rows:
            assert 0.0 <= float(score) <= 1.0

    def test_pruned_model_loads_with_provenance(self, piperun):
        net, info = load_model(os.path.join(piperun, "pruned.ldap1"))
        assert net.layers[net.last_conv_index()].weights.shape[0] == 2
        prov = info["provenance"]
        assert prov["threshold"] == 0.3
        assert len(prov["selected"]) == 2

    def test_prune_report_covers_every_conv(self, piperun):
        header, rows = read_csv(os.path.join(piperun, "prune_report.csv"))
        assert header == ["layer", "params_before", "params_after", "reduction"]
        assert len(rows) == 6
        for _, before, after, reduction in rows:
            assert int(after) <= int(before)
            assert 0.0 <= float(reduction) < 1.0

    def test_eval_rows_cover_test_split(self, piperun):
        _, rows = read_csv(os.path.join(piperun, "eval.csv"))
        assert len(rows) == 4
        assert all(r[2] in ("0", "1") for r in rows)

    def test_saved_head_is_qda(self, piperun):
        _, info = load_model(os.path.join(piperun, "model_with_head.ldap1"))
        assert info["classifier"]["kind"] == "qda"
        assert "means" in info["classifier"]["tensors"]

    def test_bench_covers_both_models(self, piperun):
        header, rows = read_csv(os.path.join(piperun, "bench.csv"))
        assert header == ["model", "layer", "kind", "median_ms"]
        models = {r[0] for r in rows}
        assert models == {"original", "pruned", "speedup"}
        for r in rows:
            if r[0] != "speedup":
                assert float(r[3]) >= 0.0

    def test_bench_says_whether_threads_were_pinned(self, piperun, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        model = os.path.join(piperun, "model.ldap1")
        assert main(["bench", "--out", str(tmp_path), "--model", model,
                     "--runs", "1"] + TINY) == 0
        assert ("BLAS threads: OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=unset"
                in capsys.readouterr().out)
        text = open(os.path.join(str(tmp_path), "report.txt")).read()
        assert "pinned" not in text

    def test_bench_runs_what_runs_asks_for(self, piperun, tmp_path,
                                          monkeypatch):
        calls = []
        timed = bench.forward

        def spy(*args, **kwargs):
            calls.append(1)
            return timed(*args, **kwargs)

        monkeypatch.setattr(bench, "forward", spy)
        assert main(["bench", "--out", str(tmp_path), "--runs", "1",
                     "--model", os.path.join(piperun, "model.ldap1"),
                     "--pruned", os.path.join(piperun, "pruned.ldap1")]
                    + TINY) == 0
        # per model: the lap loop and the total loop, warmup plus one run each
        assert len(calls) == 2 * 2 * (bench.WARMUP + 1)

    def test_manifest_records_every_command(self, piperun):
        with open(os.path.join(piperun, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert set(manifest) == {
            "train", "extract", "analyze", "prune", "eval", "bench",
        }
        assert manifest["prune"]["grid"] == "0.3"
        assert "threshold" not in manifest["prune"]

    def test_one_point_grid_writes_a_one_row_search_table(self, piperun):
        header, rows = read_csv(os.path.join(piperun, "threshold_search.csv"))
        assert header == ["threshold", "conv_rate", "acc_before",
                          "acc_after", "forced"]
        assert [r[0] for r in rows] == ["0.3"]
        text = open(os.path.join(piperun, "report.txt")).read()
        assert "prune: plateau threshold t0=0.3 (eps_acc=0.02)" in text

    def test_report_lines_accumulate(self, piperun):
        text = open(os.path.join(piperun, "report.txt")).read()
        for prefix in ("train:", "extract:", "analyze:", "prune:", "eval:",
                       "bench:"):
            assert prefix in text
        assert "ms" not in text  # timings belong to bench.csv only


class TestGridSearch:
    def test_grid_prune_writes_search_table(self, piperun, tmp_path):
        out = str(tmp_path)
        model = os.path.join(piperun, "model.ldap1")
        rc = main(["prune", "--out", out, "--model", model, "--k", "2",
                   "--grid", "0:0.2:0.1", "--epochs", "1",
                   "--dep-images", "2"] + TINY)
        assert rc == 0
        header, rows = read_csv(os.path.join(out, "threshold_search.csv"))
        assert header == ["threshold", "conv_rate", "acc_before",
                          "acc_after", "forced"]
        assert [r[0] for r in rows] == ["0", "0.1", "0.2"]
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["prune"]["grid"] == "0:0.2:0.1"

    def test_each_grid_point_retrains_once(self, piperun, tmp_path,
                                           monkeypatch):
        """The plateau search's retrain of t0 is the one saved; the command
        retrains nothing itself."""
        real, nets = prune.retrain, []

        def spy(net, *args, **kwargs):
            nets.append(net)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(prune, "retrain", spy)
        monkeypatch.setattr(cli, "retrain", spy, raising=False)
        out = str(tmp_path)
        rc = main(["prune", "--out", out, "--model",
                   os.path.join(piperun, "model.ldap1"), "--k", "2",
                   "--grid", "0.1:0.3:0.1", "--epochs", "1",
                   "--dep-images", "2"] + TINY)
        assert rc == 0
        assert len(nets) == 3
        saved, info = load_model(os.path.join(out, "pruned.ldap1"))
        t_0 = info["provenance"]["threshold"]
        assert_same_weights(saved, nets[[0.1, 0.2, 0.3].index(t_0)])

    def test_report_names_the_layers_the_guard_forced(self, piperun, tmp_path):
        """At t0 = 1 the layers whose scores all fall short keep their top
        filter, and the report line lists them as dependencies.csv says."""
        out = str(tmp_path)
        rc = main(["prune", "--out", out, "--model",
                   os.path.join(piperun, "model.ldap1"), "--k", "2",
                   "--grid", "1", "--epochs", "0", "--dep-images", "2"] + TINY)
        assert rc == 0
        _, rows = read_csv(os.path.join(out, "threshold_search.csv"))
        assert [(r[0], r[4]) for r in rows] == [("1", "1")]
        _, scores = read_csv(os.path.join(out, "dependencies.csv"))
        layers = sorted({int(li) for li, _, _ in scores})
        forced = [li for li in layers[:-1]
                  if all(float(s) < 1 for l, _, s in scores if int(l) == li)]
        assert forced
        with open(os.path.join(out, "report.txt")) as fh:
            guard = [line for line in fh if "empty-layer guard" in line]
        assert guard == [f"prune: empty-layer guard kept top filter in layers "
                         f"{forced}\n"]

    def test_threshold_run_saves_the_plans_retrained_net(self, piperun):
        """prune --grid 0.3 saves apply_prune + retrain at 0.3."""
        split = cli._load_dataset("synthetic", 0, 6)
        net, _ = load_model(os.path.join(piperun, "model.ldap1"))
        _, ranking = cli._rank(net, split, 2)
        table = dependency_scores(net, balanced(split.train, 2),
                                  ranking.selected)
        want = prune.apply_prune(
            net, prune.build_prune_plan(table, ranking.selected, 0.3))
        retrain(want, *images_labels(split.train), *images_labels(split.test),
                TrainConfig(epochs=1, lr=0.005, seed=0))
        got, info = load_model(os.path.join(piperun, "pruned.ldap1"))
        assert info["provenance"]["threshold"] == 0.3
        assert_same_weights(got, want)


class TestDependencySubset:
    def test_walk_pools_over_both_classes(self, piperun, tmp_path,
                                          monkeypatch):
        """--dep-images 4 of a split that lists class 0 first walks two
        images of each class; a plain prefix would hold class 0 only."""
        seen = []

        def spy(net, images, selected):
            seen.extend(images)
            return dependency_scores(net, images, selected)

        monkeypatch.setattr(cli.deconv, "dependency_scores", spy)
        train = cli._load_dataset("synthetic", 0, 6).train
        assert {s.label for s in train[:4]} == {0}
        rc = main(["prune", "--out", str(tmp_path), "--model",
                   os.path.join(piperun, "model.ldap1"), "--k", "2",
                   "--grid", "0.2", "--epochs", "1", "--dep-images", "4"]
                  + TINY)
        assert rc == 0
        assert [s.label for s in seen] == [0, 1, 0, 1]


class TestFailureExits:
    def test_untyped_value_error_propagates(self, tmp_path, monkeypatch):
        """Only the package's typed errors and OSError exit 2; a plain
        ValueError is a defect and surfaces as a traceback."""
        def boom(args, split):
            raise ValueError("not a package error")

        monkeypatch.setattr(cli, "cmd_extract", boom)
        with pytest.raises(ValueError, match="not a package error"):
            main(["extract", "--out", str(tmp_path), "--model", "m.ldap1"]
                 + TINY)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff"])
    def test_unreadable_manifest_refused_before_any_work(self, tmp_path,
                                                         capsys, text):
        (tmp_path / "manifest.json").write_bytes(text.encode("latin-1"))
        rc = main(["extract", "--out", str(tmp_path), "--model",
                   str(tmp_path / "missing.ldap1")] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and "JSON object" in err

    def test_unknown_dataset(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path), "--dataset", "nope",
                   "--epochs", "1"])
        assert rc == 2
        assert "error: ConfigurationError" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path, capsys):
        rc = main(["extract", "--out", str(tmp_path), "--model",
                   str(tmp_path / "absent.ldap1")] + TINY)
        assert rc == 2
        assert "FileNotFoundError" in capsys.readouterr().err

    @pytest.mark.parametrize("out,model,error", [
        ("out", ".", "IsADirectoryError"),
        ("taken", "m.ldap1", "FileExistsError"),
    ], ids=["model_is_a_directory", "out_is_a_file"])
    def test_os_errors(self, tmp_path, capsys, out, model, error):
        (tmp_path / "taken").touch()
        rc = main(["extract", "--out", str(tmp_path / out),
                   "--model", str(tmp_path / model)] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}:")
        assert err.count("\n") == 1

    def test_usage_error_is_one_line(self, piperun, tmp_path, capsys):
        model = os.path.join(piperun, "model.ldap1")
        rc = main(["prune", "--out", str(tmp_path), "--model", model,
                   "--grid", "-1:1:0.5"] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError:")
        assert "--grid" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["prune", "sweep"])
    def test_pruning_commands_need_a_grid(self, piperun, tmp_path, capsys,
                                          command):
        model = os.path.join(piperun, "model.ldap1")
        rc = main([command, "--out", str(tmp_path), "--model", model] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: ConfigurationError: the following arguments "
                       "are required: --grid\n")
        assert os.listdir(tmp_path) == []

    def test_prune_refuses_the_removed_threshold_flag(self, tmp_path, capsys):
        # refused before the model is read: the model path does not exist
        rc = main(["prune", "--out", str(tmp_path), "--model",
                   str(tmp_path / "absent.ldap1"), "--threshold", "0.3",
                   "--grid", "0.3"] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: ConfigurationError: unrecognized arguments: "
                       "--threshold 0.3\n")
        assert os.listdir(tmp_path) == []

    def test_eval_classifier_choices_are_fc_and_the_head_kinds(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices["eval"]._actions
                      if a.dest == "classifier")
        assert list(action.choices) == ["fc", *classify.HEADS]
        assert set(action.choices) == {"fc", "qda", "svml", "svmr"}
        with pytest.raises(ConfigurationError, match="invalid choice: 'lda'"):
            build_parser().parse_args(["eval", "--model", "m.ldap1",
                                       "--classifier", "lda"])

    @pytest.mark.parametrize("classifier", ["fc", "qda", "svml", "svmr"])
    def test_eval_refuses_an_empty_test_split(self, piperun, tmp_path, capsys,
                                              classifier):
        model = os.path.join(piperun, "model.ldap1")
        rc = main(["eval", "--out", str(tmp_path), "--model", model,
                   "--classifier", classifier, "--n-per-class", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: ConfigurationError: eval needs a non-empty "
                       "test split\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["train", "--epochs", "1"],
        ["prune", "--grid", "0.3", "--epochs", "0", "--dep-images", "2"],
        ["sweep", "--grid", "0.3:0.5:0.1", "--epochs", "0", "--dep-images", "2"],
    ], ids=["train", "prune", "sweep"])
    def test_an_empty_test_split_is_refused(self, piperun, tmp_path, capsys,
                                            argv):
        model = ["--model", os.path.join(piperun, "model.ldap1")]
        rc = main(argv + ["--out", str(tmp_path), "--n-per-class", "2"]
                  + (model if argv[0] != "train" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: ConfigurationError: evaluation set is empty\n"
        assert os.listdir(tmp_path) == []

    def test_zero_input_extent_model_is_refused(self, tmp_path, capsys):
        model = tmp_path / "zero.ldap1"
        save_model(zero_extent_net(), str(model))
        rewrite_header(model, lambda h: h.update(input_shape=[1, 0, 4]))
        rc = main(["extract", "--out", str(tmp_path), "--model", str(model)]
                  + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ShapeChainError:")
        assert "input extents must be >= 1" in err

    @pytest.mark.parametrize("mutate", [
        lambda h: h["layers"][0].pop("weights"),
        lambda h: h.update(layers=5),
    ], ids=["layer_without_weights", "layers_not_a_list"])
    def test_malformed_header(self, tmp_path, capsys, mutate):
        model = tmp_path / "broken.ldap1"
        save_model(build_cnn((1, 8, 8), [(2, 3, 1, True)], [], 2), str(model))
        rewrite_header(model, mutate)
        rc = main(["extract", "--out", str(tmp_path), "--model", str(model)]
                  + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: HeaderSchemaError:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mutate,message", [
        (lambda h: h["layers"][2].update(window=0), "pool window must be >= 1"),
        (lambda h: h["layers"][0].update(stride=0), "stride must be >= 1"),
        (lambda h: h["layers"][0].update(pad=10**12, stride=4 * 10**11),
         "layer 0 (conv): pad 1000000000000 must be below"),
    ], ids=["pool_window_0", "conv_stride_0", "conv_pad_huge"])
    def test_invalid_geometry(self, tmp_path, capsys, mutate, message):
        model = tmp_path / "broken.ldap1"
        save_model(build_cnn((1, 6, 6), [(2, 3, 1, True)], [], 2), str(model))
        rewrite_header(model, mutate)
        rc = main(["extract", "--out", str(tmp_path), "--model", str(model)]
                  + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ShapeChainError:")
        assert message in err
        assert err.count("\n") == 1

    def test_non_finite_weights(self, tmp_path, capsys):
        model = tmp_path / "broken.ldap1"
        save_model(build_cnn((1, 8, 8), [(2, 3, 1, True)], [], 2), str(model))
        poke_tensor(model, "layer0.weights", 3, float("nan"))
        rc = main(["extract", "--out", str(tmp_path), "--model", str(model)]
                  + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NonFiniteWeightsError:")
        assert "'layer0.weights'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("head,field", [
        ({"kind": "qda", "meta": {"lam": 0.001},
          "tensors": {"means": np.ones((2, 3)), "logprior": np.zeros(2)}},
         "tensor 'cov'"),
        ({"kind": "svml", "meta": {"b": 0.0}, "tensors": {"w": np.ones(3)}},
         "meta 'c'"),
        ({"kind": "svmr", "meta": {"c": 1.0, "b": 0.0},
          "tensors": {"sv_x": np.ones((1, 3)), "sv_y": np.ones(1),
                      "alpha": np.ones(1)}},
         "meta 'gamma'"),
        ({"kind": "svml", "meta": {"c": None, "b": 0.0},
          "tensors": {"w": np.ones(3)}},
         "meta 'c'"),
        ({"kind": "qda", "meta": {"lam": 0.001},
          "tensors": {"means": np.ones((2, 3)), "cov": np.stack([np.eye(2)] * 2),
                      "logprior": np.zeros(2)}},
         "tensor 'cov'"),
        ({"kind": "qda", "meta": {"lam": 0.001},
          "tensors": {"means": np.ones((2, 2)), "cov": np.zeros((2, 2, 2)),
                      "logprior": np.zeros(2)}},
         "not positive definite"),
        ({"kind": "svmr", "meta": {"c": 1.0, "b": 0.0, "gamma": 0.5},
          "tensors": {"sv_x": np.ones((2, 3)), "sv_y": np.ones(1),
                      "alpha": np.ones(2)}},
         "tensor 'sv_y'"),
        ({"kind": "svmr", "meta": {"c": 1.0, "b": 0.0, "gamma": 0.0},
          "tensors": {"sv_x": np.ones((1, 3)), "sv_y": np.ones(1),
                      "alpha": np.ones(1)}},
         "meta 'gamma' must be > 0"),
        ({"kind": "svml", "meta": {"c": -1.0, "b": 0.0},
          "tensors": {"w": np.ones(3)}},
         "meta 'c' must be > 0"),
    ], ids=["qda_without_cov", "svml_without_c", "svmr_without_gamma",
            "svml_null_c", "qda_cov_narrower_than_means", "qda_cov_not_pd",
            "svmr_short_sv_y", "svmr_gamma_0", "svml_c_negative"])
    def test_eval_rejects_a_malformed_stored_head(self, tmp_path, capsys,
                                                  head, field):
        model = tmp_path / "broken.ldap1"
        save_model(build_cnn((1, 8, 8), [(2, 3, 1, True)], [], 2), str(model),
                   classifier=head)
        rc = main(["eval", "--out", str(tmp_path), "--model", str(model)]
                  + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: HeaderSchemaError:")
        assert field in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("head", ["qda", "svml", "svmr"])
    def test_eval_refuses_non_finite_features(self, tmp_path, capsys, head):
        model = tmp_path / "overflowing.ldap1"
        net = build_cnn((1, 32, 32), [(2, 3, 1, True)], [], 2)
        net.layers[0].weights[:] = 3e38  # the firing overflows float32
        save_model(net, str(model))
        with np.errstate(over="ignore"):
            rc = main(["eval", "--out", str(tmp_path), "--model", str(model),
                       "--classifier", head] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: NonFiniteError:")
        assert "NaN or infinity" in err
        assert err.count("\n") == 1

    def test_qda_with_too_few_samples_names_cures_that_exist(self, piperun,
                                                              tmp_path, capsys):
        model = os.path.join(piperun, "model.ldap1")  # 32 last-conv neurons
        rc = main(["eval", "--out", str(tmp_path / "out"), "--model", model,
                   "--classifier", "qda"] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionError: class 0 has 4 samples "
                              "for 32 dimensions")
        assert "smaller k" in err and "more images per class" in err
        assert "lam" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_qda_lam_must_be_finite(self, piperun, tmp_path, capsys, lam):
        model = os.path.join(piperun, "model.ldap1")
        rc = main(["eval", "--out", str(tmp_path / "out"), "--model", model,
                   "--classifier", "qda", f"--lam={lam}"] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError: lam must be finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "model_with_head.ldap1").exists()

    def test_bad_grid_spec(self, piperun, tmp_path, capsys):
        model = os.path.join(piperun, "model.ldap1")
        rc = main(["prune", "--out", str(tmp_path), "--model", model,
                   "--grid", "backwards"] + TINY)
        assert rc == 2
        assert "T or lo:hi:step" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:0.5", "0:1:1e-8",
                                      "0:1000:1", "-1e308:1e308:1"])
    def test_grid_out_of_bounds(self, piperun, tmp_path, capsys, monkeypatch,
                                grid):
        def bounded_range(n, *rest):
            # the point count is checked before the list of points is built
            assert not rest and n <= 1000, "grid list built before the check"
            return range(n)

        monkeypatch.setattr(cli, "range", bounded_range, raising=False)
        model = os.path.join(piperun, "model.ldap1")
        rc = main(["prune", "--out", str(tmp_path), "--model", model,
                   f"--grid={grid}"] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError:")
        assert err.count("\n") == 1

    def test_grid_of_1000_points_is_accepted(self):
        grid = cli._parse_grid("0:0.999:0.001")
        assert len(grid) == 1000
        assert grid[-1] == 0.999

    @pytest.mark.parametrize("text,want", [
        ("0.3", [0.3]), ("0", [0.0]), ("1", [1.0]),
        ("0.3:0.3:0.1", [0.3]), ("0:0.2:0.1", [0.0, 0.1, 0.2]),
        ("0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
    ])
    def test_a_bare_number_is_a_one_point_grid(self, text, want):
        assert cli._parse_grid(text) == want

    @pytest.mark.parametrize("text,message", [
        ("", "must be T or lo:hi:step"),
        ("0.1:0.2", "must be T or lo:hi:step"),
        ("0.1:0.2:0.1:0.1", "must be T or lo:hi:step"),
        ("inf", "thresholds must be in [0,1]"),
        ("0:1.05:0.1", "thresholds must be in [0,1]"),
        ("0.2:0.1:0.1", "bad grid range"),
        ("0:0.5:0", "bad grid range"),
        ("0:0.5:inf", "bad grid range"),
        ("0:0.5:nan", "bad grid range"),
    ])
    def test_every_grid_rule_is_checked_by_the_parser(self, text, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            cli._parse_grid(text)

    @pytest.mark.parametrize("argv,message", [
        (["train", "--epochs", "-1"], "epochs must be >= 0"),
        (["prune", "--grid", "0.3", "--epochs", "-1",
          "--dep-images", "2"], "epochs must be >= 0"),
        (["prune", "--grid", "0.3", "--dep-images", "-1"],
         "--dep-images must be >= 0"),
        (["sweep", "--grid", "0:0.1:0.1", "--dep-images", "-1"],
         "--dep-images must be >= 0"),
        (["prune", "--grid", "1.5"], "thresholds must be in [0,1]"),
        (["prune", "--grid", "-0.1"], "thresholds must be in [0,1]"),
        (["prune", "--grid", "nan"], "thresholds must be in [0,1]"),
        (["prune", "--grid", "0.5:1.5:0.5", "--epochs", "1",
          "--dep-images", "2"], "thresholds must be in [0,1]"),
        (["sweep", "--grid", "0.5:1.5:0.5"], "thresholds must be in [0,1]"),
        (["prune", "--grid", "0:0.1:0.1", "--eps-acc", "0", "--epochs", "1",
          "--dep-images", "2"], "--eps-acc must be finite and > 0"),
        (["prune", "--grid", "0.3", "--eps-acc", "-1"],
         "--eps-acc must be finite and > 0"),
        (["sweep", "--grid", "0:0.1:0.1", "--eps-acc", "nan"],
         "--eps-acc must be finite and > 0"),
        (["train", "--lr", "-1"], "lr must be finite and > 0"),
        (["train", "--lr", "nan"], "lr must be finite and > 0"),
        (["prune", "--grid", "0.3", "--lr", "0"],
         "lr must be finite and > 0"),
        (["sweep", "--grid", "0:0.1:0.1", "--lr", "inf"],
         "lr must be finite and > 0"),
        (["bench", "--runs", "0"], "--runs must be in [1, 10000]"),
        (["bench", "--runs", "-5"], "--runs must be in [1, 10000]"),
        (["bench", "--runs", "10001"], "--runs must be in [1, 10000]"),
    ], ids=["train_epochs", "prune_epochs", "prune_dep_images",
            "sweep_dep_images", "prune_threshold_above_one",
            "prune_threshold_below_zero", "prune_threshold_nan",
            "prune_grid_past_one", "sweep_grid_past_one", "prune_eps_acc_zero",
            "prune_eps_acc_negative", "sweep_eps_acc_nan", "train_lr_negative",
            "train_lr_nan", "prune_lr_zero", "sweep_lr_inf", "bench_runs_zero",
            "bench_runs_negative", "bench_runs_too_many"])
    def test_negative_counts(self, piperun, tmp_path, capsys, argv, message):
        model = ["--model", os.path.join(piperun, "model.ldap1")]
        rc = main(argv + ["--out", str(tmp_path)]
                  + (model if argv[0] != "train" else []) + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError:")
        assert message in err
        assert err.count("\n") == 1
        # refused before the dependency walk, so no partial artifact is left
        assert not (tmp_path / "dependencies.csv").exists()

    def test_negative_seed_on_synthetic(self, tmp_path, capsys, monkeypatch):
        def no_images(*args):
            raise AssertionError("an image was built before the check")

        monkeypatch.setattr(data, "_synthesize", no_images)
        rc = main(["train", "--out", str(tmp_path), "--n-per-class", "6",
                   "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: ConfigurationError: seed must be >= 0, got -1\n"

    def test_negative_seed_on_a_pgm_dir(self, piperun, tmp_path, capsys,
                                        monkeypatch):
        """The dataset ignores the seed, so TrainConfig refuses it, before
        the model is loaded or ranked."""
        for label in (0, 1):
            (tmp_path / "pgm" / str(label)).mkdir(parents=True)
            for i in range(3):
                write_pgm(tmp_path / "pgm" / str(label) / f"{i}.pgm",
                          np.full((32, 32), 40 * i + 100 * label))

        def refuse(*args, **kwargs):
            raise AssertionError("analysis ran before the seed check")

        monkeypatch.setattr(cli, "_rank", refuse)
        monkeypatch.setattr(cli.modelio, "load_model", refuse)
        rc = main(["prune", "--out", str(tmp_path / "out"),
                   "--dataset", f"dir:{tmp_path / 'pgm'}", "--seed", "-1",
                   "--model", os.path.join(piperun, "model.ldap1"),
                   "--grid", "0.3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: ConfigurationError: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out" / "dependencies.csv").exists()

    def test_n_per_class_cap(self, tmp_path, capsys, monkeypatch):
        def no_images(*args):
            raise AssertionError("an image was built before the check")

        monkeypatch.setattr(data, "_synthesize", no_images)
        rc = main(["train", "--out", str(tmp_path), "--n-per-class", "100001"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigurationError:")
        assert "n_per_class <= 100000, got 100001" in err
        assert err.count("\n") == 1


class TestManifest:
    def test_entries_are_the_parsed_flags(self, piperun):
        """Each command's entries are its flags as parsed, with model paths
        as basenames, and nothing else."""
        model = os.path.join(piperun, "model.ldap1")
        pruned = os.path.join(piperun, "pruned.ldap1")
        argvs = {
            "train": ["train", "--epochs", "1"],
            "extract": ["extract", "--model", model],
            "analyze": ["analyze", "--model", model, "--k", "2"],
            "prune": ["prune", "--model", model, "--k", "2", "--grid",
                      "0.3", "--epochs", "1", "--dep-images", "2"],
            "eval": ["eval", "--model", pruned, "--classifier", "qda"],
            "bench": ["bench", "--model", model, "--pruned", pruned],
        }
        with open(os.path.join(piperun, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert set(manifest) == set(argvs)
        for command, argv in argvs.items():
            flags = vars(build_parser().parse_args(
                argv + ["--out", piperun] + TINY))
            entries = manifest[command]
            assert set(entries) == set(flags) - {"func", "command", "out"}
            for key, value in entries.items():
                if key in ("model", "pruned"):
                    assert value == os.path.basename(flags[key])
                else:
                    assert value == flags[key], (command, key)

    def test_eval_records_lam_and_c(self, piperun):
        with open(os.path.join(piperun, "manifest.json")) as fh:
            entries = json.load(fh)["eval"]
        assert entries["lam"] == 1e-3
        assert entries["c"] == 1.0
        assert entries["classifier"] == "qda"

    def test_grid_mode_records_the_flags_and_keeps_t0(self, piperun,
                                                       tmp_path):
        out = str(tmp_path)
        rc = main(["prune", "--out", out, "--model",
                   os.path.join(piperun, "model.ldap1"), "--k", "2",
                   "--grid", "0:0.1:0.1", "--epochs", "0",
                   "--dep-images", "2"] + TINY)
        assert rc == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            entries = json.load(fh)["prune"]
        assert "threshold" not in entries
        assert entries["grid"] == "0:0.1:0.1"
        _, info = load_model(os.path.join(out, "pruned.ldap1"))
        t_0 = info["provenance"]["threshold"]
        assert t_0 in (0.0, 0.1)
        assert info["provenance"]["grid"] == "0:0.1:0.1"
        text = open(os.path.join(out, "report.txt")).read()
        assert f"plateau threshold t0={t_0:.6g}" in text


class TestEvalHeads:
    @pytest.mark.parametrize("kind", ["svml", "svmr"])
    def test_svm_head(self, piperun, tmp_path, kind):
        out = str(tmp_path)
        rc = main(["eval", "--out", out, "--model",
                   os.path.join(piperun, "pruned.ldap1"), "--classifier", kind,
                   "--c", "0.5"] + TINY)
        assert rc == 0
        header, rows = read_csv(os.path.join(out, "eval.csv"))
        assert header == ["id", "true", "pred"]
        assert len(rows) == 4
        assert all(r[2] in ("0", "1") for r in rows)
        _, info = load_model(os.path.join(out, "model_with_head.ldap1"))
        assert info["classifier"]["kind"] == kind
        assert info["classifier"]["meta"]["c"] == 0.5
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["eval"]["c"] == 0.5


class TestCollapseWarning:
    """train warns on stderr when its final eval accuracy is no better than
    always guessing the eval split's majority class; the exit code and the
    --out files stay as they are."""

    @staticmethod
    def stub_train(monkeypatch, eval_acc):
        """Training that ends at eval_acc after one epoch, weights untouched."""
        def run(net, tr_imgs, tr_labels, te_imgs, te_labels, config):
            return TrainResult(epoch_log=[(0, 0.693147, 0.5, eval_acc)],
                               final_train_acc=0.5, final_eval_acc=eval_acc)

        monkeypatch.setattr(cli, "train", run)

    @pytest.mark.parametrize("eval_acc,warned", [(0.25, True), (0.5, True),
                                                 (0.75, False)])
    def test_balanced_split(self, tmp_path, capsys, monkeypatch, eval_acc,
                            warned):
        self.stub_train(monkeypatch, eval_acc)
        assert main(["train", "--out", str(tmp_path), "--epochs", "1"] + TINY) == 0
        out, err = capsys.readouterr()
        assert out == f"trained: train_acc=0.5000 eval_acc={eval_acc:.4f}\n"
        assert err == (f"warning: eval_acc={eval_acc:.4f} is no better than "
                       "always guessing the majority class (0.5000): training "
                       "collapsed\n" if warned else "")
        assert sorted(os.listdir(tmp_path)) == [
            "manifest.json", "model.ldap1", "report.txt", "train_log.csv"]
        assert "warning" not in (tmp_path / "report.txt").read_text()

    @pytest.mark.parametrize("eval_acc,warned", [(2 / 3, True), (1.0, False)])
    def test_majority_is_read_from_the_eval_labels(self, tmp_path, capsys,
                                                   monkeypatch, eval_acc, warned):
        # 10 and 5 images per class: the test split holds 2 and 1
        for label, n in ((0, 10), (1, 5)):
            (tmp_path / "pgm" / str(label)).mkdir(parents=True)
            for i in range(n):
                write_pgm(tmp_path / "pgm" / str(label) / f"{i}.pgm",
                          np.full((32, 32), 10 * i + 100 * label))
        self.stub_train(monkeypatch, eval_acc)
        assert main(["train", "--out", str(tmp_path / "out"), "--epochs", "1",
                     "--dataset", f"dir:{tmp_path / 'pgm'}"]) == 0
        err = capsys.readouterr().err
        assert ("(0.6667): training collapsed" in err) == warned
        assert err.count("\n") == warned

    def test_no_epoch_no_warning(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path), "--epochs", "0"] + TINY) == 0
        assert capsys.readouterr().err == ""
