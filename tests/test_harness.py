"""Harness tests: config round-trips, the training loop and its determinism,
sequential-vs-parallel evaluation, the perturbation study, ablation plumbing,
coefficient dumps, and the CLI exit-code contract."""

import numpy as np
import pytest

from querymix import model as model_module
from querymix.errors import ContractError, NumericalError, ParseError
from querymix.harness import loop, studies
from querymix.harness.cli import entrypoint
from querymix.harness.config import (RunConfig, config_to_text, default_config,
                                     parse_config, read_config, write_config)
from querymix.model import Detector, load_checkpoint, save_checkpoint
from querymix.nn import TransformerConfig
from querymix.scenes import BenchmarkParams, generate_dataset, write_dataset


def micro_config(mode="dynamic"):
    cfg = default_config()
    cfg.model.mode = mode
    cfg.model.transformer = TransformerConfig(feature_dim=16, heads=2,
                                              encoder_layers=1, decoder_layers=1,
                                              ffn_dim=32)
    cfg.model.m_modulated = 4
    cfg.model.ratio = 2
    cfg.model.n_basic = 8
    cfg.model.image_size = 32
    cfg.model.backbone_widths = (4, 8)
    cfg.model.coeff_hidden = 16
    cfg.data.image_size = 32
    cfg.data.train_scenes = 8
    cfg.data.val_scenes = 4
    cfg.schedule.epochs = 1
    cfg.schedule.batch_size = 4
    return cfg


def micro_model(mode="dynamic", seed=0, m=4):
    cfg = micro_config(mode)
    cfg.model.m_modulated = m
    if mode == "dynamic":
        cfg.model.n_basic = cfg.model.ratio * m
    return Detector(cfg.model, seed=seed), cfg


class TestConfig:
    def test_default_round_trip(self):
        cfg = default_config()
        assert parse_config(config_to_text(cfg)) == cfg

    def test_modified_round_trip(self):
        cfg = micro_config("two_group")
        cfg.beta = 0.5
        cfg.seed = 17
        cfg.data.train_path = "some/dir/train.txt"
        cfg.data.background_tint = False
        cfg.optimizer.learning_rate = 3e-4
        assert parse_config(config_to_text(cfg)) == cfg

    def test_partial_override(self):
        cfg = parse_config("model.ratio = 8\nmodel.n_basic = 128\nbeta = 0.25\n")
        assert cfg.model.ratio == 8 and cfg.model.n_basic == 128
        assert cfg.beta == 0.25
        assert cfg.schedule.epochs == default_config().schedule.epochs

    def test_comments_and_blanks(self):
        cfg = parse_config("# heading\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("seed = 1\nmodel.bananas = 4\n")

    def test_bad_value(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("seed = soon\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("seed 1\n")

    def test_file_round_trip(self, tmp_path):
        cfg = micro_config()
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_validate_rejects(self):
        bad = default_config()
        bad.optimizer.learning_rate = 0.0
        with pytest.raises(ContractError):
            bad.validate()
        bad = default_config()
        bad.schedule.epochs = 0
        with pytest.raises(ContractError):
            bad.validate()
        bad = default_config()
        bad.beta = -0.5
        with pytest.raises(ContractError):
            bad.validate()
        bad = default_config()
        bad.data.num_classes = 5
        with pytest.raises(ContractError):
            bad.validate()

    def test_lr_drop_default_is_80_percent(self):
        cfg = default_config()
        cfg.schedule.epochs = 10
        assert cfg.lr_drop() == 8
        cfg.schedule.lr_drop_epoch = 3
        assert cfg.lr_drop() == 3


class TestTrainLoop:
    def test_smoke_single_epoch(self):
        model, report = loop.train(micro_config())
        assert len(report.epoch_rows) == 1
        assert np.isfinite(report.epoch_rows[0][1])
        assert 0.0 <= report.final.mean_ap <= 1.0

    def test_row_count_equals_epochs(self):
        cfg = micro_config()
        cfg.schedule.epochs = 3
        _, report = loop.train(cfg)
        assert [row[0] for row in report.epoch_rows] == [1, 2, 3]

    def test_same_seed_identical_hash(self):
        cfg = micro_config()
        _, a = loop.train(cfg)
        _, b = loop.train(micro_config())
        assert a.content_hash() == b.content_hash()
        assert a.epoch_rows == b.epoch_rows

    def test_different_seed_different_loss(self):
        cfg = micro_config()
        _, a = loop.train(cfg)
        other = micro_config()
        other.seed = 1
        _, b = loop.train(other)
        assert a.epoch_rows[-1][1] != b.epoch_rows[-1][1]

    def test_wall_clock_excluded_from_hash(self):
        _, report = loop.train(micro_config())
        assert "wall_clock_seconds" in report.to_csv()
        assert "wall_clock_seconds" not in report.body_csv()
        report.wall_clock = 1234.5
        _, again = loop.train(micro_config())
        assert report.content_hash() == again.content_hash()

    def test_artifacts_written(self, tmp_path):
        cfg = micro_config()
        model, report = loop.train(cfg, out_dir=tmp_path)
        assert (tmp_path / "checkpoint.ckpt").exists()
        csv = (tmp_path / "report.csv").read_text()
        assert csv.splitlines()[0] == "metric,value"
        assert "train_loss@epoch_001," in csv
        assert "val_map@epoch_001," in csv
        assert "checkpoint_sha256," in csv
        assert "config.model.mode,dynamic" in csv
        assert csv.rstrip().splitlines()[-1].startswith("wall_clock_seconds,")
        assert read_config(tmp_path / "config.txt") == cfg
        loaded = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert loaded.config == cfg.model

    def test_all_modes_train(self):
        for mode in ("static", "dynamic", "two_group", "direct_mlp"):
            _, report = loop.train(micro_config(mode))
            assert np.isfinite(report.epoch_rows[0][1]), mode

    def test_non_finite_loss_aborts(self, monkeypatch):
        from querymix.tensor import Tensor

        def poisoned(model, images, gts, beta):
            return Tensor(np.inf)
        monkeypatch.setattr(loop, "training_loss", poisoned)
        with pytest.raises(NumericalError, match="epoch 1, batch 0"):
            loop.train(micro_config())

    def test_overfit_sanity_train_ap_at_least_val(self):
        # sanity: after convergence the training set scores at least as
        # well as the held-out set
        cfg = micro_config()
        cfg.data.train_scenes = 12
        cfg.data.val_scenes = 8
        cfg.schedule.epochs = 30
        cfg.optimizer.learning_rate = 3e-3
        model, report = loop.train(cfg)
        train_scenes, val_scenes, params = loop.load_datasets(cfg)
        train_ap = loop.evaluate_model(model, train_scenes, params).mean_ap
        val_ap = loop.evaluate_model(model, val_scenes, params).mean_ap
        assert train_ap >= val_ap
        assert report.epoch_rows[-1][1] < report.epoch_rows[0][1]


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        model, cfg = micro_model()
        with pytest.raises(ContractError):
            loop.evaluate_model(model, [], cfg.benchmark_params())

    def test_class_mismatch_rejected(self):
        model, cfg = micro_model()
        params = BenchmarkParams(num_classes=3, image_size=32)
        scenes = generate_dataset(params, 4, master_seed=0)
        with pytest.raises(ContractError):
            loop.evaluate_model(model, scenes, params)

    def test_image_size_mismatch_rejected(self):
        model, cfg = micro_model()
        params = BenchmarkParams(num_classes=6, image_size=64)
        scenes = generate_dataset(params, 4, master_seed=0)
        with pytest.raises(ContractError):
            loop.evaluate_model(model, scenes, params)

    def test_repeat_evaluation_identical(self):
        model, cfg = micro_model()
        params = cfg.benchmark_params()
        scenes = generate_dataset(params, 10, master_seed=2)
        a = loop.evaluate_model(model, scenes, params)
        b = loop.evaluate_model(model, scenes, params)
        assert a == b

    def test_parallel_matches_sequential(self):
        model, cfg = micro_model()
        params = cfg.benchmark_params()
        scenes = generate_dataset(params, 60, master_seed=3)
        seq = loop.evaluate_model(model, scenes, params, workers=1)
        par = loop.evaluate_model(model, scenes, params, workers=4)
        assert seq == par


class TestPerturbationStudy:
    def test_table_shape_and_averaged_spread(self):
        model, cfg = micro_model("static", m=8)
        params = cfg.benchmark_params()
        scenes = generate_dataset(params, 10, master_seed=4)
        results = studies.perturbation_study(model, scenes, params, ratio=2, trials=3)
        assert set(results) == {"convex", "nonconvex", "averaged", "random_sample"}
        for mode, (mean, spread, values) in results.items():
            expect = 1 if mode == "averaged" else 3
            assert len(values) == expect
            assert spread >= 0.0
        assert results["averaged"][1] == 0.0

    def test_deterministic_given_seed(self):
        model, cfg = micro_model("static", m=8)
        params = cfg.benchmark_params()
        scenes = generate_dataset(params, 8, master_seed=5)
        a = studies.perturbation_study(model, scenes, params, ratio=2, trials=2, seed=9)
        b = studies.perturbation_study(model, scenes, params, ratio=2, trials=2, seed=9)
        assert a == b

    def test_dynamic_checkpoint_rejected(self):
        model, cfg = micro_model("dynamic")
        scenes = generate_dataset(cfg.benchmark_params(), 4, master_seed=0)
        with pytest.raises(ContractError):
            studies.perturbation_study(model, scenes, cfg.benchmark_params(), ratio=2)

    def test_indivisible_ratio_rejected(self):
        model, cfg = micro_model("static", m=8)
        scenes = generate_dataset(cfg.benchmark_params(), 4, master_seed=0)
        with pytest.raises(ContractError):
            studies.perturbation_study(model, scenes, cfg.benchmark_params(), ratio=3)

    def test_csv_lists_all_modes(self):
        model, cfg = micro_model("static", m=8)
        params = cfg.benchmark_params()
        scenes = generate_dataset(params, 6, master_seed=6)
        csv = studies.perturbation_csv(
            studies.perturbation_study(model, scenes, params, ratio=2, trials=2))
        lines = csv.splitlines()
        assert lines[0] == "mode,trials,mean_map,spread"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "convex", "nonconvex", "averaged", "random_sample"]


class TestAblate:
    def test_apply_axis(self):
        base = micro_config()
        assert studies.apply_axis(base, "beta", 0.5).beta == 0.5
        r8 = studies.apply_axis(base, "ratio", 4)
        assert r8.model.ratio == 4 and r8.model.n_basic == 16
        assert studies.apply_axis(base, "direct_mlp", "direct_mlp").model.mode == "direct_mlp"
        assert studies.apply_axis(base, "epochs", 2).schedule.epochs == 2
        assert studies.apply_axis(base, "tint_off", "false").data.background_tint is False
        assert base.beta == 1.0  # base untouched
        with pytest.raises(ContractError):
            studies.apply_axis(base, "wingspan", 1)

    def test_ablate_trains_per_value(self):
        rows = studies.ablate(micro_config(), "beta", [0.0, 1.0])
        assert [v for v, _ in rows] == ["0.0", "1.0"]
        for _, vmap in rows:
            assert 0.0 <= vmap <= 1.0
        csv = studies.ablation_csv("beta", rows)
        assert csv.splitlines()[0] == "beta,val_map"


class TestDumpCoefficients:
    def test_rows_and_group_sums(self):
        model, cfg = micro_model("dynamic")
        params = cfg.benchmark_params()
        scenes = generate_dataset(params, 8, master_seed=7)
        rows, points = studies.dump_coefficients(model, scenes, params)
        assert len(rows) == 8 and points.shape == (8, 2)
        m, r = cfg.model.m_modulated, cfg.model.ratio
        for idx, scene_type, w in rows:
            assert w.size == m * r
            sums = w.reshape(m, r).sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-6
        assert [t for _, t, _ in rows] == [sc.scene_type for sc in scenes]

    def test_deterministic(self):
        model, cfg = micro_model("dynamic")
        params = cfg.benchmark_params()
        scenes = generate_dataset(params, 5, master_seed=8)
        a_rows, a_pts = studies.dump_coefficients(model, scenes, params)
        b_rows, b_pts = studies.dump_coefficients(model, scenes, params)
        assert a_pts.tobytes() == b_pts.tobytes()
        for (_, _, wa), (_, _, wb) in zip(a_rows, b_rows):
            assert wa.tobytes() == wb.tobytes()

    def test_static_model_rejected(self):
        model, cfg = micro_model("static")
        scenes = generate_dataset(cfg.benchmark_params(), 4, master_seed=0)
        with pytest.raises(ContractError):
            studies.dump_coefficients(model, scenes, cfg.benchmark_params())

    def test_pca_line_fixture(self):
        t = np.linspace(-2, 2, 9)
        x = np.stack([3 * t, -t, np.zeros_like(t)], axis=1)
        pts = studies.pca_2d(x)
        # all variance on the first axis, oriented by the largest loading
        assert np.abs(pts[:, 1]).max() < 1e-9
        assert np.abs(np.abs(pts[:, 0]) - np.abs(t) * np.sqrt(10)).max() < 1e-9
        assert pts[-1, 0] > 0  # component points along +3x, the major loading

    def test_cluster_separation_orders_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.05, (20, 2))
        b = rng.normal(5, 0.05, (20, 2))
        inter, intra = studies.cluster_separation(
            np.vstack([a, b]), [0] * 20 + [1] * 20)
        assert inter > intra
        with pytest.raises(ContractError):
            studies.cluster_separation(a, [0] * 20)


class TestCli:
    def write_micro(self, tmp_path, mode="dynamic"):
        cfg = micro_config(mode)
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        return cfg, path

    def test_gen_data(self, tmp_path, capsys):
        cfg, cfg_path = self.write_micro(tmp_path)
        code = entrypoint(["gen-data", "--config", str(cfg_path),
                           "--out", str(tmp_path / "data")])
        assert code == 0
        from querymix.scenes import read_dataset
        train = read_dataset(tmp_path / "data" / "train.txt")
        val = read_dataset(tmp_path / "data" / "val.txt")
        assert len(train) == cfg.data.train_scenes
        assert len(val) == cfg.data.val_scenes

    def test_train_then_eval(self, tmp_path, capsys):
        cfg, cfg_path = self.write_micro(tmp_path)
        run_dir = tmp_path / "run"
        assert entrypoint(["train", "--config", str(cfg_path),
                           "--out", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "final val mAP" in out and "report hash" in out

        assert entrypoint(["gen-data", "--config", str(cfg_path),
                           "--out", str(tmp_path / "data")]) == 0
        code = entrypoint(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                           "--data", str(tmp_path / "data" / "val.txt"),
                           "--config", str(cfg_path), "--workers", "2",
                           "--out", str(tmp_path / "evalout")])
        assert code == 0
        assert (tmp_path / "evalout" / "eval.csv").read_text().startswith("metric,value")

    def test_perturb_and_dump_cli(self, tmp_path, capsys):
        cfg, cfg_path = self.write_micro(tmp_path, mode="static")
        cfg.model.m_modulated = 8
        write_config(cfg, cfg_path)
        run_dir = tmp_path / "run"
        assert entrypoint(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert entrypoint(["gen-data", "--config", str(cfg_path),
                           "--out", str(tmp_path / "data")]) == 0
        data = str(tmp_path / "data" / "val.txt")
        ckpt = str(run_dir / "checkpoint.ckpt")
        code = entrypoint(["perturb", "--checkpoint", ckpt, "--data", data,
                           "--config", str(cfg_path),
                           "--ratio", "2", "--trials", "2",
                           "--out", str(tmp_path / "pert")])
        assert code == 0
        table = (tmp_path / "pert" / "perturbation.csv").read_text()
        assert table.splitlines()[0] == "mode,trials,mean_map,spread"
        averaged = [ln for ln in table.splitlines() if ln.startswith("averaged,")][0]
        assert averaged.split(",")[3] == "0.000000"

        # dumping from a static checkpoint is a contract violation -> exit 2
        assert entrypoint(["dump-coeffs", "--checkpoint", ckpt, "--data", data,
                           "--config", str(cfg_path),
                           "--out", str(tmp_path / "dump")]) == 2

    def test_dump_coeffs_cli(self, tmp_path, capsys):
        cfg, cfg_path = self.write_micro(tmp_path)
        run_dir = tmp_path / "run"
        assert entrypoint(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert entrypoint(["gen-data", "--config", str(cfg_path),
                           "--out", str(tmp_path / "data")]) == 0
        code = entrypoint(["dump-coeffs",
                           "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                           "--data", str(tmp_path / "data" / "val.txt"),
                           "--config", str(cfg_path),
                           "--out", str(tmp_path / "dump")])
        assert code == 0
        coeffs = (tmp_path / "dump" / "coefficients.csv").read_text().splitlines()
        pca = (tmp_path / "dump" / "pca.csv").read_text().splitlines()
        assert len(coeffs) == 1 + cfg.data.val_scenes
        assert len(pca) == 1 + cfg.data.val_scenes
        assert pca[0] == "scene,scene_type,pc1,pc2"

    def test_ablate_cli(self, tmp_path, capsys):
        cfg, cfg_path = self.write_micro(tmp_path)
        code = entrypoint(["ablate", "--config", str(cfg_path), "--axis", "beta",
                           "--values", "0,1", "--out", str(tmp_path / "abl")])
        assert code == 0
        table = (tmp_path / "abl" / "ablation.csv").read_text()
        assert table.splitlines()[0] == "beta,val_map"
        assert len(table.splitlines()) == 3

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.bananas = 4\n")
        assert entrypoint(["train", "--config", str(bad),
                           "--out", str(tmp_path / "x")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert entrypoint(["train", "--config", str(tmp_path / "nope.cfg"),
                           "--out", str(tmp_path / "x")]) == 2
        assert entrypoint(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                           "--data", str(tmp_path / "nope.txt")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 2

    @pytest.mark.parametrize("name, value, message", [
        ("config.mode", 9.0, "config.mode 9"),
        ("config.mode", float("nan"), "config.mode must hold integers"),
        ("config.backbone_widths", None, "missing config.backbone_widths"),
        ("config.transformer.heads", 0.0, "attention head"),
    ])
    def test_malformed_checkpoint_config_exit_code(self, tmp_path, capsys, monkeypatch,
                                                   name, value, message):
        real_entries = model_module._config_entries

        def corrupted(config):  # replace the entry, or drop it when value is None
            return [(k, np.asarray(value) if k == name else v)
                    for k, v in real_entries(config) if k != name or value is not None]

        model, cfg = micro_model()
        ckpt = tmp_path / "bad.ckpt"
        monkeypatch.setattr(model_module, "_config_entries", corrupted)
        save_checkpoint(model, ckpt)
        monkeypatch.undo()
        data = tmp_path / "val.txt"
        write_dataset(generate_dataset(cfg.benchmark_params(), 4, 0), data)
        assert entrypoint(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        cfg, cfg_path = self.write_micro(tmp_path)
        assert entrypoint(["gen-data", "--config", str(cfg_path), "--seed", "-3",
                           "--out", str(tmp_path / "d")]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_numerical_abort_exit_code(self, tmp_path, capsys, monkeypatch):
        def blow_up(config, out_dir=None, log=None):
            raise NumericalError("non-finite loss at epoch 1, batch 0")
        monkeypatch.setattr(loop, "train", blow_up)
        cfg, cfg_path = self.write_micro(tmp_path)
        assert entrypoint(["train", "--config", str(cfg_path),
                           "--out", str(tmp_path / "x")]) == 3
        assert "numerical abort" in capsys.readouterr().err
