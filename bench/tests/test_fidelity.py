"""The benchmark drivers time the program itself, not a fork of it.

    python3 -m pytest bench/tests       # from the repository root
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from querymix import model, scenes  # noqa: E402
from querymix.harness import cli, loop  # noqa: E402
from querymix.harness.config import RunConfig  # noqa: E402
from querymix.model import ModelConfig  # noqa: E402
from querymix.nn import TransformerConfig  # noqa: E402
from tracer import Tracer  # noqa: E402


def micro_config(beta: float) -> RunConfig:
    cfg = RunConfig(seed=3, beta=beta)
    cfg.model = ModelConfig(
        mode="dynamic", n_basic=8, m_modulated=4, ratio=2, num_classes=3,
        transformer=TransformerConfig(feature_dim=16, heads=2, encoder_layers=1,
                                      decoder_layers=2, ffn_dim=32),
        image_size=32, backbone_widths=(4, 8), coeff_hidden=16)
    cfg.data.train_scenes = 20   # 3 batches per epoch, the last one short
    cfg.data.val_scenes = 6
    cfg.data.num_classes = 3
    cfg.data.image_size = 32
    cfg.schedule.epochs = 3      # the lr drop lands on epoch 3
    cfg.schedule.batch_size = 8
    return cfg


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_train_driver_matches_loop_train(beta):
    _, report = loop.train(micro_config(beta))
    cfg = micro_config(beta)
    trainer = workloads.Trainer(cfg)
    per_epoch = {}
    steps = cfg.schedule.epochs * -(-cfg.data.train_scenes // cfg.schedule.batch_size)
    for _ in range(steps):
        value = trainer.step()
        per_epoch.setdefault(trainer.epoch, []).append(value)
    assert [(e, float(np.mean(v))) for e, v in per_epoch.items()] == \
        [(e, loss) for e, loss, _ in report.epoch_rows]


@pytest.mark.parametrize("workers", [1, 2])
def test_eval_driver_matches_cli(tmp_path, workers):
    ckpt = workloads.FIXTURE_DIR / workloads.fixture()["checkpoint"]
    detector = model.load_checkpoint(ckpt)
    params = workloads.eval_params(detector)
    data = tmp_path / "val.scenes"
    scenes.write_dataset(scenes.generate_dataset(params, 60, 11), data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.entrypoint(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                               "--workers", str(workers)]) == 0
    report = workloads.evaluate(detector, scenes.read_dataset(data), params)
    assert report.mean_ap > 0
    assert scenes.report_to_text(report) + "\n" == out.getvalue()


@pytest.mark.parametrize("beta, useful", [(1.0, 1.0), (0.0, 0.0)])
def test_trace_counts_useful_basic_decodes(beta, useful):
    trainer = workloads.Trainer(micro_config(beta))
    with Tracer() as tracer:
        for i in range(2):
            tracer.unit = f"step:{i}"
            trainer.step()
    metrics = tracer.layer_metrics(workloads.EVAL_WORKERS)
    assert metrics["model.decoder_basic.useful_ratio"][0] == useful
    assert metrics["nn.Decoder.basic.ms"][0] > 0
    assert metrics["matching.hungarian.calls"][0] == (32 if beta else 16)
    assert not hasattr(loop.training_loss, "__wrapped__")  # uninstalled
