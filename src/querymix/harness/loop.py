"""Training loop and evaluation.

Training is single threaded and deterministic given (config, seed); the
optional parallel evaluation mode shards fixed-size chunks of scenes across
threads and produces reports identical to the sequential path, because chunk
boundaries (and therefore all array shapes) do not depend on the worker
count.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import tensor as T
from ..errors import ContractError, NumericalError
from ..matching import batch_hungarian_loss
from ..model import Detector, extract_detections, save_checkpoint
from ..nn import Adam, clip_global_norm
from ..scenes import (ApReport, BenchmarkParams, average_precision,
                      generate_dataset, read_dataset, render, report_to_csv)
from ..tensor import Tensor
from .config import RunConfig, config_to_text

EVAL_CHUNK = 25


def load_datasets(config: RunConfig):
    """Returns (train scenes, val scenes, benchmark params), generating the
    datasets procedurally when no paths are configured."""
    params = config.benchmark_params()
    d = config.data
    train = (read_dataset(d.train_path) if d.train_path
             else generate_dataset(params, d.train_scenes, d.data_seed))
    val = (read_dataset(d.val_path) if d.val_path
           else generate_dataset(params, d.val_scenes, d.data_seed + 1))
    return train, val, params


def render_all(scenes, params: BenchmarkParams) -> np.ndarray:
    return np.stack([render(sc, params) for sc in scenes])


def _branch_loss(layer_sets, gts) -> Tensor:
    total = None
    for det in layer_sets:
        term = batch_hungarian_loss(det.boxes, det.logits, gts)
        total = term if total is None else T.add(total, term)
    return total


def training_loss(model: Detector, images: Tensor, gts, beta: float) -> Tensor:
    """Per-decoder-layer set losses on the main branch; two-branch modes add
    beta times the auxiliary branch, computed in one forward pass over a
    shared trunk."""
    y_main, y_aux, _ = model.forward_train(images)
    loss = _branch_loss(y_main, gts)
    if beta > 0 and y_aux is not None:
        loss = T.add(loss, T.scale(_branch_loss(y_aux, gts), beta))
    return loss


@dataclass
class ExperimentReport:
    epoch_rows: list          # (epoch, mean train loss, val mAP)
    final: ApReport
    wall_clock: float
    config_text: str
    checkpoint_hash: str

    def body_csv(self) -> str:
        """Everything except the wall clock; this is what gets hashed."""
        rows = ["metric,value"]
        for epoch, loss, vmap in self.epoch_rows:
            rows.append(f"train_loss@epoch_{epoch:03d},{loss:.6f}")
            rows.append(f"val_map@epoch_{epoch:03d},{vmap:.6f}")
        rows += report_to_csv(self.final).splitlines()[1:]
        rows.append(f"checkpoint_sha256,{self.checkpoint_hash}")
        for line in self.config_text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.partition(" = ")
                rows.append(f"config.{key},{value}")
        return "\n".join(rows) + "\n"

    def to_csv(self) -> str:
        return self.body_csv() + f"wall_clock_seconds,{self.wall_clock:.6f}\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.body_csv().encode("ascii")).hexdigest()


def _checkpoint_hash(model: Detector, out_path: Path | None) -> str:
    if out_path is not None:
        save_checkpoint(model, out_path)
        return hashlib.sha256(out_path.read_bytes()).hexdigest()
    with tempfile.NamedTemporaryFile(suffix=".ckpt") as tmp:
        save_checkpoint(model, tmp.name)
        return hashlib.sha256(Path(tmp.name).read_bytes()).hexdigest()


def train(config: RunConfig, out_dir=None, log=None):
    """Train a detector per the config; returns (model, ExperimentReport).

    With ``out_dir`` set, writes checkpoint.ckpt, report.csv, and config.txt
    there. Aborts with a diagnostic on a non-finite loss.
    """
    config.validate()
    start = time.perf_counter()
    train_scenes, val_scenes, params = load_datasets(config)
    if not train_scenes or not val_scenes:
        raise ContractError("training needs nonempty train and val datasets")
    train_images = render_all(train_scenes, params)
    val_images = render_all(val_scenes, params)

    model = Detector(config.model, seed=config.seed)
    opt = Adam(model.parameters(), lr=config.optimizer.learning_rate,
               weight_decay=config.optimizer.weight_decay)
    rng = np.random.default_rng(config.seed)
    batch = config.schedule.batch_size
    drop = config.lr_drop()

    epoch_rows = []
    val_report = None
    for epoch in range(1, config.schedule.epochs + 1):
        if epoch == drop + 1:
            opt.lr *= 0.1
        order = rng.permutation(len(train_scenes))
        losses = []
        for step, lo in enumerate(range(0, len(order), batch)):
            idx = order[lo:lo + batch]
            images = Tensor(train_images[idx])
            gts = [train_scenes[i] for i in idx]
            loss = training_loss(model, images, gts, config.beta)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericalError(
                    f"non-finite loss {value} at epoch {epoch}, batch {step}")
            T.backward(loss)
            clip_global_norm(opt.params, config.optimizer.grad_clip)
            opt.step()
            opt.zero_grads()
            losses.append(value)
        val_report = evaluate_model(model, val_scenes, params, images=val_images)
        epoch_rows.append((epoch, float(np.mean(losses)), val_report.mean_ap))
        if log:
            log(f"epoch {epoch:3d}  loss {epoch_rows[-1][1]:.4f}  "
                f"val mAP {val_report.mean_ap:.4f}")

    out_dir = Path(out_dir) if out_dir is not None else None
    ckpt_path = out_dir / "checkpoint.ckpt" if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(
        epoch_rows=epoch_rows,
        final=val_report,
        wall_clock=time.perf_counter() - start,
        config_text=config_to_text(config),
        checkpoint_hash=_checkpoint_hash(model, ckpt_path))
    if out_dir:
        (out_dir / "report.csv").write_text(report.to_csv(), encoding="ascii")
        (out_dir / "config.txt").write_text(report.config_text, encoding="ascii")
    return model, report


def evaluate_model(model: Detector, scenes, params: BenchmarkParams,
                   images: np.ndarray | None = None, workers: int = 1) -> ApReport:
    """forward_infer over every scene, then COCO-style mAP."""
    if not scenes:
        raise ContractError("cannot evaluate on an empty dataset")
    if params.num_classes != model.config.num_classes:
        raise ContractError(
            f"model predicts {model.config.num_classes} classes but the dataset "
            f"has {params.num_classes}")
    if params.image_size != model.config.image_size:
        raise ContractError(
            f"model expects {model.config.image_size}px images, dataset renders "
            f"{params.image_size}px")
    worst = max((c for sc in scenes for c, _ in sc.objects), default=0)
    if worst >= params.num_classes:
        raise ContractError(f"dataset contains class {worst} >= {params.num_classes}")
    if images is None:
        images = render_all(scenes, params)

    bounds = [(lo, min(lo + EVAL_CHUNK, len(scenes)))
              for lo in range(0, len(scenes), EVAL_CHUNK)]
    preds: list = [None] * len(scenes)

    def run_chunk(span):
        lo, hi = span
        det = model.forward_infer(Tensor(images[lo:hi]))
        for j in range(hi - lo):
            preds[lo + j] = extract_detections(det.boxes.data[j], det.logits.data[j], 0.0)

    with T.no_grad():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_chunk, bounds))
        else:
            for span in bounds:
                run_chunk(span)
    return average_precision(preds, scenes)
