"""Experiment suite: the fixed-combination perturbation study, the ablation
axes, and the combination-coefficient dump with its PCA projection."""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from .. import tensor as T
from ..errors import ContractError
from ..model import Detector
from ..queries import FIXED_MODES, QueryBank, coeff_forward, combine_fixed
from ..scenes import BenchmarkParams, render
from ..tensor import Tensor
from .config import RunConfig
from .loop import evaluate_model, render_all, train

ABLATION_AXES = ("beta", "ratio", "direct_mlp", "epochs", "tint_off")


def perturbation_study(model: Detector, scenes, params: BenchmarkParams,
                       ratio: int, trials: int = 6, seed: int = 0,
                       workers: int = 1) -> dict:
    """Replace a trained static model's n queries with fixed combinations
    (group ratio ``ratio``) and evaluate each mode ``trials`` times.

    Returns {mode: (mean mAP, spread, per-trial values)}; spread is the
    population standard deviation. The deterministic averaged mode runs once,
    so its spread is exactly 0.
    """
    if model.config.mode != "static":
        raise ContractError("the perturbation study needs a static-query model")
    n = model.config.m_modulated
    if ratio < 1 or n % ratio:
        raise ContractError(f"{n} queries are not divisible into groups of {ratio}")
    if trials < 1:
        raise ContractError(f"need at least 1 trial, got {trials}")
    if seed < 0:
        raise ContractError("seed must be a nonnegative integer")

    f = model.config.transformer.feature_dim
    bank = QueryBank(n, ratio, f, np.random.default_rng(0))
    bank.basic.data = model.queries.data.copy()

    probe = Detector(replace(model.config, m_modulated=n // ratio), seed=0)
    trained = dict(model.named_parameters())
    for name, p in probe.named_parameters():
        if name != "queries":
            p.data = trained[name].data.copy()

    images = render_all(scenes, params)
    results = {}
    for mode in FIXED_MODES:
        runs = 1 if mode == "averaged" else trials
        values = []
        for trial in range(runs):
            probe.queries.data = combine_fixed(bank, mode, seed=seed * 1009 + trial).data
            report = evaluate_model(probe, scenes, params, images=images,
                                    workers=workers)
            values.append(report.mean_ap)
        results[mode] = (float(np.mean(values)), float(np.std(values)), values)
    return results


def perturbation_csv(results: dict) -> str:
    rows = ["mode,trials,mean_map,spread"]
    for mode in FIXED_MODES:
        mean, spread, values = results[mode]
        rows.append(f"{mode},{len(values)},{mean:.6f},{spread:.6f}")
    return "\n".join(rows) + "\n"


def apply_axis(config: RunConfig, axis: str, value) -> RunConfig:
    """One ablation point: a copy of the config with the axis applied."""
    cfg = copy.deepcopy(config)
    if axis == "beta":
        cfg.beta = float(value)
    elif axis == "ratio":
        r = int(value)
        cfg.model.ratio = r
        cfg.model.n_basic = r * cfg.model.m_modulated
    elif axis == "direct_mlp":
        cfg.model.mode = str(value)
    elif axis == "epochs":
        cfg.schedule.epochs = int(value)
        cfg.schedule.lr_drop_epoch = 0   # keep the 80% rule per value
    elif axis == "tint_off":
        cfg.data.background_tint = str(value).lower() in ("true", "1", "on")
    else:
        raise ContractError(f"unknown ablation axis {axis!r}, expected one of {ABLATION_AXES}")
    return cfg


def ablate(config: RunConfig, axis: str, values, log=None) -> list:
    """Train one model per axis value with shared seed and data; returns
    (value, final val mAP) rows in the given order."""
    rows = []
    for value in values:
        cfg = apply_axis(config, axis, value).validate()
        if log:
            log(f"[ablate {axis} = {value}]")
        _, report = train(cfg, log=log)
        rows.append((str(value), report.final.mean_ap))
    return rows


def ablation_csv(axis: str, rows: list) -> str:
    out = [f"{axis},val_map"]
    out += [f"{value},{vmap:.6f}" for value, vmap in rows]
    return "\n".join(out) + "\n"


def dump_coefficients(model: Detector, scenes, params: BenchmarkParams):
    """Per-scene combination coefficients plus their 2-D PCA projection.

    Returns (rows, points) where rows[i] = (scene index, scene_type,
    flattened coefficients) and points is an [N, 2] array aligned with rows.
    """
    if model.config.mode != "dynamic":
        raise ContractError("coefficient dumps need a dynamic-mode model")
    if len(scenes) < 2:
        raise ContractError("need at least 2 scenes to project")
    rows = []
    with T.no_grad():
        for i, sc in enumerate(scenes):
            feats = model.backbone(Tensor(render(sc, params)))
            w = coeff_forward(model.coeff_net, feats).matrix.data.reshape(-1)
            rows.append((i, sc.scene_type, w.copy()))
    points = pca_2d(np.stack([w for _, _, w in rows]))
    return rows, points


def pca_2d(x: np.ndarray) -> np.ndarray:
    """Deterministic 2-D PCA: SVD of the centered data with each component
    oriented so its largest-magnitude loading is positive."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ContractError(f"PCA needs [N, d >= 2] data, got {x.shape}")
    centered = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    for k in range(min(2, vt.shape[0])):
        j = int(np.argmax(np.abs(vt[k])))
        if vt[k, j] < 0:
            vt[k] = -vt[k]
            u[:, k] = -u[:, k]
    return u[:, :2] * s[:2]


def coefficient_csv(rows: list) -> str:
    width = rows[0][2].size
    header = "scene,scene_type," + ",".join(f"w{i}" for i in range(width))
    out = [header]
    for idx, scene_type, w in rows:
        out.append(f"{idx},{scene_type}," + ",".join(f"{v:.6f}" for v in w))
    return "\n".join(out) + "\n"


def projection_csv(rows: list, points: np.ndarray) -> str:
    out = ["scene,scene_type,pc1,pc2"]
    for (idx, scene_type, _), (p1, p2) in zip(rows, points):
        out.append(f"{idx},{scene_type},{p1:.6f},{p2:.6f}")
    return "\n".join(out) + "\n"


def cluster_separation(points: np.ndarray, types) -> tuple[float, float]:
    """(mean inter-type centroid distance, mean intra-type point-to-centroid
    distance) in the projected space."""
    types = np.asarray(types)
    uniq = np.unique(types)
    if uniq.size < 2:
        raise ContractError("cluster separation needs at least 2 scene types")
    centroids = np.stack([points[types == t].mean(axis=0) for t in uniq])
    inter = [np.linalg.norm(centroids[a] - centroids[b])
             for a in range(uniq.size) for b in range(a + 1, uniq.size)]
    intra = [np.linalg.norm(points[types == t] - centroids[k], axis=1).mean()
             for k, t in enumerate(uniq)]
    return float(np.mean(inter)), float(np.mean(intra))
