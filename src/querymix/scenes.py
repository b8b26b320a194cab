"""Synthetic scene benchmark and detection-AP evaluation.

Each scene has a latent type that biases which classes appear, where they
sit, and how many objects there are; the renderer additionally tints the
background by type so a pooled image feature can recover it. That latent
structure is exactly what input-conditioned queries are supposed to exploit,
and an ablation flag removes the tint to test how much of the gain it
carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError

DEFAULT_IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))

# object fill colors, one per class (supports up to 8 classes)
_PALETTE = np.array([
    [0.90, 0.10, 0.10],
    [0.10, 0.80, 0.15],
    [0.15, 0.20, 0.90],
    [0.90, 0.85, 0.10],
    [0.85, 0.10, 0.80],
    [0.10, 0.80, 0.85],
    [0.95, 0.55, 0.10],
    [0.55, 0.30, 0.75],
])

# per-type background shifts on top of the base gray
_TINTS = np.array([
    [0.00, 0.03, 0.09],
    [0.09, 0.00, 0.03],
    [0.03, 0.09, 0.00],
    [0.09, 0.09, 0.00],
    [0.00, 0.09, 0.09],
    [0.09, 0.00, 0.09],
    [0.05, 0.05, 0.05],
    [0.00, 0.00, 0.00],
])
_BASE_GRAY = 0.12
_EDGE_MARGIN = 1e-3


@dataclass
class Scene:
    scene_type: int
    objects: list  # (class: int, (cx, cy, w, h))
    seed: int


@dataclass
class BenchmarkParams:
    """Generation knobs; the per-type/per-class tables are derived
    deterministically from the counts unless given explicitly."""

    num_types: int = 4
    num_classes: int = 6
    max_objects: int = 8
    image_size: int = 64
    noise_sigma: float = 0.05
    background_tint: bool = True
    class_mixture: np.ndarray | None = None   # [T, C] rows sum to 1
    spatial_mean: np.ndarray | None = None    # [T, 2]
    spatial_std: float = 0.14
    poisson_rate: np.ndarray | None = None    # [T]
    size_scale: np.ndarray | None = None      # [C] median box side per class
    size_log_std: float = 0.25
    size_range: tuple = (0.04, 0.45)

    def __post_init__(self):
        t, c = self.num_types, self.num_classes
        if t < 1 or c < 1:
            raise ContractError(f"need at least 1 type and 1 class, got T={t}, C={c}")
        if c > len(_PALETTE):
            raise ContractError(f"at most {len(_PALETTE)} classes supported, got {c}")
        if t > len(_TINTS):
            raise ContractError(f"at most {len(_TINTS)} scene types supported, got {t}")
        if self.class_mixture is None:
            # each type concentrates on its own anchor class, decaying with
            # circular distance, so types have distinct category priors
            mix = np.empty((t, c))
            for ti in range(t):
                anchor = (ti * c) // t
                d = np.minimum(np.abs(np.arange(c) - anchor),
                               c - np.abs(np.arange(c) - anchor))
                mix[ti] = 0.45 ** d
            self.class_mixture = mix / mix.sum(axis=1, keepdims=True)
        self.class_mixture = np.asarray(self.class_mixture, dtype=np.float64)
        if self.spatial_mean is None:
            ang = 2.0 * np.pi * np.arange(t) / t
            self.spatial_mean = 0.5 + 0.22 * np.column_stack([np.cos(ang), np.sin(ang)])
        if self.poisson_rate is None:
            self.poisson_rate = 2.0 + 2.0 * np.arange(t) / max(1, t - 1)
        if self.size_scale is None:
            self.size_scale = 0.10 + 0.12 * np.arange(c) / max(1, c - 1)


def _q6(x: float) -> float:
    return round(float(x), 6)


def generate_scene(scene_type: int, params: BenchmarkParams, seed: int) -> Scene:
    """Draw one scene: Poisson count, type-conditioned classes and centers,
    per-class log-normal sizes. Box coordinates are quantized to 6 decimals
    (the dataset file precision) at generation time."""
    if not 0 <= scene_type < params.num_types:
        raise ContractError(f"scene type {scene_type} out of range [0, {params.num_types})")
    rng = np.random.default_rng(seed)
    count = int(np.clip(rng.poisson(params.poisson_rate[scene_type]), 1, params.max_objects))
    classes = rng.choice(params.num_classes, size=count, p=params.class_mixture[scene_type])
    centers = rng.normal(params.spatial_mean[scene_type], params.spatial_std, (count, 2))
    lo, hi = params.size_range
    widths = np.clip(np.exp(rng.normal(np.log(params.size_scale[classes]),
                                       params.size_log_std)), lo, hi)
    heights = np.clip(np.exp(rng.normal(np.log(params.size_scale[classes]),
                                        params.size_log_std)), lo, hi)
    objects = []
    for i in range(count):
        w, h = _q6(widths[i]), _q6(heights[i])
        cx = _q6(np.clip(centers[i, 0], w / 2 + _EDGE_MARGIN, 1 - w / 2 - _EDGE_MARGIN))
        cy = _q6(np.clip(centers[i, 1], h / 2 + _EDGE_MARGIN, 1 - h / 2 - _EDGE_MARGIN))
        objects.append((int(classes[i]), (cx, cy, w, h)))
    return Scene(scene_type, objects, int(seed))


def generate_dataset(params: BenchmarkParams, count: int, master_seed: int) -> list[Scene]:
    """Scene types round-robin over [0, T); each scene owns an independent
    RNG stream derived from the master seed."""
    seeds = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [generate_scene(i % params.num_types, params, int(seeds[i]))
            for i in range(count)]


def class_color(cls: int) -> np.ndarray:
    return _PALETTE[cls]


def render(scene: Scene, params: BenchmarkParams) -> np.ndarray:
    """Rasterize to [3, S, S] in [0, 1]: tinted background, filled class-
    colored rectangles (later objects overdraw), seeded Gaussian noise."""
    s = params.image_size
    img = np.empty((3, s, s))
    if params.background_tint:
        bg = _BASE_GRAY + _TINTS[scene.scene_type]
    else:
        bg = np.full(3, _BASE_GRAY)
    img[:] = bg[:, None, None]
    for cls, (cx, cy, w, h) in scene.objects:
        x1 = max(0, int(np.floor((cx - w / 2) * s)))
        y1 = max(0, int(np.floor((cy - h / 2) * s)))
        x2 = min(s, max(x1 + 1, int(np.ceil((cx + w / 2) * s))))
        y2 = min(s, max(y1 + 1, int(np.ceil((cy + h / 2) * s))))
        img[:, y1:y2, x1:x2] = _PALETTE[cls][:, None, None]
    if params.noise_sigma > 0:
        rng = np.random.default_rng([scene.seed, 1])
        img += rng.normal(0.0, params.noise_sigma, img.shape)
    np.clip(img, 0.0, 1.0, out=img)
    return img


# ---------------------------------------------------------------------------
# evaluation

def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain pairwise IoU over (cx, cy, w, h) boxes, [k, 4] x [g, 4] -> [k, g]."""
    ax1, ay1 = a[:, 0] - a[:, 2] / 2, a[:, 1] - a[:, 3] / 2
    ax2, ay2 = a[:, 0] + a[:, 2] / 2, a[:, 1] + a[:, 3] / 2
    bx1, by1 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    bx2, by2 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2
    iw = np.maximum(np.minimum(ax2[:, None], bx2) - np.maximum(ax1[:, None], bx1), 0.0)
    ih = np.maximum(np.minimum(ay2[:, None], by2) - np.maximum(ay1[:, None], by1), 0.0)
    inter = iw * ih
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    return inter / union


@dataclass
class ApReport:
    per_threshold: dict  # iou threshold -> AP
    per_class: dict      # class id -> AP averaged over thresholds
    mean_ap: float

    def validate(self) -> "ApReport":
        vals = list(self.per_threshold.values()) + list(self.per_class.values())
        if any(not (0.0 <= v <= 1.0) for v in vals + [self.mean_ap]):
            raise ContractError("AP values must lie in [0, 1]")
        return self


def _ap_all_points(tp_flags: np.ndarray, num_gt: int) -> float:
    """All-points interpolated AP from ranked TP/FP flags."""
    if num_gt == 0:
        return 0.0
    if tp_flags.size == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / num_gt
    precision = tp / (tp + fp)
    mrec = np.concatenate([[0.0], recall])
    mpre = np.concatenate([[0.0], precision])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def average_precision(per_scene_preds, scenes, iou_thresholds=DEFAULT_IOU_THRESHOLDS) -> ApReport:
    """COCO-style evaluation: per class and IoU threshold, rank predictions
    by score and greedily match each to the highest-IoU unmatched ground
    truth of its scene; AP uses all-points PR interpolation. Per-threshold
    AP averages over the classes present in the ground truth."""
    if len(per_scene_preds) != len(scenes):
        raise ContractError(f"{len(per_scene_preds)} prediction lists for {len(scenes)} scenes")
    gt_classes = sorted({c for sc in scenes for c, _ in sc.objects})
    thresholds = [float(t) for t in iou_thresholds]
    ap_grid = {}  # (class, threshold) -> ap
    for cls in gt_classes:
        gts = []
        for sc in scenes:
            boxes = np.array([list(b) for c, b in sc.objects if c == cls], dtype=np.float64)
            gts.append(boxes.reshape(-1, 4))
        num_gt = sum(g.shape[0] for g in gts)
        ranked = []  # (-score, scene index, insertion order, iou row vs that scene's gts)
        order = 0
        for si, preds in enumerate(per_scene_preds):
            for box, pcls, score in preds:
                if pcls != cls:
                    continue
                box = np.asarray(box, dtype=np.float64).reshape(1, 4)
                ious = iou_matrix(box, gts[si])[0] if gts[si].size else np.zeros(0)
                ranked.append((-float(score), si, order, ious))
                order += 1
        ranked.sort(key=lambda r: (r[0], r[1], r[2]))
        for thr in thresholds:
            taken = [np.zeros(g.shape[0], dtype=bool) for g in gts]
            flags = np.zeros(len(ranked), dtype=bool)
            for rank, (_, si, _, ious) in enumerate(ranked):
                avail = ~taken[si] & (ious >= thr)
                if avail.any():
                    best = int(np.argmax(np.where(avail, ious, -1.0)))
                    taken[si][best] = True
                    flags[rank] = True
            ap_grid[(cls, thr)] = _ap_all_points(flags, num_gt)

    per_threshold = {thr: (float(np.mean([ap_grid[(c, thr)] for c in gt_classes]))
                           if gt_classes else 0.0)
                     for thr in thresholds}
    per_class = {c: float(np.mean([ap_grid[(c, thr)] for thr in thresholds]))
                 for c in gt_classes}
    mean_ap = float(np.mean(list(per_threshold.values()))) if per_threshold else 0.0
    return ApReport(per_threshold, per_class, mean_ap).validate()


def report_to_text(report: ApReport) -> str:
    lines = [f"map = {report.mean_ap:.6f}"]
    for thr in sorted(report.per_threshold):
        lines.append(f"ap@{thr:.2f} = {report.per_threshold[thr]:.6f}")
    for cls in sorted(report.per_class):
        lines.append(f"class.{cls} = {report.per_class[cls]:.6f}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: ApReport) -> str:
    rows = ["metric,value", f"map,{report.mean_ap:.6f}"]
    for thr in sorted(report.per_threshold):
        rows.append(f"ap@{thr:.2f},{report.per_threshold[thr]:.6f}")
    for cls in sorted(report.per_class):
        rows.append(f"class.{cls},{report.per_class[cls]:.6f}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# dataset files: one scene per line,
#   scene_type seed [class cx cy w h]...

def write_dataset(scenes: list[Scene], path) -> None:
    with open(path, "w") as fh:
        for sc in scenes:
            parts = [str(sc.scene_type), str(sc.seed)]
            for cls, (cx, cy, w, h) in sc.objects:
                parts.append(f"{cls} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}")
            fh.write(" ".join(parts) + "\n")


def read_dataset(path) -> list[Scene]:
    scenes = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise ParseError("expected scene_type and seed", line=lineno)
            rest = tokens[2:]
            if not rest or len(rest) % 5 != 0:
                raise ParseError(
                    f"object list length {len(rest)} is not a multiple of 5", line=lineno)
            try:
                scene_type = int(tokens[0])
                seed = int(tokens[1])
                objects = []
                for k in range(0, len(rest), 5):
                    cls = int(rest[k])
                    box = tuple(float(v) for v in rest[k + 1:k + 5])
                    objects.append((cls, box))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if scene_type < 0 or seed < 0:
                raise ParseError("scene_type and seed must be nonnegative", line=lineno)
            for cls, (cx, cy, w, h) in objects:
                if cls < 0:
                    raise ParseError(f"negative class {cls}", line=lineno)
                if w <= 0 or h <= 0:
                    raise ParseError(f"nonpositive box size {w}x{h}", line=lineno)
                if cx - w / 2 < 0 or cx + w / 2 > 1 or cy - h / 2 < 0 or cy + h / 2 > 1:
                    raise ParseError("box extends outside the unit square", line=lineno)
            scenes.append(Scene(scene_type, objects, seed))
    return scenes
