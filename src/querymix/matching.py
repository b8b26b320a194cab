"""Bipartite matching and the set-prediction training loss.

Per image, predictions are matched to ground truths by a minimum-cost
assignment over a class/L1/GIoU cost matrix computed on detached values;
``batch_hungarian_loss`` then treats the assignment indices as constants.
Matched predictions pay cross-entropy plus weighted box terms; unmatched
ones pay down-weighted cross-entropy against the trailing "no object" class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor

NO_OBJECT_WEIGHT = 0.1
DEFAULT_WEIGHTS = (2.0, 5.0, 2.0)  # (class, l1, giou), used for both cost and loss


@dataclass
class Assignment:
    pairs: list  # (prediction index, ground-truth index), sorted by ground truth
    total_cost: float


def _jv_rows_into_cols(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost injection of rows into columns (rows <= cols) via the
    potentials-based shortest augmenting path algorithm. Returns col_of_row."""
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    col_row = np.zeros(m + 1, dtype=np.int64)  # 1-based column -> assigned row, 0 free
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        col_row[0] = i
        j0 = 0
        minv = np.full(m, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv)
            idx = np.nonzero(better)[0]
            minv[idx] = cur[idx]
            way[idx + 1] = j0
            masked = np.where(free, minv, np.inf)
            am = int(np.argmin(masked))
            delta = masked[am]
            j1 = am + 1
            u[col_row[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if col_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    out = np.zeros(n, dtype=np.int64)
    for j in range(1, m + 1):
        if col_row[j]:
            out[col_row[j] - 1] = j - 1
    return out


def hungarian(cost) -> Assignment:
    """Minimum-cost assignment over cost[k predictions, g ground truths].

    Every ground truth is matched to a distinct prediction when g <= k;
    with more ground truths than predictions the surplus stays unmatched
    (equivalent to padding the prediction side with a large constant and
    stripping those matches).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ContractError(f"cost must be 2-d, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ContractError("cost matrix contains non-finite entries")
    k, g = cost.shape
    if k == 0 or g == 0:
        return Assignment([], 0.0)
    if g <= k:
        # rows = ground truths so the hot path scales with the small side
        pred_of_gt = _jv_rows_into_cols(np.ascontiguousarray(cost.T))
        pairs = [(int(pred_of_gt[j]), j) for j in range(g)]
    else:
        gt_of_pred = _jv_rows_into_cols(cost)
        pairs = sorted(((i, int(gt_of_pred[i])) for i in range(k)), key=lambda p: p[1])
    total = float(sum(cost[i, j] for i, j in pairs))
    return Assignment(pairs, total)


# ---------------------------------------------------------------------------
# GIoU, scalar and differentiable forms

def _corners(box: np.ndarray) -> tuple:
    cx, cy, w, h = box[..., 0], box[..., 1], box[..., 2], box[..., 3]
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2


def giou(a, b) -> float:
    """Generalized IoU of two (cx, cy, w, h) boxes, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (4,) or b.shape != (4,):
        raise ContractError(f"boxes must be 4-vectors, got {a.shape} and {b.shape}")
    if a[2] <= 0 or a[3] <= 0 or b[2] <= 0 or b[3] <= 0:
        raise ContractError("box width/height must be positive")
    return float(giou_matrix(a[None], b[None])[0, 0])


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise GIoU, [k, 4] x [g, 4] -> [k, g]. Detached numpy."""
    ax1, ay1, ax2, ay2 = _corners(a)
    bx1, by1, bx2, by2 = _corners(b)
    iw = np.maximum(np.minimum(ax2[:, None], bx2) - np.maximum(ax1[:, None], bx1), 0.0)
    ih = np.maximum(np.minimum(ay2[:, None], by2) - np.maximum(ay1[:, None], by1), 0.0)
    inter = iw * ih
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    hw = np.maximum(ax2[:, None], bx2) - np.minimum(ax1[:, None], bx1)
    hh = np.maximum(ay2[:, None], by2) - np.minimum(ay1[:, None], by1)
    hull = hw * hh
    return inter / union - (hull - union) / hull


def giou_pairs(pred: Tensor, target: Tensor) -> Tensor:
    """Differentiable elementwise GIoU over aligned box rows, [p, 4] -> [p]."""
    def col(t, i):
        return T.slice_axis(t, 1, i, i + 1)

    def corners(t):
        half_w = T.scale(col(t, 2), 0.5)
        half_h = T.scale(col(t, 3), 0.5)
        return (T.sub(col(t, 0), half_w), T.sub(col(t, 1), half_h),
                T.add(col(t, 0), half_w), T.add(col(t, 1), half_h))

    ax1, ay1, ax2, ay2 = corners(pred)
    bx1, by1, bx2, by2 = corners(target)
    iw = T.relu(T.sub(T.minimum(ax2, bx2), T.maximum(ax1, bx1)))
    ih = T.relu(T.sub(T.minimum(ay2, by2), T.maximum(ay1, by1)))
    inter = T.mul(iw, ih)
    area_p = T.mul(col(pred, 2), col(pred, 3))
    area_t = T.mul(col(target, 2), col(target, 3))
    union = T.sub(T.add(area_p, area_t), inter)
    hw = T.sub(T.maximum(ax2, bx2), T.minimum(ax1, bx1))
    hh = T.sub(T.maximum(ay2, by2), T.minimum(ay1, by1))
    hull = T.mul(hw, hh)
    out = T.sub(T.div(inter, union), T.div(T.sub(hull, union), hull))
    return T.reshape(out, (out.shape[0],))


# ---------------------------------------------------------------------------
# cost matrix and set loss

def _target_arrays(gts) -> tuple[np.ndarray, np.ndarray]:
    """Accept a Scene-like object (``.objects`` of (class, box)) or a
    (classes, boxes) pair; return int classes [g] and float boxes [g, 4]."""
    if hasattr(gts, "objects"):
        objs = gts.objects
        if not objs:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 4))
        classes = np.array([c for c, _ in objs], dtype=np.int64)
        boxes = np.array([list(b) for _, b in objs], dtype=np.float64)
        return classes, boxes
    classes, boxes = gts
    return (np.asarray(classes, dtype=np.int64),
            np.asarray(boxes, dtype=np.float64).reshape(-1, 4))


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def build_cost_matrix(boxes: np.ndarray, logits: np.ndarray, classes: np.ndarray,
                      gt_boxes: np.ndarray, weights=DEFAULT_WEIGHTS) -> np.ndarray:
    """cost[i, j] = -w_class * p_i(class_j) + w_l1 * |b_i - b_j|_1
    + w_giou * (1 - giou(b_i, b_j)) over one image's [k, 4] boxes and
    [k, C+1] logits against [g] classes and [g, 4] ground-truth boxes."""
    w_class, w_l1, w_giou = weights
    if w_class < 0 or w_l1 < 0 or w_giou < 0:
        raise ContractError(f"cost weights must be nonnegative, got {weights}")
    if classes.size == 0:
        return np.zeros((boxes.shape[0], 0))
    prob = _softmax_np(logits)
    l1 = np.abs(boxes[:, None, :] - gt_boxes[None, :, :]).sum(axis=2)
    return (-w_class * prob[:, classes] + w_l1 * l1
            + w_giou * (1.0 - giou_matrix(boxes, gt_boxes)))


def batch_hungarian_loss(boxes: Tensor, logits: Tensor, gts_list,
                         weights=DEFAULT_WEIGHTS,
                         no_object_weight: float = NO_OBJECT_WEIGHT) -> Tensor:
    """Set loss over [batch, k, 4] boxes and [batch, k, C+1] logits.

    Each image is matched independently on detached values. Cross-entropy
    covers every prediction (unmatched ones against the trailing no-object
    class, down-weighted) and is normalized by its total weight; the L1 and
    GIoU terms cover matched boxes and are normalized by the batch-total
    ground-truth count.
    """
    bsz, k, _ = boxes.shape
    if len(gts_list) != bsz:
        raise ContractError(f"{len(gts_list)} targets for batch of {bsz}")
    _, w_l1, w_giou = weights
    targets = np.full(bsz * k, logits.shape[-1] - 1, dtype=np.int64)
    ce_weights = np.full(bsz * k, no_object_weight)
    pred_idx = []
    matched_boxes = []
    total_gt = 0
    for b, gts in enumerate(gts_list):
        classes, gt_boxes = _target_arrays(gts)
        cost = build_cost_matrix(boxes.data[b], logits.data[b], classes, gt_boxes, weights)
        for i, j in hungarian(cost).pairs:
            targets[b * k + i] = classes[j]
            ce_weights[b * k + i] = 1.0
            pred_idx.append(b * k + i)
            matched_boxes.append(gt_boxes[j])
        total_gt += classes.size

    flat_logits = T.reshape(logits, (bsz * k, logits.shape[-1]))
    picked = T.take_last(T.log_softmax(flat_logits), targets)
    ce = T.scale(T.sum_(T.mul(picked, Tensor(-ce_weights))), 1.0 / ce_weights.sum())
    if not pred_idx:
        return ce

    norm_boxes = max(1, total_gt)
    pb = T.gather_rows(T.reshape(boxes, (bsz * k, 4)), np.array(pred_idx, dtype=np.int64))
    tb = Tensor(np.array(matched_boxes))
    l1 = T.scale(T.sum_(T.abs_(T.sub(pb, tb))), w_l1 / norm_boxes)
    gi = giou_pairs(pb, tb)
    giou_term = T.scale(T.sum_(T.sub(Tensor(np.ones(len(pred_idx))), gi)), w_giou / norm_boxes)
    return T.add(T.add(ce, l1), giou_term)
