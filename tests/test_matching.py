"""Matching and loss tests. The Hungarian oracle is brute-force permutation
enumeration; GIoU has a hand-geometry fixture; the loss is checked for
permutation invariance and against finite differences away from ties."""

from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

import querymix.tensor as T
from querymix import matching as M
from querymix.errors import ContractError
from querymix.harness import loop
from querymix.model import DetectionSet
from querymix.tensor import Tensor, finite_difference_check


def brute_force_cost(cost):
    k, g = cost.shape
    if g <= k:
        return min(sum(cost[p[j], j] for j in range(g))
                   for p in permutations(range(k), g))
    return min(sum(cost[i, p[i]] for i in range(k))
               for p in permutations(range(g), k))


def image_loss(boxes, logits, gts):
    """Set loss of one image: batch_hungarian_loss over a batch of one."""
    boxes, logits = (t if isinstance(t, Tensor) else Tensor(t) for t in (boxes, logits))
    return M.batch_hungarian_loss(T.reshape(boxes, (1,) + boxes.shape),
                                  T.reshape(logits, (1,) + logits.shape), [gts])


def reference_loss(boxes, logits, classes, gt_boxes, weights=M.DEFAULT_WEIGHTS):
    """Unbatched numpy re-derivation of one image's set loss, with the
    assignment found by brute force."""
    cost = M.build_cost_matrix(boxes, logits, classes, gt_boxes, weights)
    k, g = cost.shape
    pred_of_gt = min(permutations(range(k), g),
                     key=lambda p: sum(cost[p[j], j] for j in range(g)))
    logp = logits - logits.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    targets = np.full(k, logits.shape[1] - 1)
    ce_weights = np.full(k, M.NO_OBJECT_WEIGHT)
    box_terms = 0.0
    for j, i in enumerate(pred_of_gt):
        targets[i] = classes[j]
        ce_weights[i] = 1.0
        box_terms += (weights[1] * np.abs(boxes[i] - gt_boxes[j]).sum()
                      + weights[2] * (1.0 - M.giou(boxes[i], gt_boxes[j])))
    ce = -(ce_weights * logp[np.arange(k), targets]).sum() / ce_weights.sum()
    return ce + box_terms / max(1, g)


class TestHungarian:
    def test_single_entry(self):
        a = M.hungarian([[3.5]])
        assert a.pairs == [(0, 0)]
        assert a.total_cost == 3.5

    def test_two_by_two_hand_case(self):
        a = M.hungarian([[1.0, 2.0], [2.0, 1.0]])
        assert a.pairs == [(0, 0), (1, 1)]
        assert a.total_cost == 2.0

    def test_square_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for n in range(2, 8):
            for _ in range(40):
                cost = rng.uniform(-5, 5, (n, n))
                got = M.hungarian(cost)
                assert abs(got.total_cost - brute_force_cost(cost)) < 1e-9
                assert sorted(j for _, j in got.pairs) == list(range(n))
                assert len({i for i, _ in got.pairs}) == n

    def test_rectangular_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            cost = rng.uniform(0, 10, (7, 4))
            got = M.hungarian(cost)
            assert abs(got.total_cost - brute_force_cost(cost)) < 1e-9
            assert sorted(j for _, j in got.pairs) == [0, 1, 2, 3]

    def test_more_gts_than_preds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cost = rng.uniform(0, 10, (3, 6))
            got = M.hungarian(cost)
            assert len(got.pairs) == 3
            assert len({i for i, _ in got.pairs}) == 3
            assert abs(got.total_cost - brute_force_cost(cost)) < 1e-9

    def test_empty_sides(self):
        assert M.hungarian(np.zeros((4, 0))).pairs == []
        assert M.hungarian(np.zeros((0, 0))).pairs == []

    def test_nan_rejected(self):
        with pytest.raises(ContractError):
            M.hungarian([[1.0, float("nan")], [2.0, 3.0]])

    def test_inf_rejected(self):
        with pytest.raises(ContractError):
            M.hungarian([[1.0, float("inf")], [2.0, 3.0]])

    def test_total_cost_equals_sum_of_pairs(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(0, 1, (6, 6))
        got = M.hungarian(cost)
        assert abs(got.total_cost - sum(cost[i, j] for i, j in got.pairs)) < 1e-12


class TestGiou:
    def test_self_is_one(self):
        assert M.giou((0.5, 0.5, 0.2, 0.3), (0.5, 0.5, 0.2, 0.3)) == 1.0

    def test_corner_touch_hand_geometry(self):
        # unit-diagonal corner touch: IoU 0, union 0.5, hull 1.0 -> -0.5
        a = (0.25, 0.25, 0.5, 0.5)
        b = (0.75, 0.75, 0.5, 0.5)
        assert abs(M.giou(a, b) - (-0.5)) < 1e-12

    def test_far_apart_approaches_minus_one(self):
        a = (0.01, 0.01, 0.005, 0.005)
        b = (0.99, 0.99, 0.005, 0.005)
        assert M.giou(a, b) < -0.95

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = np.concatenate([rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.3, 2)])
            b = np.concatenate([rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.3, 2)])
            assert abs(M.giou(a, b) - M.giou(b, a)) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = np.concatenate([rng.uniform(0, 1, 2), rng.uniform(0.01, 0.5, 2)])
            b = np.concatenate([rng.uniform(0, 1, 2), rng.uniform(0.01, 0.5, 2)])
            v = M.giou(a, b)
            assert -1.0 <= v <= 1.0

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ContractError):
            M.giou((0.5, 0.5, 0.0, 0.1), (0.5, 0.5, 0.1, 0.1))

    def test_differentiable_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = np.column_stack([rng.uniform(0.2, 0.8, (6, 2)), rng.uniform(0.05, 0.3, (6, 2))])
        b = np.column_stack([rng.uniform(0.2, 0.8, (6, 2)), rng.uniform(0.05, 0.3, (6, 2))])
        got = M.giou_pairs(Tensor(a), Tensor(b)).data
        want = [M.giou(a[i], b[i]) for i in range(6)]
        assert np.abs(got - want).max() < 1e-12

    def test_differentiable_gradients(self):
        # overlapping pair, well away from the min/max kinks
        a = Tensor(np.array([[0.4, 0.4, 0.3, 0.25]]))
        b = Tensor(np.array([[0.5, 0.45, 0.2, 0.3]]))
        f = lambda x: T.sum_(M.giou_pairs(x, b))
        assert finite_difference_check(f, [a]) < 1e-5


class TestCostMatrix:
    def test_perfect_prediction_cost(self):
        box = np.array([[0.5, 0.5, 0.2, 0.2]])
        logits = np.full((1, 4), -50.0)
        logits[0, 1] = 50.0  # softmax ~ 1 on class 1
        cost = M.build_cost_matrix(box, logits, np.array([1]), box, weights=(2, 5, 2))
        assert abs(cost[0, 0] - (-2.0)) < 1e-9

    def test_zero_weights_zero_matrix(self):
        rng = np.random.default_rng(8)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, (3, 2)), rng.uniform(0.1, 0.3, (3, 2))])
        cost = M.build_cost_matrix(boxes, rng.standard_normal((3, 5)), np.array([0, 2]),
                                   boxes[:2], weights=(0, 0, 0))
        assert np.array_equal(cost, np.zeros((3, 2)))

    def test_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(9)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, (3, 2)), rng.uniform(0.1, 0.3, (3, 2))])
        logits = rng.standard_normal((3, 5))
        gt_boxes = np.column_stack([rng.uniform(0.3, 0.7, (2, 2)), rng.uniform(0.1, 0.3, (2, 2))])
        gt_classes = np.array([0, 3])
        cost = M.build_cost_matrix(boxes, logits, gt_classes, gt_boxes, weights=(2, 5, 2))
        for i in range(3):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            for j in range(2):
                want = (-2 * p[gt_classes[j]]
                        + 5 * np.abs(boxes[i] - gt_boxes[j]).sum()
                        + 2 * (1 - M.giou(boxes[i], gt_boxes[j])))
                assert abs(cost[i, j] - want) < 1e-12

    def test_empty_gts(self):
        cost = M.build_cost_matrix(np.full((4, 4), 0.5), np.zeros((4, 3)),
                                   np.zeros(0, np.int64), np.zeros((0, 4)))
        assert cost.shape == (4, 0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ContractError):
            M.build_cost_matrix(np.full((1, 4), 0.5), np.zeros((1, 3)),
                                np.zeros(0, np.int64), np.zeros((0, 4)), weights=(-1, 5, 2))


class TestHungarianLoss:
    def test_zero_gts_pure_no_object(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((5, 4))
        loss = image_loss(np.full((5, 4), 0.5), logits, ([], np.zeros((0, 4))))
        logp = logits - logits.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        assert abs(loss.item() - (-logp[:, 3].mean())) < 1e-12

    def test_perfect_predictions_box_terms_zero(self):
        boxes = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.25, 0.2]])
        logits = np.full((2, 4), -40.0)
        logits[0, 0] = 40.0
        logits[1, 2] = 40.0
        loss = image_loss(boxes, logits, ([0, 2], boxes))
        assert loss.item() < 1e-9  # only residual cross-entropy remains

    def test_prediction_permutation_invariance(self):
        rng = np.random.default_rng(11)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, (6, 2)), rng.uniform(0.1, 0.3, (6, 2))])
        logits = rng.standard_normal((6, 4))
        gts = ([0, 1, 2], np.column_stack([rng.uniform(0.3, 0.7, (3, 2)),
                                           rng.uniform(0.1, 0.3, (3, 2))]))
        base = image_loss(boxes, logits, gts).item()
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(6)
            permuted = image_loss(boxes[perm], logits[perm], gts).item()
            assert abs(base - permuted) < 1e-10

    def test_gt_permutation_invariance(self):
        rng = np.random.default_rng(12)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, (5, 2)), rng.uniform(0.1, 0.3, (5, 2))])
        logits = rng.standard_normal((5, 4))
        gt_boxes = np.column_stack([rng.uniform(0.3, 0.7, (3, 2)), rng.uniform(0.1, 0.3, (3, 2))])
        gt_classes = np.array([0, 1, 2])
        base = image_loss(boxes, logits, (gt_classes, gt_boxes)).item()
        perm = np.array([2, 0, 1])
        permuted = image_loss(boxes, logits, (gt_classes[perm], gt_boxes[perm])).item()
        assert abs(base - permuted) < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        # all box corners separated by >> fd eps so no min/max kink is straddled
        boxes = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.6, 0.25, 0.3], [0.5, 0.8, 0.15, 0.1]])
        logits = rng.standard_normal((3, 4))
        gts = ([0, 2], np.array([[0.33, 0.34, 0.22, 0.15], [0.68, 0.62, 0.2, 0.24]]))

        def f(bx, lg):
            return image_loss(bx, lg, gts)

        assert finite_difference_check(f, [Tensor(boxes), Tensor(logits)]) < 1e-5

    def test_gradients_flow_only_to_matched_boxes(self):
        rng = np.random.default_rng(14)
        boxes = Tensor(np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]]))
        boxes.requires_grad = True
        logits = Tensor(rng.standard_normal((2, 4)))
        loss = image_loss(boxes, logits, ([1], np.array([[0.31, 0.3, 0.2, 0.2]])))
        grads = T.backward(loss, params=[boxes])
        g = grads[id(boxes)]
        assert np.abs(g[0]).max() > 0  # matched to the nearby gt
        assert np.abs(g[1]).max() == 0  # unmatched: only class grads


class TestBatchLoss:
    def test_single_image_matches_unbatched(self):
        rng = np.random.default_rng(15)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, (4, 2)), rng.uniform(0.1, 0.3, (4, 2))])
        logits = rng.standard_normal((4, 5))
        gts = ([0, 3], np.column_stack([rng.uniform(0.3, 0.7, (2, 2)),
                                        rng.uniform(0.1, 0.3, (2, 2))]))
        single = reference_loss(boxes, logits, np.array(gts[0]), gts[1])
        batched = M.batch_hungarian_loss(Tensor(boxes[None]), Tensor(logits[None]), [gts]).item()
        assert abs(single - batched) < 1e-12

    def test_duplicated_image_preserves_loss(self):
        rng = np.random.default_rng(16)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, (4, 2)), rng.uniform(0.1, 0.3, (4, 2))])
        logits = rng.standard_normal((4, 5))
        gts = ([1], np.array([[0.5, 0.5, 0.2, 0.2]]))
        single = image_loss(boxes, logits, gts).item()
        twice = M.batch_hungarian_loss(Tensor(np.stack([boxes, boxes])),
                                       Tensor(np.stack([logits, logits])),
                                       [gts, gts]).item()
        assert abs(single - twice) < 1e-10

    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(ContractError):
            M.batch_hungarian_loss(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 5))),
                                   [([], np.zeros((0, 4)))])


class TestDualBranch:
    """loop.training_loss on a stub model whose forward_train returns fixed
    per-layer detection sets for a batch of two images."""

    gts = [([0, 1], np.array([[0.4, 0.4, 0.2, 0.2], [0.6, 0.6, 0.2, 0.2]])),
           ([2], np.array([[0.5, 0.5, 0.3, 0.3]]))]

    def make_layers(self, rng, k, layers=2):
        out = []
        for _ in range(layers):
            boxes = np.column_stack([rng.uniform(0.3, 0.7, (2 * k, 2)),
                                     rng.uniform(0.1, 0.3, (2 * k, 2))])
            out.append(DetectionSet(boxes=Tensor(boxes.reshape(2, k, 4)),
                                    logits=Tensor(rng.standard_normal((2, k, 4)))))
        return out

    def training_loss(self, ym, yb, beta):
        model = SimpleNamespace(forward_train=lambda images: (ym, yb, None))
        return loop.training_loss(model, None, self.gts, beta).item()

    def branch_sum(self, layers):
        return sum(M.batch_hungarian_loss(d.boxes, d.logits, self.gts).item() for d in layers)

    def test_beta_zero_is_modulated_only(self):
        rng = np.random.default_rng(17)
        ym = self.make_layers(rng, 4)
        yb = self.make_layers(rng, 8)
        assert self.training_loss(ym, yb, 0.0) == pytest.approx(self.branch_sum(ym), abs=1e-12)

    def test_beta_one_sums_branches(self):
        rng = np.random.default_rng(18)
        ym = self.make_layers(rng, 4)
        yb = self.make_layers(rng, 8)
        want = self.branch_sum(ym) + self.branch_sum(yb)
        assert self.training_loss(ym, yb, 1.0) == pytest.approx(want, abs=1e-10)

    def test_identical_branches_double_exactly(self):
        rng = np.random.default_rng(19)
        ym = self.make_layers(rng, 4)
        assert self.training_loss(ym, ym, 1.0) == 2.0 * self.training_loss(ym, None, 0.0)
