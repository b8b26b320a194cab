"""Benchmark generation, rendering, AP evaluation, and dataset file tests.

The AP oracle is an independent explicit PR-point enumeration; the class
mixture is checked by Monte-Carlo frequency counts.
"""

import numpy as np
import pytest

from querymix import scenes as S
from querymix.errors import ContractError, ParseError


def iou_scalar(a, b):
    ax1, ay1 = a[0] - a[2] / 2, a[1] - a[3] / 2
    ax2, ay2 = a[0] + a[2] / 2, a[1] + a[3] / 2
    bx1, by1 = b[0] - b[2] / 2, b[1] - b[3] / 2
    bx2, by2 = b[0] + b[2] / 2, b[1] + b[3] / 2
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union


def ap_oracle(preds_by_scene, scenes, cls, thr):
    """Explicit PR-point enumeration for one class at one threshold."""
    rows = []
    for si, preds in enumerate(preds_by_scene):
        for box, c, score in preds:
            if c == cls:
                rows.append((score, si, box))
    rows.sort(key=lambda r: -r[0])
    gt = [[b for c2, b in sc.objects if c2 == cls] for sc in scenes]
    ngt = sum(len(g) for g in gt)
    taken = [set() for _ in scenes]
    flags = []
    for score, si, box in rows:
        best_iou, best_j = -1.0, -1
        for j, g in enumerate(gt[si]):
            if j in taken[si]:
                continue
            v = iou_scalar(box, g)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= thr:
            taken[si].add(best_j)
            flags.append(True)
        else:
            flags.append(False)
    if ngt == 0 or not flags:
        return 0.0
    points = []
    tp = 0
    for k, f in enumerate(flags, start=1):
        tp += f
        points.append((tp / ngt, tp / k))
    ap, prev_r = 0.0, 0.0
    for i, (r, p) in enumerate(points):
        if flags[i]:
            ap += (r - prev_r) * max(pp for _, pp in points[i:])
            prev_r = r
    return ap


class TestGeneration:
    def test_same_seed_same_scene(self):
        params = S.BenchmarkParams()
        a = S.generate_scene(2, params, 123)
        b = S.generate_scene(2, params, 123)
        assert a == b
        c = S.generate_scene(2, params, 124)
        assert a != c

    def test_one_hot_mixture_degenerates(self):
        mix = np.zeros((2, 6))
        mix[:, 3] = 1.0
        params = S.BenchmarkParams(num_types=2, class_mixture=mix)
        for seed in range(30):
            sc = S.generate_scene(0, params, seed)
            assert all(c == 3 for c, _ in sc.objects)

    def test_monte_carlo_class_frequencies(self):
        params = S.BenchmarkParams()
        counts = np.zeros(params.num_classes)
        for seed in range(10000):
            for c, _ in S.generate_scene(1, params, seed).objects:
                counts[c] += 1
        freq = counts / counts.sum()
        assert np.abs(freq - params.class_mixture[1]).max() < 0.02

    def test_object_count_clamped(self):
        params = S.BenchmarkParams()
        for seed in range(200):
            n = len(S.generate_scene(3, params, seed).objects)
            assert 1 <= n <= params.max_objects

    def test_boxes_inside_unit_square(self):
        params = S.BenchmarkParams()
        for seed in range(200):
            for _, (cx, cy, w, h) in S.generate_scene(seed % 4, params, seed).objects:
                assert cx - w / 2 >= 0 and cx + w / 2 <= 1
                assert cy - h / 2 >= 0 and cy + h / 2 <= 1
                assert w > 0 and h > 0

    def test_invalid_type_rejected(self):
        with pytest.raises(ContractError):
            S.generate_scene(4, S.BenchmarkParams(), 0)

    def test_dataset_round_robin_and_reproducible(self):
        params = S.BenchmarkParams()
        data = S.generate_dataset(params, 10, master_seed=5)
        assert [sc.scene_type for sc in data] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
        again = S.generate_dataset(params, 10, master_seed=5)
        assert data == again
        other = S.generate_dataset(params, 10, master_seed=6)
        assert data != other


class TestRender:
    def test_noise_free_box_pixels_exact(self):
        params = S.BenchmarkParams(noise_sigma=0.0)
        sc = S.Scene(0, [(2, (0.5, 0.5, 0.25, 0.25))], seed=1)
        img = S.render(sc, params)
        x1 = int(np.floor(0.375 * 64))
        x2 = int(np.ceil(0.625 * 64))
        block = img[:, x1:x2, x1:x2]
        want = S.class_color(2)
        assert np.array_equal(block, np.broadcast_to(want[:, None, None], block.shape))

    def test_background_tints_differ_by_type(self):
        params = S.BenchmarkParams(noise_sigma=0.0)
        corners = []
        for t in range(params.num_types):
            sc = S.Scene(t, [(0, (0.5, 0.5, 0.1, 0.1))], seed=1)
            corners.append(tuple(S.render(sc, params)[:, 0, 0]))
        assert len(set(corners)) == params.num_types

    def test_tint_flag_removes_type_signal(self):
        params = S.BenchmarkParams(noise_sigma=0.0, background_tint=False)
        corners = set()
        for t in range(params.num_types):
            sc = S.Scene(t, [(0, (0.5, 0.5, 0.1, 0.1))], seed=1)
            corners.add(tuple(S.render(sc, params)[:, 0, 0]))
        assert len(corners) == 1

    def test_values_clamped(self):
        params = S.BenchmarkParams(noise_sigma=0.3)
        sc = S.generate_scene(0, S.BenchmarkParams(), 7)
        img = S.render(sc, params)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_noise_deterministic_per_scene(self):
        params = S.BenchmarkParams()
        sc = S.generate_scene(1, params, 42)
        a = S.render(sc, params)
        b = S.render(sc, params)
        assert a.tobytes() == b.tobytes()

    def test_later_objects_overdraw(self):
        params = S.BenchmarkParams(noise_sigma=0.0)
        sc = S.Scene(0, [(0, (0.5, 0.5, 0.4, 0.4)), (1, (0.5, 0.5, 0.2, 0.2))], seed=1)
        img = S.render(sc, params)
        assert np.array_equal(img[:, 32, 32], S.class_color(1))


class TestAveragePrecision:
    def make_scenes(self):
        return [
            S.Scene(0, [(0, (0.3, 0.3, 0.2, 0.2))], 1),
            S.Scene(1, [(0, (0.7, 0.7, 0.2, 0.2))], 2),
            S.Scene(2, [(0, (0.5, 0.5, 0.2, 0.2))], 3),
        ]

    def test_perfect_predictions(self):
        scenes = self.make_scenes()
        preds = [[(b, c, 1.0) for c, b in sc.objects] for sc in scenes]
        report = S.average_precision(preds, scenes)
        assert report.mean_ap == 1.0

    def test_no_predictions(self):
        scenes = self.make_scenes()
        report = S.average_precision([[] for _ in scenes], scenes)
        assert report.mean_ap == 0.0

    def test_hand_fixture_one_fp_one_fn(self):
        # ranked: TP(0.9), FP(0.8), TP(0.7) over 3 gts
        # AP = 1/3 * 1 + 1/3 * 2/3 = 5/9 at every threshold
        scenes = self.make_scenes()
        preds = [
            [((0.3, 0.3, 0.2, 0.2), 0, 0.9)],
            [((0.2, 0.2, 0.1, 0.1), 0, 0.8)],  # misses its gt entirely
            [((0.5, 0.5, 0.2, 0.2), 0, 0.7)],
        ]
        report = S.average_precision(preds, scenes)
        assert abs(report.mean_ap - 5.0 / 9.0) < 1e-12
        for ap in report.per_threshold.values():
            assert abs(ap - 5.0 / 9.0) < 1e-12

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        params = S.BenchmarkParams()
        scenes = S.generate_dataset(params, 20, master_seed=11)
        preds = []
        for sc in scenes:
            rows = []
            for c, b in sc.objects:
                jitter = rng.normal(0, 0.02, 4)
                box = (b[0] + jitter[0], b[1] + jitter[1],
                       max(0.02, b[2] + jitter[2]), max(0.02, b[3] + jitter[3]))
                rows.append((box, c, float(rng.uniform(0.2, 1.0))))
            preds.append(rows)
        report = S.average_precision(preds, scenes)
        thrs = sorted(report.per_threshold)
        vals = [report.per_threshold[t] for t in thrs]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    def test_agrees_with_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        params = S.BenchmarkParams(max_objects=5)
        scenes = S.generate_dataset(params, 12, master_seed=21)
        preds = []
        for sc in scenes:
            rows = []
            for c, b in sc.objects:
                if rng.random() < 0.8:  # drop some -> FNs
                    jitter = rng.normal(0, 0.03, 4)
                    box = (b[0] + jitter[0], b[1] + jitter[1],
                           max(0.02, b[2] + jitter[2]), max(0.02, b[3] + jitter[3]))
                    rows.append((box, c, float(rng.uniform(0, 1))))
            for _ in range(rng.poisson(1)):  # spurious FPs
                box = tuple(np.concatenate([rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.2, 2)]))
                rows.append((box, int(rng.integers(0, params.num_classes)),
                             float(rng.uniform(0, 1))))
            preds.append(rows)
        for thr in (0.5, 0.75):
            report = S.average_precision(preds, scenes, iou_thresholds=[thr])
            classes = sorted({c for sc in scenes for c, _ in sc.objects})
            want = np.mean([ap_oracle(preds, scenes, c, thr) for c in classes])
            assert abs(report.per_threshold[thr] - want) < 1e-12

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ContractError):
            S.average_precision([[]], self.make_scenes())

    def test_report_serialization_formats(self):
        scenes = self.make_scenes()
        preds = [[(b, c, 1.0) for c, b in sc.objects] for sc in scenes]
        report = S.average_precision(preds, scenes)
        text = S.report_to_text(report)
        assert text.startswith("map = 1.000000")
        assert "ap@0.50 = 1.000000" in text
        csv = S.report_to_csv(report)
        assert csv.splitlines()[0] == "metric,value"
        assert "map,1.000000" in csv


class TestDatasetIO:
    def test_round_trip_equality(self, tmp_path):
        params = S.BenchmarkParams()
        data = S.generate_dataset(params, 25, master_seed=3)
        path = tmp_path / "scenes.txt"
        S.write_dataset(data, path)
        loaded = S.read_dataset(path)
        assert loaded == data

    def test_rewrite_idempotent(self, tmp_path):
        params = S.BenchmarkParams()
        data = S.generate_dataset(params, 10, master_seed=4)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        S.write_dataset(data, p1)
        S.write_dataset(S.read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert S.read_dataset(path) == []

    def test_fixture_line(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("2 7 3 0.500000 0.500000 0.250000 0.250000\n")
        loaded = S.read_dataset(path)
        assert loaded == [S.Scene(2, [(3, (0.5, 0.5, 0.25, 0.25))], 7)]

    def test_malformed_lines_report_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 5 0 0.500000 0.500000 0.200000 0.200000\n1 5 0 0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            S.read_dataset(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 5 x 0.5 0.5 0.2 0.2\n")
        with pytest.raises(ParseError, match="line 1"):
            S.read_dataset(path)

    def test_out_of_square_box_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0 0.050000 0.500000 0.200000 0.200000\n")
        with pytest.raises(ParseError, match="unit square"):
            S.read_dataset(path)

    def test_scene_without_objects_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(ParseError, match="line 1"):
            S.read_dataset(path)
