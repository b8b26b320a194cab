"""Detector wiring tests: branch arities, trunk sharing, the static
equivalence construction, parameter accounting, branch reachability, the
inference contract, predict, and checkpoint round-trips."""

import numpy as np
import pytest

from querymix import tensor as T
from querymix.errors import ContractError, ShapeError
from querymix.model import (Detector, ModelConfig, extract_detections,
                            load_checkpoint, save_checkpoint)
from querymix.nn import TransformerConfig
from querymix.queries import group_queries
from querymix.tensor import Tensor


def tiny_config(mode="dynamic", **kw):
    base = dict(mode=mode, n_basic=8, m_modulated=4, ratio=2, num_classes=3,
                transformer=TransformerConfig(feature_dim=16, heads=2,
                                              encoder_layers=1, decoder_layers=2,
                                              ffn_dim=32),
                image_channels=3, image_size=32,
                backbone_widths=(4, 8), coeff_hidden=16)
    base.update(kw)
    return ModelConfig(**base)


def tiny_image(seed=0, batch=None):
    rng = np.random.default_rng(seed)
    shape = (3, 32, 32) if batch is None else (batch, 3, 32, 32)
    return Tensor(rng.random(shape))


def branch_sum(layer_sets):
    total = None
    for det in layer_sets:
        term = T.add(T.sum_(det.boxes), T.sum_(det.logits))
        total = term if total is None else T.add(total, term)
    return total


def reachable_param_ids(out):
    ids = set()
    for node in T.GradientTape.from_output(out).nodes:
        for p in node.parents:
            if p.node is None and p.requires_grad:
                ids.add(id(p))
    return ids


class TestForwardTrain:
    def test_dynamic_arities(self):
        model = Detector(tiny_config(), seed=1)
        y_m, y_b, coeffs = model.forward_train(tiny_image())
        assert len(y_m) == len(y_b) == 2
        for det in y_m:
            assert det.boxes.shape == (4, 4) and det.logits.shape == (4, 4)
        for det in y_b:
            assert det.boxes.shape == (8, 4) and det.logits.shape == (8, 4)
        assert coeffs.matrix.shape == (4, 2)
        coeffs.validate()

    def test_batched_arities(self):
        model = Detector(tiny_config(), seed=1)
        y_m, y_b, coeffs = model.forward_train(tiny_image(batch=3))
        assert y_m[0].boxes.shape == (3, 4, 4)
        assert y_b[0].logits.shape == (3, 8, 4)
        assert coeffs.matrix.shape == (3, 4, 2)

    def test_boxes_strictly_inside_unit_interval(self):
        model = Detector(tiny_config(), seed=2)
        y_m, y_b, _ = model.forward_train(tiny_image(5))
        for det in y_m + y_b:
            assert det.boxes.data.min() > 0.0 and det.boxes.data.max() < 1.0

    def test_static_single_branch(self):
        model = Detector(tiny_config("static"), seed=1)
        y_m, y_b, coeffs = model.forward_train(tiny_image())
        assert len(y_m) == 2 and y_m[0].boxes.shape == (4, 4)
        assert y_b is None and coeffs is None
        assert model.counters == {"backbone": 1, "decoder_main": 1, "decoder_basic": 0}

    def test_trunk_evaluated_once(self):
        model = Detector(tiny_config(), seed=1)
        model.forward_train(tiny_image())
        assert model.counters == {"backbone": 1, "decoder_main": 1, "decoder_basic": 1}

    def test_two_group_branches(self):
        model = Detector(tiny_config("two_group", n_basic=6), seed=3)
        y_m, y_b, coeffs = model.forward_train(tiny_image())
        assert len(y_m) == 2 and y_m[0].boxes.shape == (4, 4)
        assert y_b[0].boxes.shape == (6, 4)
        assert coeffs is None

    def test_direct_mlp_single_branch(self):
        model = Detector(tiny_config("direct_mlp"), seed=3)
        y_m, y_b, coeffs = model.forward_train(tiny_image())
        assert len(y_m) == 2 and y_m[0].boxes.shape == (4, 4)
        assert y_b is None and coeffs is None
        assert model.counters["decoder_basic"] == 0

    def test_invalid_configs(self):
        with pytest.raises(ContractError):
            tiny_config(n_basic=7).validate()
        with pytest.raises(ContractError):
            tiny_config(mode="banana").validate()
        with pytest.raises(ShapeError):
            Detector(tiny_config(), seed=0).forward_train(Tensor(np.zeros((3, 3))))


class TestStaticEquivalence:
    def test_zeroed_coeff_net_equals_group_mean_static_model(self):
        # same seed + trunk-first init order -> identical trunk weights,
        # so only the query parameters need constructing by hand
        dyn = Detector(tiny_config(), seed=7)
        sta = Detector(tiny_config("static"), seed=7)
        dyn_names = dict(dyn.named_parameters())
        sta_names = dict(sta.named_parameters())
        shared = set(dyn_names) & set(sta_names)
        for name in shared:
            assert np.array_equal(dyn_names[name].data, sta_names[name].data)

        final = dyn.coeff_net.mlp.layers[-1]
        final.weight.data[:] = 0.0
        final.bias.data[:] = 0.0
        means = np.stack([g.mean(axis=0) for g in group_queries(dyn.bank)])
        sta.queries.data = means

        img = tiny_image(9)
        out_d = dyn.forward_infer(img)
        out_s = sta.forward_infer(img)
        assert np.abs(out_d.boxes.data - out_s.boxes.data).max() <= 1e-10
        assert np.abs(out_d.logits.data - out_s.logits.data).max() <= 1e-10

    def test_parameter_count_delta(self):
        cfg = tiny_config()
        dyn = Detector(cfg, seed=1)
        sta = Detector(tiny_config("static"), seed=1)
        f = cfg.transformer.feature_dim
        n, m, r, hidden = cfg.n_basic, cfg.m_modulated, cfg.ratio, cfg.coeff_hidden
        coeff_net = (hidden * f + hidden) + (m * r * hidden + m * r)
        assert dyn.parameter_count() - sta.parameter_count() == (n - m) * f + coeff_net


class TestBranchReachability:
    def test_only_coeff_net_is_single_branch(self):
        model = Detector(tiny_config(), seed=4)
        y_m, y_b, _ = model.forward_train(tiny_image())
        main_ids = reachable_param_ids(branch_sum(y_m))
        basic_ids = reachable_param_ids(branch_sum(y_b))
        exempt = {id(p) for _, p in model.coeff_net.named_parameters()}
        exempt.add(id(model.bank.basic))
        for name, p in model.named_parameters():
            if id(p) in exempt:
                continue
            assert id(p) in main_ids, f"{name} missing from modulated branch"
            assert id(p) in basic_ids, f"{name} missing from basic branch"
        assert id(model.bank.basic) in main_ids and id(model.bank.basic) in basic_ids
        for _, p in model.coeff_net.named_parameters():
            assert id(p) in main_ids and id(p) not in basic_ids

    def test_bank_gradient_flows_with_beta_zero(self):
        # beta = 0 drops the basic branch; modulation still reaches the bank
        model = Detector(tiny_config(), seed=5)
        y_m, _, _ = model.forward_train(tiny_image())
        grads = T.backward(branch_sum(y_m), params=[model.bank.basic])
        assert np.abs(grads[id(model.bank.basic)]).max() > 0

    def test_bank_gradient_flows_with_frozen_coeff_net(self):
        model = Detector(tiny_config(), seed=5)
        for _, p in model.coeff_net.named_parameters():
            p.requires_grad = False
        y_m, _, _ = model.forward_train(tiny_image())
        grads = T.backward(branch_sum(y_m), params=[model.bank.basic])
        assert np.abs(grads[id(model.bank.basic)]).max() > 0


class TestInference:
    def test_matches_train_main_branch_bitwise(self):
        for mode in ("static", "dynamic", "two_group", "direct_mlp"):
            model = Detector(tiny_config(mode), seed=6)
            img = tiny_image(3)
            layers = model.forward_train(img)[0]
            infer = model.forward_infer(img)
            assert infer.boxes.data.tobytes() == layers[-1].boxes.data.tobytes()
            assert infer.logits.data.tobytes() == layers[-1].logits.data.tobytes()

    def test_basic_branch_never_runs_at_inference(self):
        model = Detector(tiny_config(), seed=6)
        for k in range(5):
            model.forward_infer(tiny_image(k))
        assert model.counters["decoder_basic"] == 0
        assert model.counters["decoder_main"] == 5

    def test_infer_output_is_detached(self):
        model = Detector(tiny_config(), seed=6)
        det = model.forward_infer(tiny_image())
        assert det.boxes.node is None and det.logits.node is None


class TestPredict:
    def test_threshold_extremes(self):
        model = Detector(tiny_config(), seed=8)
        img = tiny_image(2)
        assert model.predict(img, 1.0) == []
        assert len(model.predict(img, 0.0)) == model.config.m_modulated

    def test_threshold_validated(self):
        model = Detector(tiny_config(), seed=8)
        with pytest.raises(ContractError):
            model.predict(tiny_image(), 1.5)

    def test_hand_oracle(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2], [0.3, 0.3, 0.1, 0.1]])
        logits = np.array([[2.0, 0.0, -1.0, 0.0],   # class 0 wins
                           [0.0, 0.0, 3.0, 4.0]])   # class 2 wins but no-object dominates
        out = extract_detections(boxes, logits, 0.0)
        assert [c for _, c, _ in out] == [0, 2]
        p0 = np.exp(2.0) / np.exp([2.0, 0.0, -1.0, 0.0]).sum()
        p1 = np.exp(3.0) / np.exp([0.0, 0.0, 3.0, 4.0]).sum()
        assert abs(out[0][2] - p0) < 1e-12
        assert abs(out[1][2] - p1) < 1e-12
        assert out[0][0] == (0.5, 0.5, 0.2, 0.2)
        assert extract_detections(boxes, logits, 0.5) == out[:1]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        for mode in ("static", "dynamic", "two_group", "direct_mlp"):
            model = Detector(tiny_config(mode), seed=11)
            path = tmp_path / f"{mode}.ckpt"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            assert loaded.config == model.config
            orig = dict(model.named_parameters())
            back = dict(loaded.named_parameters())
            assert set(orig) == set(back)
            for name in orig:
                assert orig[name].data.tobytes() == back[name].data.tobytes()
            path2 = tmp_path / f"{mode}2.ckpt"
            save_checkpoint(loaded, path2)
            assert path.read_bytes() == path2.read_bytes()

    def test_loaded_model_same_inference(self, tmp_path):
        model = Detector(tiny_config(), seed=12)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        img = tiny_image(1)
        a = model.forward_infer(img)
        b = loaded.forward_infer(img)
        assert a.boxes.data.tobytes() == b.boxes.data.tobytes()
        assert a.logits.data.tobytes() == b.logits.data.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT v9\n")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = Detector(tiny_config(), seed=13)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ContractError):
            load_checkpoint(clipped)
