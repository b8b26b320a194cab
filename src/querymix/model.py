"""End-to-end detector: conv backbone -> transformer encoder -> object
queries -> transformer decoder -> box/class heads.

Four query regimes share one trunk:
  static      m learned queries, the baseline
  dynamic     m modulated queries, each a convex combination of a group of
              r basic queries with image-conditioned coefficients
  two_group   control: m learned queries plus an unrelated auxiliary group
  direct_mlp  control: queries regressed straight from the pooled feature

Training (``forward_train``) runs the decoder once per branch on one
shared backbone+encoder pass: twice for dynamic (modulated and basic) and
two_group, once for static and direct_mlp. Inference never touches the
basic branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .nn import (MLP, Backbone, Decoder, Encoder, Linear, Module,
                 TransformerConfig, parameter, sinusoidal_positions)
from .queries import (CoeffNet, CombinationCoefficients, DirectQueryNet,
                      QueryBank, coeff_forward, direct_mlp_queries, modulate)
from .tensor import Tensor

MODES = ("static", "dynamic", "two_group", "direct_mlp")

CHECKPOINT_MAGIC = "DQCKPT v1"


@dataclass
class DetectionSet:
    """One set prediction: k boxes as (cx, cy, w, h) in (0,1) and k logit
    rows whose trailing column is the no-object class."""

    boxes: Tensor
    logits: Tensor


@dataclass
class ModelConfig:
    mode: str = "dynamic"
    n_basic: int = 64
    m_modulated: int = 16
    ratio: int = 4
    num_classes: int = 6
    transformer: TransformerConfig = field(default_factory=TransformerConfig)
    image_channels: int = 3
    image_size: int = 64
    backbone_widths: tuple = (16, 32, 64)
    coeff_hidden: int = 512

    def validate(self) -> "ModelConfig":
        if self.mode not in MODES:
            raise ContractError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.m_modulated < 1 or self.num_classes < 1:
            raise ContractError("m_modulated and num_classes must be positive")
        if self.transformer.heads < 1:
            raise ContractError(f"need at least one attention head, got {self.transformer.heads}")
        if self.mode == "dynamic" and self.n_basic != self.ratio * self.m_modulated:
            raise ContractError(
                f"dynamic mode needs n_basic == ratio * m_modulated, "
                f"got {self.n_basic} != {self.ratio} * {self.m_modulated}")
        if self.mode == "two_group" and self.n_basic < 1:
            raise ContractError("two_group mode needs a nonempty auxiliary group")
        return self


class Detector(Module):
    """The full model. ``counters`` tracks backbone and per-branch decoder
    evaluations so tests can assert the sharing/inference contracts."""

    def __init__(self, config: ModelConfig, seed: int):
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        t = config.transformer
        f = t.feature_dim
        # trunk first, query parameters last: models that differ only in
        # mode then share bitwise-identical trunk initializations per seed
        self.backbone = Backbone(config.image_channels, f, rng,
                                 widths=tuple(config.backbone_widths))
        self.encoder = Encoder(f, t.heads, t.ffn_dim, t.encoder_layers, rng)
        self.decoder = Decoder(f, t.heads, t.ffn_dim, t.decoder_layers, rng)
        self.class_head = Linear(f, config.num_classes + 1, rng)
        self.box_head = MLP([f, f, f, 4], rng)
        if config.mode == "static":
            self.queries = parameter(rng.standard_normal((config.m_modulated, f)) * 0.02)
        elif config.mode == "dynamic":
            self.bank = QueryBank(config.n_basic, config.ratio, f, rng)
            self.coeff_net = CoeffNet(f, config.m_modulated, config.ratio, rng,
                                      hidden=config.coeff_hidden)
        elif config.mode == "two_group":
            self.queries = parameter(rng.standard_normal((config.m_modulated, f)) * 0.02)
            self.aux_queries = parameter(rng.standard_normal((config.n_basic, f)) * 0.02)
        else:
            self.query_net = DirectQueryNet(f, config.m_modulated, f, rng,
                                            hidden=config.coeff_hidden)
        self.counters = {"backbone": 0, "decoder_main": 0, "decoder_basic": 0}

    # ------------------------------------------------------------------
    # shared pieces

    def _trunk(self, image: Tensor) -> tuple[Tensor, Tensor]:
        """One backbone + encoder pass; returns (feature map, memory)."""
        if image.ndim not in (3, 4):
            raise ShapeError(f"expected [ch, s, s] or [batch, ch, s, s], got {image.shape}")
        self.counters["backbone"] += 1
        feats = self.backbone(image)
        f, h, w = feats.shape[-3], feats.shape[-2], feats.shape[-1]
        if feats.ndim == 4:
            tokens = T.transpose(T.reshape(feats, (feats.shape[0], f, h * w)), (0, 2, 1))
        else:
            tokens = T.transpose(T.reshape(feats, (f, h * w)), (1, 0))
        memory = self.encoder(T.add(tokens, sinusoidal_positions(h, w, f)))
        return feats, memory

    def _main_queries(self, feats: Tensor) -> tuple[Tensor, CombinationCoefficients | None]:
        """Inference-path queries for the configured mode."""
        batch = feats.shape[0] if feats.ndim == 4 else None
        mode = self.config.mode
        if mode == "dynamic":
            coeffs = coeff_forward(self.coeff_net, feats)
            return modulate(self.bank, coeffs), coeffs
        if mode == "direct_mlp":
            return direct_mlp_queries(self.query_net, feats), None
        q = self.queries
        if batch is not None:
            q = T.expand_batch(q, batch)
        return q, None

    def _decode(self, queries: Tensor, memory: Tensor, branch: str) -> list[DetectionSet]:
        self.counters[branch] += 1
        return [DetectionSet(boxes=T.sigmoid(self.box_head(x)),
                             logits=self.class_head(x))
                for x in self.decoder(memory, queries)]

    # ------------------------------------------------------------------
    # entry points

    def forward_train(self, image: Tensor):
        """Training pass over one shared backbone+encoder.

        Returns (main-branch DetectionSets per decoder layer, auxiliary-branch
        DetectionSets per layer or None, coefficients or None). The auxiliary
        branch holds the basic queries in dynamic mode and the unrelated
        group in two_group mode; static and direct_mlp have no second branch.
        """
        feats, memory = self._trunk(image)
        main, coeffs = self._main_queries(feats)
        y_main = self._decode(main, memory, "decoder_main")
        mode = self.config.mode
        if mode in ("static", "direct_mlp"):
            return y_main, None, None
        aux = self.bank.basic if mode == "dynamic" else self.aux_queries
        if memory.ndim == 3:
            aux = T.expand_batch(aux, memory.shape[0])
        y_aux = self._decode(aux, memory, "decoder_basic")
        return y_main, y_aux, coeffs

    def forward_infer(self, image: Tensor) -> DetectionSet:
        """Inference: main queries only, final decoder layer only. The basic
        branch is never evaluated."""
        with T.no_grad():
            feats, memory = self._trunk(image)
            main, _ = self._main_queries(feats)
            return self._decode(main, memory, "decoder_main")[-1]

    def predict(self, image: Tensor, score_threshold: float) -> list:
        """Final detections for one [ch, s, s] image, no NMS: per query the
        argmax over real classes with its softmax probability, kept when
        score >= threshold. Returns (box tuple, class, score) triples."""
        if not 0.0 <= score_threshold <= 1.0:
            raise ContractError(f"score threshold must be in [0, 1], got {score_threshold}")
        if image.ndim != 3:
            raise ShapeError(f"predict takes a single image, got shape {image.shape}")
        det = self.forward_infer(image)
        return extract_detections(det.boxes.data, det.logits.data, score_threshold)

    def parameter_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())


def extract_detections(boxes: np.ndarray, logits: np.ndarray,
                       score_threshold: float) -> list:
    """Scalar detection rule shared by predict and the evaluation harness."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = []
    for i in range(boxes.shape[0]):
        cls = int(np.argmax(probs[i, :-1]))
        score = float(probs[i, cls])
        if score >= score_threshold:
            out.append((tuple(float(v) for v in boxes[i]), cls, score))
    return out


# ---------------------------------------------------------------------------
# checkpoint container


def _config_entries(config: ModelConfig) -> list[tuple[str, np.ndarray]]:
    t = config.transformer
    scalars = {
        "config.mode": float(MODES.index(config.mode)),
        "config.n_basic": float(config.n_basic),
        "config.m_modulated": float(config.m_modulated),
        "config.ratio": float(config.ratio),
        "config.num_classes": float(config.num_classes),
        "config.image_channels": float(config.image_channels),
        "config.image_size": float(config.image_size),
        "config.coeff_hidden": float(config.coeff_hidden),
        "config.transformer.feature_dim": float(t.feature_dim),
        "config.transformer.heads": float(t.heads),
        "config.transformer.encoder_layers": float(t.encoder_layers),
        "config.transformer.decoder_layers": float(t.decoder_layers),
        "config.transformer.ffn_dim": float(t.ffn_dim),
    }
    entries = [(k, np.asarray(v, dtype=np.float64)) for k, v in scalars.items()]
    entries.append(("config.backbone_widths",
                    np.asarray(config.backbone_widths, dtype=np.float64)))
    return entries


def _config_from_entries(entries: dict) -> ModelConfig:
    def integers(name) -> np.ndarray:
        if name not in entries:
            raise ContractError(f"checkpoint is missing {name}")
        value = entries.pop(name)
        if not (np.isfinite(value).all() and (value == np.round(value)).all()):
            raise ContractError(f"checkpoint {name} must hold integers, got {value}")
        return value.astype(np.int64)

    def scalar(name) -> int:
        value = integers(name)
        if value.shape != ():
            raise ContractError(f"checkpoint {name} must be a scalar, got shape {value.shape}")
        return int(value)

    mode = scalar("config.mode")
    if not 0 <= mode < len(MODES):
        raise ContractError(f"checkpoint config.mode {mode} is not an index into {MODES}")
    widths = tuple(int(v) for v in integers("config.backbone_widths").ravel())
    transformer = TransformerConfig(
        feature_dim=scalar("config.transformer.feature_dim"),
        heads=scalar("config.transformer.heads"),
        encoder_layers=scalar("config.transformer.encoder_layers"),
        decoder_layers=scalar("config.transformer.decoder_layers"),
        ffn_dim=scalar("config.transformer.ffn_dim"))
    return ModelConfig(
        mode=MODES[mode],
        n_basic=scalar("config.n_basic"),
        m_modulated=scalar("config.m_modulated"),
        ratio=scalar("config.ratio"),
        num_classes=scalar("config.num_classes"),
        transformer=transformer,
        image_channels=scalar("config.image_channels"),
        image_size=scalar("config.image_size"),
        backbone_widths=widths,
        coeff_hidden=scalar("config.coeff_hidden"))


_DTYPE_TAG = "f64"  # the one entry type
_ENTRY_DTYPE = np.dtype("<f8")


def save_checkpoint(model: Detector, path) -> None:
    """Versioned container of named arrays: header line, then per entry a
    `name dtype shape...` line followed by the little-endian payload."""
    entries = _config_entries(model.config)
    entries += sorted((name, p.data) for name, p in model.named_parameters())
    with open(path, "wb") as fh:
        fh.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
        for name, arr in entries:
            if arr.dtype != np.float64:
                raise ContractError(f"unsupported checkpoint dtype {arr.dtype} for {name}")
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"{name} {_DTYPE_TAG} {dims}".rstrip().encode("ascii") + b"\n")
            fh.write(np.ascontiguousarray(arr, dtype=_ENTRY_DTYPE).tobytes())


def _read_line(fh, path) -> str:
    raw = fh.readline()
    if not raw.endswith(b"\n"):
        raise ContractError(f"truncated checkpoint {path}")
    return raw[:-1].decode("ascii")


def load_checkpoint(path) -> Detector:
    """Rebuild a Detector from a checkpoint; round-trips byte-exactly."""
    path = Path(path)
    entries: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        if _read_line(fh, path) != CHECKPOINT_MAGIC:
            raise ContractError(f"{path} is not a {CHECKPOINT_MAGIC} checkpoint")
        while True:
            pos = fh.tell()
            raw = fh.readline()
            if not raw:
                break
            fh.seek(pos)
            header = _read_line(fh, path).split()
            if len(header) < 2 or header[1] != _DTYPE_TAG:
                raise ContractError(f"bad checkpoint entry header {header!r}")
            name = header[0]
            try:
                shape = tuple(int(d) for d in header[2:])
            except ValueError:
                raise ContractError(f"bad shape in checkpoint entry {header!r}")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            payload = fh.read(count * _ENTRY_DTYPE.itemsize)
            if len(payload) != count * _ENTRY_DTYPE.itemsize:
                raise ContractError(f"truncated payload for {name} in {path}")
            if name in entries:
                raise ContractError(f"duplicate checkpoint entry {name}")
            entries[name] = np.frombuffer(payload, dtype=_ENTRY_DTYPE).reshape(shape).copy()

    config = _config_from_entries(entries)
    model = Detector(config, seed=0)
    params = dict(model.named_parameters())
    if set(params) != set(entries):
        missing = sorted(set(params) - set(entries))
        extra = sorted(set(entries) - set(params))
        raise ContractError(f"checkpoint/model mismatch: missing {missing}, extra {extra}")
    for name, arr in entries.items():
        p = params[name]
        if p.shape != arr.shape:
            raise ShapeError(f"checkpoint {name} has shape {arr.shape}, model wants {p.shape}")
        p.data = arr
    return model
