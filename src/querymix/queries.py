"""Query machinery: the learned basic-query bank with sequential grouping,
fixed (seeded) combination modes for the perturbation study, and the
input-conditioned coefficient network that produces modulated queries.

A bank of n basic queries is split into m sequential groups of r rows each
(n = r*m); group i owns rows [i*r, (i+1)*r). A modulated query is a convex
combination of its group, with coefficients predicted per image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .nn import MLP, Module, global_average_pool, parameter
from .tensor import Tensor, make_op

_ROW_SUM_TOL = 1e-9
_REDRAW_TOL = 1e-6  # nonconvex rows with |sum| below this are redrawn

FIXED_MODES = ("convex", "nonconvex", "averaged", "random_sample")


class QueryBank(Module):
    """n learnable query vectors arranged as m sequential groups of r."""

    def __init__(self, n: int, ratio: int, dim: int, rng: np.random.Generator):
        if n < 1 or ratio < 1:
            raise ContractError(f"bank needs n >= 1 and ratio >= 1, got n={n}, ratio={ratio}")
        if n % ratio != 0:
            raise ContractError(f"bank size {n} not divisible by ratio {ratio}")
        self.basic = parameter(rng.standard_normal((n, dim)) * 0.02)
        self.ratio = ratio
        self.groups = n // ratio

    @property
    def n(self) -> int:
        return self.basic.shape[0]

    @property
    def dim(self) -> int:
        return self.basic.shape[1]


@dataclass
class CombinationCoefficients:
    """Row-stochastic combination weights, [m, r] or [batch, m, r]."""

    matrix: Tensor

    def validate(self) -> "CombinationCoefficients":
        w = self.matrix.data
        if w.ndim not in (2, 3):
            raise ShapeError(f"coefficients must be [m, r] or [batch, m, r], got {w.shape}")
        if w.min() < 0.0:
            raise ContractError(f"negative combination coefficient {w.min()}")
        err = np.abs(w.sum(axis=-1) - 1.0).max()
        if err > _ROW_SUM_TOL:
            raise ContractError(f"coefficient rows must sum to 1, worst error {err}")
        return self


def group_queries(bank: QueryBank) -> list[np.ndarray]:
    """Sequential partition of the bank; concatenating the groups in order
    reconstructs the basic queries exactly."""
    r = bank.ratio
    return [bank.basic.data[g * r:(g + 1) * r].copy() for g in range(bank.groups)]


def _combine_kernel(basic: np.ndarray, weights: np.ndarray) -> np.ndarray:
    m, r = weights.shape[-2], weights.shape[-1]
    grouped = basic.reshape(m, r, basic.shape[-1])
    if weights.ndim == 2:
        return np.einsum("mr,mrf->mf", weights, grouped)
    return np.einsum("bmr,mrf->bmf", weights, grouped)


def linear_combination(basic: Tensor, weights: Tensor) -> Tensor:
    """Differentiable group-wise combination: out[i] = sum_j w[i,j] * basic[i*r+j].

    ``weights`` is [m, r] or [batch, m, r]; the same kernel backs both the
    fixed study modes and the learned modulation, so equal weights give
    bitwise-equal outputs.
    """
    n, f = basic.shape
    m, r = weights.shape[-2], weights.shape[-1]
    if m * r != n:
        raise ShapeError(f"weights {weights.shape} incompatible with bank of {n} queries")
    data = _combine_kernel(basic.data, weights.data)

    def backward_fn(g):
        grouped = basic.data.reshape(m, r, f)
        if weights.data.ndim == 2:
            gw = np.einsum("mf,mrf->mr", g, grouped)
            gb = np.einsum("mr,mf->mrf", weights.data, g).reshape(n, f)
        else:
            gw = np.einsum("bmf,mrf->bmr", g, grouped)
            gb = np.einsum("bmr,bmf->mrf", weights.data, g).reshape(n, f)
        return gb, gw

    return make_op("linear_combination", data, (basic, weights), backward_fn)


def draw_coefficients(mode: str, m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an [m, r] coefficient matrix for one fixed-combination trial."""
    if mode == "convex":
        w = rng.uniform(-1.0, 1.0, (m, r))
        e = np.exp(w - w.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    if mode == "nonconvex":
        w = rng.uniform(-1.0, 1.0, (m, r))
        sums = w.sum(axis=1)
        bad = np.abs(sums) < _REDRAW_TOL
        while bad.any():
            w[bad] = rng.uniform(-1.0, 1.0, (int(bad.sum()), r))
            sums = w.sum(axis=1)
            bad = np.abs(sums) < _REDRAW_TOL
        return w / sums[:, None]
    if mode == "averaged":
        return np.full((m, r), 1.0 / r)
    raise ContractError(f"unknown combination mode {mode!r}; expected one of {FIXED_MODES}")


def combine_fixed(bank: QueryBank, mode: str, seed: int) -> Tensor:
    """One perturbation-study draw: replace the bank by m combined queries.

    convex: Uniform[-1,1] then row-softmax. nonconvex: Uniform[-1,1] scaled
    to row sum 1 (entries may be negative). averaged: every weight 1/r,
    deterministic. random_sample: m distinct basic rows, verbatim.
    """
    if mode not in FIXED_MODES:
        raise ContractError(f"unknown combination mode {mode!r}; expected one of {FIXED_MODES}")
    rng = np.random.default_rng(seed)
    if mode == "random_sample":
        idx = rng.choice(bank.n, size=bank.groups, replace=False)
        return Tensor(bank.basic.data[idx].copy())
    w = draw_coefficients(mode, bank.groups, bank.ratio, rng)
    with T.no_grad():
        return linear_combination(bank.basic, Tensor(w))


class CoeffNet(Module):
    """Pooled image feature -> two-layer MLP -> row-softmaxed [m, r] weights."""

    def __init__(self, feature_dim: int, m: int, r: int, rng: np.random.Generator,
                 hidden: int):
        self.mlp = MLP([feature_dim, hidden, m * r], rng)
        self.m = m
        self.r = r
        self.feature_dim = feature_dim


def _pooled_mlp(net, features: Tensor, width: int) -> Tensor:
    """Global-average-pool a [ch, h, w] or [batch, ch, h, w] feature map, run
    ``net.mlp`` and reshape to [m, width] (or [batch, m, width])."""
    if features.shape[-3] != net.feature_dim:
        raise ShapeError(
            f"feature channels {features.shape[-3]} != net input dim {net.feature_dim}")
    pooled = global_average_pool(features)
    batched = pooled.ndim == 2
    if not batched:
        pooled = T.reshape(pooled, (1, pooled.shape[0]))
    out = net.mlp(pooled)
    shape = (out.shape[0], net.m, width) if batched else (net.m, width)
    return T.reshape(out, shape)


def coeff_forward(net: CoeffNet, features: Tensor) -> CombinationCoefficients:
    """Predict combination coefficients from a backbone feature map
    ([ch, h, w] or [batch, ch, h, w]); differentiable end-to-end."""
    return CombinationCoefficients(T.softmax(_pooled_mlp(net, features, net.r)))


def modulate(bank: QueryBank, coeffs: CombinationCoefficients) -> Tensor:
    """Modulated queries: per-group convex combination of the basic bank.
    Gradients flow to both the coefficients and the basic queries."""
    coeffs.validate()
    if coeffs.matrix.shape[-2:] != (bank.groups, bank.ratio):
        raise ShapeError(
            f"coefficients {coeffs.matrix.shape} do not match bank layout "
            f"({bank.groups} groups x {bank.ratio})")
    return linear_combination(bank.basic, coeffs.matrix)


class DirectQueryNet(Module):
    """Ablation baseline: pooled feature -> MLP -> m query vectors directly,
    with no basic bank and no softmax."""

    def __init__(self, feature_dim: int, m: int, query_dim: int, rng: np.random.Generator,
                 hidden: int):
        self.mlp = MLP([feature_dim, hidden, m * query_dim], rng)
        self.m = m
        self.query_dim = query_dim
        self.feature_dim = feature_dim


def direct_mlp_queries(net: DirectQueryNet, features: Tensor) -> Tensor:
    """[m, f] (or [batch, m, f]) queries straight from the pooled feature."""
    return _pooled_mlp(net, features, net.query_dim)
