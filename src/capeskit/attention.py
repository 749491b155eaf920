"""Tri-level attention forecasting backbone at toy scale.

Input fields from V Earth-system domains (atmosphere, ocean, land), k
channels each, are cut into p x p patches and linearly embedded. Under
the ``sequence_concat`` layout the domains are concatenated along the
sequence axis (L = V * patch_rows * patch_cols); ``channel_stack``
instead stacks domains along channels before patching, the ablation
baseline.

Each block applies three attention levels, each pre-norm with residual:

  window        softmax attention inside each (domain, w x w patch window)
  cross-variable  attention among the V tokens sharing one patch location
  anchor          two-phase cross-attention through m latent anchors:
                  aggregate (anchors query tokens), then broadcast
                  (tokens query the updated anchors)

followed by a two-layer GELU MLP. All three levels cost O(L) in sequence
length; ``dense_attention_oracle`` is the quadratic reference they are
verified against. A lightweight decoder projects atmosphere tokens back
to the native grid.

Tokens are plain (L, d) arrays; token (v, r, c) is row
(v * patch_rows + r) * patch_cols + c. Every reorder (patches, attention
groups, heads, the decoder's un-patching) is one axis swap: read the rows
as (a, b, c, e) and swap b and c. The oracle's masks, ``window_mask`` and
``cross_variable_mask``, are not built from those swaps but from token
coordinates, so a wrong grouping fails the oracle tests. The backbone is
deterministic: :func:`forward` is ``decode(trunk(...))``;
:mod:`capeskit.ensemble` adds the latent noise of its members between the two.

Each stage is one function over the ops of :mod:`capeskit.autodiff`: on
plain arrays it is the inference path, and on Tensors it is taped, which
``grad_check`` verifies against central finite differences.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CapeskitError
from .grid import GridField, GridSpec
from .parallel import blas_single_thread

LAYOUTS = ("sequence_concat", "channel_stack")
#: MLP hidden width as a multiple of embed_dim.
MLP_RATIO = 4


@dataclass(frozen=True)
class AttentionConfig:
    """Backbone hyper-parameters. Defaults are the toy scale; the
    operational scale (embed_dim 512, 8 layers, 8 heads, patch 8, k=16)
    is accepted but not meant to be executed here."""

    embed_dim: int = 32
    num_heads: int = 4
    num_layers: int = 2
    patch_size: int = 8
    window_size: int = 2       # in patches
    num_anchors: int = 8
    num_domains: int = 3
    nlat: int = 32
    nlon: int = 32
    channels: int = 4          # input channels per domain
    layout: str = "sequence_concat"

    def __post_init__(self):
        for name in ("embed_dim", "num_heads", "num_layers", "patch_size", "window_size",
                     "num_anchors", "num_domains", "nlat", "nlon", "channels"):
            if getattr(self, name) < 1:
                raise CapeskitError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.layout not in LAYOUTS:
            raise CapeskitError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if self.embed_dim % self.num_heads != 0:
            raise CapeskitError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.nlat % self.patch_size or self.nlon % self.patch_size:
            raise CapeskitError(
                f"grid {self.nlat}x{self.nlon} not divisible by patch size {self.patch_size}"
            )
        pr, pc = self.nlat // self.patch_size, self.nlon // self.patch_size
        if pr % self.window_size or pc % self.window_size:
            raise CapeskitError(
                f"patch grid {pr}x{pc} not divisible by window size {self.window_size}"
            )

    @property
    def patch_rows(self) -> int:
        return self.nlat // self.patch_size

    @property
    def patch_cols(self) -> int:
        return self.nlon // self.patch_size

    @property
    def effective_domains(self) -> int:
        """Domains seen by the sequence: 1 under channel_stack."""
        return self.num_domains if self.layout == "sequence_concat" else 1

    @property
    def seq_len(self) -> int:
        return self.effective_domains * self.patch_rows * self.patch_cols

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


# ---------------------------------------------------------------------------
# parameters


_PROJ_LEVELS = ("win", "xvar", "agg", "brd")
_PROJ_NAMES = ("Wq", "bq", "Wk", "bk", "Wv", "bv", "Wo", "bo")
_LN_NAMES = ("ln_win", "ln_xvar", "ln_anc", "ln_mlp")


def _param_shapes(cfg: AttentionConfig) -> dict[str, tuple]:
    d = cfg.embed_dim
    p2 = cfg.patch_size * cfg.patch_size
    in_ch = cfg.channels * (cfg.num_domains if cfg.layout == "channel_stack" else 1)
    hidden = MLP_RATIO * d
    shapes: dict[str, tuple] = {
        "embed.W": (p2 * in_ch, d),
        "embed.b": (d,),
        "anchors": (cfg.num_anchors, d),
    }
    for layer in range(cfg.num_layers):
        pre = f"layer{layer}"
        for lvl in _PROJ_LEVELS:
            for name in _PROJ_NAMES:
                shapes[f"{pre}.{lvl}.{name}"] = (d, d) if name.startswith("W") else (d,)
        for ln in _LN_NAMES:
            shapes[f"{pre}.{ln}.g"] = (d,)
            shapes[f"{pre}.{ln}.b"] = (d,)
        shapes[f"{pre}.mlp.W1"] = (d, hidden)
        shapes[f"{pre}.mlp.b1"] = (hidden,)
        shapes[f"{pre}.mlp.W2"] = (hidden, d)
        shapes[f"{pre}.mlp.b2"] = (d,)
    shapes["decoder.W"] = (d, p2)
    shapes["decoder.b"] = (p2,)
    return shapes


class ModelParams:
    """Named parameter tensors with shapes fixed by an AttentionConfig."""

    def __init__(self, cfg: AttentionConfig, tensors: dict[str, np.ndarray]):
        expected = _param_shapes(cfg)
        if set(tensors) != set(expected):
            missing = sorted(set(expected) - set(tensors))
            extra = sorted(set(tensors) - set(expected))
            raise CapeskitError(f"parameter names mismatch: missing={missing}, extra={extra}")
        for name, arr in tensors.items():
            if arr.shape != expected[name]:
                raise CapeskitError(
                    f"parameter {name}: shape {arr.shape}, expected {expected[name]}"
                )
        self.cfg = cfg
        self.tensors = {name: np.asarray(arr, dtype=np.float64) for name, arr in tensors.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def copy(self) -> "ModelParams":
        return ModelParams(self.cfg, {k: v.copy() for k, v in self.tensors.items()})


#: Parameters by name: a ModelParams, or grad_check's name -> Tensor dict.
Params = ModelParams | dict[str, Tensor]


def init_params(cfg: AttentionConfig, seed: int) -> ModelParams:
    """Seeded init: uniform(-1/sqrt(d), 1/sqrt(d)) for projections and
    anchors, zeros for biases and layer-norm offsets, ones for gains."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(cfg.embed_dim)
    tensors = {}
    for name, shape in _param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("W") or name == "anchors":
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        elif leaf == "g":
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return ModelParams(cfg, tensors)


# ---------------------------------------------------------------------------
# tokenization


def _swap(x: ad.Value, dims: tuple[int, int, int, int], shape: tuple) -> ad.Value:
    """Read ``x`` as (a, b, c, e), swap the b and c axes and reshape the
    (a, c, b, e) result to ``shape``: every reorder of the backbone
    (patches, attention groups, heads) is this one."""
    a, b, c, e = dims
    return ad.reshape(ad.transpose(ad.reshape(x, (a, b, c, e)), (0, 2, 1, 3)), shape)


@blas_single_thread
def tokenize(fields: ad.Value, params: Params, cfg: AttentionConfig) -> ad.Value:
    """Patch-embed per-domain fields into the (seq_len, embed_dim) token array.

    ``fields`` has shape (V, nlat, nlon, k). Domains are concatenated
    along the sequence in fixed order (atmosphere, ocean, land, ...)
    under sequence_concat, or stacked along channels first under
    channel_stack. Token (v, r, c) is row (v * patch_rows + r) * patch_cols + c.
    """
    v, k = cfg.num_domains, cfg.channels
    shape = ad.data(fields).shape
    if shape != (v, cfg.nlat, cfg.nlon, k):
        raise CapeskitError(f"inputs shape {shape}, expected {(v, cfg.nlat, cfg.nlon, k)}")
    if cfg.layout == "channel_stack":  # the domains become channels of one grid
        fields = ad.transpose(fields, (1, 2, 0, 3))
    # (domains * patch rows, p, patch cols, p * channels) -> one row per
    # patch token, its p x p x channels values in row-major order
    p = cfg.patch_size
    patches = _swap(fields, (cfg.effective_domains * cfg.patch_rows, p, cfg.patch_cols, -1),
                    (cfg.seq_len, -1))
    return ad.add(ad.matmul(patches, params["embed.W"]), params["embed.b"])


# ---------------------------------------------------------------------------
# attention groups


def _token_coords(cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v, r, c) of every token: token (v, r, c) is row (v * pr + r) * pc + c."""
    v, r, c = np.indices((cfg.effective_domains, cfg.patch_rows, cfg.patch_cols))
    return v.ravel(), r.ravel(), c.ravel()


def _same(a: np.ndarray) -> np.ndarray:
    return a[:, None] == a[None, :]


def window_mask(cfg: AttentionConfig) -> np.ndarray:
    """L x L boolean mask, True where two tokens share a domain and a
    w x w patch window: equal v, r // w and c // w."""
    v, r, c = _token_coords(cfg)
    w = cfg.window_size
    return _same(v) & _same(r // w) & _same(c // w)


def cross_variable_mask(cfg: AttentionConfig) -> np.ndarray:
    """L x L boolean mask, True where two tokens share a patch location:
    equal r and c."""
    _, r, c = _token_coords(cfg)
    return _same(r) & _same(c)


def _group_dims(cfg: AttentionConfig, kind: str) -> tuple[int, int, int, int]:
    """(a, b, c, e) such that the token rows read as (a, b, c, e) and
    swapped to (a, c, b, e) list the a * c attention groups of ``kind``
    one after another, b * e tokens each."""
    veff, pr, pc, w = cfg.effective_domains, cfg.patch_rows, cfg.patch_cols, cfg.window_size
    return {"window": (veff * pr // w, w, pc // w, w), "crossvar": (1, veff, pr * pc, 1)}[kind]


def _proj(x: ad.Value, params: Params, layer: int, lvl: str, which: str) -> ad.Value:
    """x @ W{which} + b{which} of ``layer{layer}.{lvl}``."""
    pre = f"layer{layer}.{lvl}"
    return ad.add(ad.matmul(x, params[f"{pre}.W{which}"]), params[f"{pre}.b{which}"])


def _grouped_attention(
    xn: ad.Value, params: Params, cfg: AttentionConfig, layer: int, lvl: str, kind: str
) -> ad.Value:
    """Multi-head attention restricted to equal-size groups, batched as
    (groups, heads, group, group) score tensors. O(L * group_size * d)."""
    h, dh, d = cfg.num_heads, cfg.head_dim, cfg.embed_dim
    a, b, c, e = _group_dims(cfg, kind)
    ng, gs = a * c, b * e

    def grouped(which: str) -> ad.Value:
        y = _swap(_proj(xn, params, layer, lvl, which), (a, b, c, e * d), (ng, gs, d))
        return _swap(y, (ng, gs, h, dh), (ng, h, gs, dh))

    q, k, v = grouped("q"), grouped("k"), grouped("v")
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = ad.softmax_last(scores)
    out = _swap(ad.matmul(attn, v), (ng, h, gs, dh), (ng * gs, d))
    out = _swap(out, (a, c, b, e * d), (cfg.seq_len, d))
    return _proj(out, params, layer, lvl, "o")


def _cross_attention(
    q_src: ad.Value, kv_src: ad.Value, params: Params, cfg: AttentionConfig, layer: int, lvl: str
) -> ad.Value:
    """Multi-head cross-attention: queries from q_src, keys/values from
    kv_src. O(len(q_src) * len(kv_src) * d)."""
    h, dh, d = cfg.num_heads, cfg.head_dim, cfg.embed_dim
    nq, nk = ad.data(q_src).shape[0], ad.data(kv_src).shape[0]
    q = _swap(_proj(q_src, params, layer, lvl, "q"), (1, nq, h, dh), (h, nq, dh))
    k = _swap(_proj(kv_src, params, layer, lvl, "k"), (1, nk, h, dh), (h, nk, dh))
    v = _swap(_proj(kv_src, params, layer, lvl, "v"), (1, nk, h, dh), (h, nk, dh))
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    out = ad.matmul(ad.softmax_last(scores), v)  # (h, nq, dh)
    out = _swap(out, (1, h, nq, dh), (nq, d))
    return _proj(out, params, layer, lvl, "o")


def _ln(x: ad.Value, params: Params, layer: int, which: str) -> ad.Value:
    return ad.layer_norm(x, params[f"layer{layer}.{which}.g"], params[f"layer{layer}.{which}.b"])


def _check_tokens(x: ad.Value, cfg: AttentionConfig) -> None:
    shape = ad.data(x).shape
    if shape != (cfg.seq_len, cfg.embed_dim):
        raise CapeskitError(f"token shape {shape} inconsistent with config "
                            f"({cfg.seq_len}, {cfg.embed_dim})")


@blas_single_thread
def window_attention(x: ad.Value, params: Params, cfg: AttentionConfig,
                     layer: int = 0) -> ad.Value:
    """Pre-norm windowed attention with residual, grouped per (domain,
    w x w patch window)."""
    _check_tokens(x, cfg)
    xn = _ln(x, params, layer, "ln_win")
    return ad.add(x, _grouped_attention(xn, params, cfg, layer, "win", "window"))


@blas_single_thread
def cross_variable_attention(x: ad.Value, params: Params, cfg: AttentionConfig,
                             layer: int = 0) -> ad.Value:
    """Pre-norm attention among the tokens sharing one patch location."""
    _check_tokens(x, cfg)
    xn = _ln(x, params, layer, "ln_xvar")
    return ad.add(x, _grouped_attention(xn, params, cfg, layer, "xvar", "crossvar"))


@blas_single_thread
def anchor_attention(x: ad.Value, anchors: ad.Value, params: Params,
                     cfg: AttentionConfig, layer: int = 0) -> ad.Value:
    """Aggregate-then-broadcast two-phase attention through m anchors."""
    _check_tokens(x, cfg)
    xn = _ln(x, params, layer, "ln_anc")
    state = _cross_attention(anchors, xn, params, cfg, layer, "agg")   # (m, d)
    out = _cross_attention(xn, state, params, cfg, layer, "brd")       # (L, d)
    return ad.add(x, out)


def _mlp(x: ad.Value, params: Params, layer: int) -> ad.Value:
    """Pre-norm two-layer GELU MLP with residual."""
    hid = ad.gelu(_proj(_ln(x, params, layer, "ln_mlp"), params, layer, "mlp", "1"))
    return ad.add(x, _proj(hid, params, layer, "mlp", "2"))


# ---------------------------------------------------------------------------
# dense reference


def _np_layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * np.power(var + ad.LN_EPS, -0.5) * g + b


def dense_attention_oracle(x: np.ndarray, mask: np.ndarray, params: ModelParams,
                           cfg: AttentionConfig, layer: int = 0,
                           level: str = "win") -> np.ndarray:
    """Ground-truth masked multi-head attention, O(L^2), plain per-head
    loops. Applies the same pre-norm/residual contract as the grouped
    levels so outputs are directly comparable."""
    x = np.asarray(x, dtype=np.float64)
    _check_tokens(x, cfg)
    mask = np.asarray(mask, dtype=bool)
    n = x.shape[0]
    if mask.shape != (n, n):
        raise CapeskitError(f"mask shape {mask.shape}, expected {(n, n)}")
    if not mask.any(axis=1).all():
        raise CapeskitError("every token must attend to at least one token")
    ln_key = {"win": "ln_win", "xvar": "ln_xvar", "agg": "ln_anc", "brd": "ln_anc"}[level]
    p = params.tensors
    pre = f"layer{layer}"
    xn = _np_layer_norm(x, p[f"{pre}.{ln_key}.g"], p[f"{pre}.{ln_key}.b"])
    q = xn @ p[f"{pre}.{level}.Wq"] + p[f"{pre}.{level}.bq"]
    k = xn @ p[f"{pre}.{level}.Wk"] + p[f"{pre}.{level}.bk"]
    v = xn @ p[f"{pre}.{level}.Wv"] + p[f"{pre}.{level}.bv"]
    h, dh = cfg.num_heads, cfg.head_dim
    heads = []
    for i in range(h):
        sl = slice(i * dh, (i + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        scores = np.where(mask, scores, -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        w = e / e.sum(axis=1, keepdims=True)
        heads.append(w @ v[:, sl])
    out = np.concatenate(heads, axis=1) @ p[f"{pre}.{level}.Wo"] + p[f"{pre}.{level}.bo"]
    return x + out


# ---------------------------------------------------------------------------
# forward / decode


@blas_single_thread
def trunk(params: Params, inputs: ad.Value, cfg: AttentionConfig) -> ad.Value:
    """Embed ``inputs`` and run all ``num_layers`` blocks, each the three
    attention levels and the MLP. Returns the (seq_len, embed_dim) tokens
    that :func:`decode` reads."""
    tokens = tokenize(inputs, params, cfg)
    for layer in range(cfg.num_layers):
        tokens = window_attention(tokens, params, cfg, layer)
        tokens = cross_variable_attention(tokens, params, cfg, layer)
        tokens = anchor_attention(tokens, params["anchors"], params, cfg, layer)
        tokens = _mlp(tokens, params, layer)
    return tokens


@blas_single_thread
def decode(params: Params, tokens: ad.Value, cfg: AttentionConfig,
           spec: Optional[GridSpec] = None) -> ad.Value:
    """Precipitation (mm) on ``spec``, the config grid by default, from
    token arrays: (n, embed_dim) tokens give one (nlat, nlon) field, a
    stack (k, n, embed_dim) gives k fields with one matmul, and field m
    has the bits that decoding ``tokens[m]`` alone gives. The decoder
    reads only the atmosphere domain, the first ``patch_rows *
    patch_cols`` tokens, so n may stop there. The tokens are only read."""
    if spec is not None and (spec.nlat, spec.nlon) != (cfg.nlat, cfg.nlon):
        raise CapeskitError(
            f"target spec {spec.nlat}x{spec.nlon} does not match config grid "
            f"{cfg.nlat}x{cfg.nlon}"
        )
    p, pr, pc = cfg.patch_size, cfg.patch_rows, cfg.patch_cols
    *lead, n, d = ad.data(tokens).shape
    rows = (np.arange(math.prod(lead), dtype=np.intp)[:, None] * n + np.arange(pr * pc)).ravel()
    atm = ad.take_rows(ad.reshape(tokens, (-1, d)), rows)
    patches = ad.add(ad.matmul(atm, params["decoder.W"]), params["decoder.b"])  # (k*pr*pc, p*p)
    return _swap(patches, (-1, pc, p, p), (*lead, cfg.nlat, cfg.nlon))


def forward(params: ModelParams, inputs: np.ndarray, cfg: AttentionConfig,
            spec: Optional[GridSpec] = None) -> GridField:
    """Run the backbone and decode a precipitation field (mm) at native
    resolution: ``decode(trunk(...))``, a pure function of (params,
    inputs). The AI ensemble perturbs the tokens between the two."""
    values = decode(params, trunk(params, inputs, cfg), cfg, spec)
    return GridField(spec or GridSpec(cfg.nlat, cfg.nlon), values, units="mm")


# ---------------------------------------------------------------------------
# accounting and checking


def flop_count(cfg: AttentionConfig, L: int) -> dict[str, int]:
    """Closed-form multiply-add counts of the softmax-matrix terms (score
    build + value apply) for one application of each attention level at
    sequence length L. Projection costs, linear in L for every level,
    are excluded so the dense quadratic term is isolated."""
    d, w, veff, m = cfg.embed_dim, cfg.window_size, cfg.effective_domains, cfg.num_anchors
    return {
        "window_flops": 2 * L * w * w * d,
        "crossvar_flops": 2 * L * veff * d,
        "anchor_flops": 4 * L * m * d,
        "dense_flops": 2 * L * L * d,
    }


def tri_level_flops(cfg: AttentionConfig, L: int) -> int:
    f = flop_count(cfg, L)
    return f["window_flops"] + f["crossvar_flops"] + f["anchor_flops"]


@blas_single_thread
def measure_block_time(cfg: AttentionConfig, seed: int = 0, repeats: int = 3) -> float:
    """Best-of-N wall time of one tri-level block (window + cross-variable
    + anchor) on random tokens at cfg's sequence length."""
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cfg.seq_len, cfg.embed_dim))
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        y = window_attention(x, params, cfg)
        y = cross_variable_attention(y, params, cfg)
        anchor_attention(y, params["anchors"], params, cfg)
        best = min(best, time.perf_counter() - t0)
    return best


def _loss_value(params: Params, inputs: ad.Value, cfg: AttentionConfig) -> ad.Value:
    """sum(output^2) of the decoded field: on the tape when ``params`` or
    ``inputs`` holds Tensors."""
    out = decode(params, trunk(params, inputs, cfg), cfg)
    return ad.sum_all(ad.mul(out, out))


@blas_single_thread
def grad_check(params: ModelParams, inputs: np.ndarray, cfg: AttentionConfig,
               probe_count: int = 20, step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between tape gradients of sum(output^2) and
    central finite differences over randomly probed parameter and input
    entries."""
    if probe_count < 1 or not step > 0:
        raise CapeskitError(f"grad_check needs probe_count >= 1 and step > 0, "
                            f"got {probe_count} and {step}")
    inputs = np.asarray(inputs, dtype=np.float64)
    pt = {k: Tensor(v, requires_grad=True) for k, v in params.tensors.items()}
    inputs_t = Tensor(inputs, requires_grad=True)
    _loss_value(pt, inputs_t, cfg).backward()

    targets = [("<inputs>", inputs_t)] + [(n, pt[n]) for n in sorted(pt)]
    sizes = np.array([t.data.size for _, t in targets])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(probe_count, total), replace=False)
    bounds = np.concatenate([[0], np.cumsum(sizes)])

    max_rel = 0.0
    for flat in picks:
        ti = int(np.searchsorted(bounds, flat, side="right") - 1)
        name, tensor = targets[ti]
        local = int(flat - bounds[ti])
        analytic = float(tensor.grad.reshape(-1)[local]) if tensor.grad is not None else 0.0
        if not np.isfinite(analytic):
            raise CapeskitError(f"non-finite gradient at {name}[{local}]")

        def loss_with(delta: float) -> float:
            p2 = params.copy()
            inp2 = inputs.copy()
            if name == "<inputs>":
                inp2.reshape(-1)[local] += delta
            else:
                p2.tensors[name].reshape(-1)[local] += delta
            return float(_loss_value(p2, inp2, cfg))

        numeric = (loss_with(step) - loss_with(-step)) / (2.0 * step)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        max_rel = max(max_rel, rel)
    return max_rel
