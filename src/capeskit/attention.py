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

Gradients come from the tape in :mod:`capeskit.autodiff`; ``grad_check``
verifies them against central finite differences.
"""

from __future__ import annotations

import functools
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
    latent_noise_sigma: float = 0.0
    noise_layer: Optional[int] = None   # defaults to the last layer
    layout: str = "sequence_concat"

    def __post_init__(self):
        for name in ("embed_dim", "num_heads", "num_layers", "patch_size", "window_size",
                     "num_anchors", "num_domains", "channels"):
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
        if self.latent_noise_sigma < 0:
            raise CapeskitError("latent_noise_sigma must be >= 0")
        if self.noise_layer is not None and not 0 <= self.noise_layer < self.num_layers:
            raise CapeskitError(
                f"noise_layer {self.noise_layer} outside [0, {self.num_layers})"
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

    @property
    def effective_noise_layer(self) -> int:
        return self.num_layers - 1 if self.noise_layer is None else self.noise_layer


@dataclass
class TokenSequence:
    """L x d token array plus per-token (domain, patch row, patch col) tags."""

    tokens: np.ndarray  # (L, d); a Tensor passed in is unwrapped
    tags: np.ndarray  # (L, 3) ints

    def __post_init__(self):
        self.tokens = ad.data(self.tokens)
        self.tags = np.asarray(self.tags, dtype=np.int64)
        if self.tokens.ndim != 2 or self.tags.shape != (self.tokens.shape[0], 3):
            raise CapeskitError(
                f"tokens {self.tokens.shape} and tags {self.tags.shape} inconsistent"
            )
        if not np.isfinite(self.tokens).all():
            raise CapeskitError("token values must be finite")

    @property
    def values(self) -> np.ndarray:
        return self.tokens


def token_tags(cfg: AttentionConfig) -> np.ndarray:
    """Tags in token order: (v, row, col) lexicographic."""
    v = np.arange(cfg.effective_domains)
    r = np.arange(cfg.patch_rows)
    c = np.arange(cfg.patch_cols)
    grid = np.stack(np.meshgrid(v, r, c, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


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


def _wrap(params: ModelParams, requires_grad: bool) -> dict[str, ad.Value]:
    """Parameters as the ops take them: the plain arrays for inference,
    or leaf Tensors that collect gradients."""
    if not requires_grad:
        return params.tensors
    return {k: Tensor(v, requires_grad=True) for k, v in params.tensors.items()}


# ---------------------------------------------------------------------------
# tokenization


def _patchify(field_t: ad.Value, cfg: AttentionConfig, nch: int) -> ad.Value:
    """(nlat, nlon, nch) -> (patch_rows*patch_cols, p*p*nch), row-major patches."""
    p, pr, pc = cfg.patch_size, cfg.patch_rows, cfg.patch_cols
    x = ad.reshape(field_t, (pr, p, pc, p, nch))
    x = ad.transpose(x, (0, 2, 1, 3, 4))
    return ad.reshape(x, (pr * pc, p * p * nch))


def _embed_tokens(inputs_t: ad.Value, pt: dict[str, ad.Value], cfg: AttentionConfig) -> ad.Value:
    """(V, nlat, nlon, k) input stack -> (L, d) embedded tokens."""
    v, k = cfg.num_domains, cfg.channels
    shape = ad.data(inputs_t).shape
    if shape != (v, cfg.nlat, cfg.nlon, k):
        raise CapeskitError(f"inputs shape {shape}, expected {(v, cfg.nlat, cfg.nlon, k)}")
    if cfg.layout == "sequence_concat":
        per_domain = [
            _patchify(ad.reshape(ad.take_rows(inputs_t, [dv]), (cfg.nlat, cfg.nlon, k)), cfg, k)
            for dv in range(v)
        ]
        patches = ad.concat_rows(per_domain)
    else:
        stacked = ad.reshape(ad.transpose(inputs_t, (1, 2, 0, 3)), (cfg.nlat, cfg.nlon, v * k))
        patches = _patchify(stacked, cfg, v * k)
    return ad.add(ad.matmul(patches, pt["embed.W"]), pt["embed.b"])


@blas_single_thread
def tokenize(fields: np.ndarray, params: ModelParams, cfg: AttentionConfig) -> TokenSequence:
    """Patch-embed per-domain fields into a token sequence.

    ``fields`` has shape (V, nlat, nlon, k). Domains are concatenated
    along the sequence in fixed order (atmosphere, ocean, land, ...)
    under sequence_concat, or stacked along channels first under
    channel_stack.
    """
    pt = _wrap(params, requires_grad=False)
    tokens = _embed_tokens(np.asarray(fields, dtype=np.float64), pt, cfg)
    return TokenSequence(tokens, token_tags(cfg))


# ---------------------------------------------------------------------------
# attention groups


@functools.lru_cache(maxsize=None)
def _group_perm(cfg: AttentionConfig, kind: str) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Token permutation gathering attention groups contiguously.

    Returns (perm, inv, n_groups, group_size); perm is ordered
    group-by-group and inv is its inverse. Cached per (cfg, kind), so
    both arrays are read-only.
    """
    veff, pr, pc, w = cfg.effective_domains, cfg.patch_rows, cfg.patch_cols, cfg.window_size
    tok = lambda v, r, c: (v * pr + r) * pc + c  # noqa: E731
    groups: list[list[int]] = []
    if kind == "window":
        for v in range(veff):
            for wr in range(pr // w):
                for wc in range(pc // w):
                    groups.append(
                        [tok(v, wr * w + dr, wc * w + dc) for dr in range(w) for dc in range(w)]
                    )
    elif kind == "crossvar":
        for r in range(pr):
            for c in range(pc):
                groups.append([tok(v, r, c) for v in range(veff)])
    else:
        raise ValueError(kind)
    perm = np.array([t for g in groups for t in g], dtype=np.intp)
    inv = np.argsort(perm)
    perm.flags.writeable = False
    inv.flags.writeable = False
    return perm, inv, len(groups), len(groups[0])


def window_mask(cfg: AttentionConfig) -> np.ndarray:
    """L x L boolean mask with True inside each (domain, window) block."""
    return _mask_from_groups(cfg, "window")


def cross_variable_mask(cfg: AttentionConfig) -> np.ndarray:
    """L x L boolean mask grouping the V tokens at each patch location."""
    return _mask_from_groups(cfg, "crossvar")


def _mask_from_groups(cfg: AttentionConfig, kind: str) -> np.ndarray:
    perm, _, n_groups, gsize = _group_perm(cfg, kind)
    mask = np.zeros((cfg.seq_len, cfg.seq_len), dtype=bool)
    for g in range(n_groups):
        idx = perm[g * gsize:(g + 1) * gsize]
        mask[np.ix_(idx, idx)] = True
    return mask


def _heads(x: ad.Value, n: int, h: int, dh: int) -> ad.Value:
    """(n, d) -> (h, n, dh)."""
    return ad.transpose(ad.reshape(x, (n, h, dh)), (1, 0, 2))


def _unheads(x: ad.Value, n: int, d: int) -> ad.Value:
    """(h, n, dh) -> (n, d)."""
    return ad.reshape(ad.transpose(x, (1, 0, 2)), (n, d))


def _proj(x: ad.Value, pt: dict[str, ad.Value], layer: int, lvl: str, which: str) -> ad.Value:
    pre = f"layer{layer}.{lvl}"
    return ad.add(ad.matmul(x, pt[f"{pre}.W{which}"]), pt[f"{pre}.b{which}"])


def _grouped_attention(
    xn: ad.Value, pt: dict[str, ad.Value], cfg: AttentionConfig, layer: int, lvl: str, kind: str
) -> ad.Value:
    """Multi-head attention restricted to equal-size groups, batched as
    (groups, heads, group, group) score tensors. O(L * group_size * d)."""
    h, dh, d = cfg.num_heads, cfg.head_dim, cfg.embed_dim
    perm, inv, ng, gs = _group_perm(cfg, kind)

    def grouped(which: str) -> ad.Value:
        y = ad.take_rows(_proj(xn, pt, layer, lvl, which), perm)
        y = ad.reshape(y, (ng, gs, h, dh))
        return ad.transpose(y, (0, 2, 1, 3))  # (ng, h, gs, dh)

    q, k, v = grouped("q"), grouped("k"), grouped("v")
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = ad.softmax_last(scores)
    out = ad.matmul(attn, v)  # (ng, h, gs, dh)
    out = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (ng * gs, d))
    out = ad.take_rows(out, inv)
    return ad.add(ad.matmul(out, pt[f"layer{layer}.{lvl}.Wo"]), pt[f"layer{layer}.{lvl}.bo"])


def _cross_attention(
    q_src: ad.Value, kv_src: ad.Value, pt: dict[str, ad.Value], cfg: AttentionConfig, layer: int,
    lvl: str
) -> ad.Value:
    """Multi-head cross-attention: queries from q_src, keys/values from
    kv_src. O(len(q_src) * len(kv_src) * d)."""
    h, dh, d = cfg.num_heads, cfg.head_dim, cfg.embed_dim
    nq, nk = ad.data(q_src).shape[0], ad.data(kv_src).shape[0]
    q = _heads(_proj(q_src, pt, layer, lvl, "q"), nq, h, dh)
    k = _heads(_proj(kv_src, pt, layer, lvl, "k"), nk, h, dh)
    v = _heads(_proj(kv_src, pt, layer, lvl, "v"), nk, h, dh)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    out = ad.matmul(ad.softmax_last(scores), v)  # (h, nq, dh)
    out = _unheads(out, nq, d)
    return ad.add(ad.matmul(out, pt[f"layer{layer}.{lvl}.Wo"]), pt[f"layer{layer}.{lvl}.bo"])


def _ln(x: ad.Value, pt: dict[str, ad.Value], layer: int, which: str) -> ad.Value:
    return ad.layer_norm(x, pt[f"layer{layer}.{which}.g"], pt[f"layer{layer}.{which}.b"])


def _window_t(x: ad.Value, pt, cfg, layer) -> ad.Value:
    return ad.add(x, _grouped_attention(_ln(x, pt, layer, "ln_win"), pt, cfg, layer, "win", "window"))


def _xvar_t(x: ad.Value, pt, cfg, layer) -> ad.Value:
    return ad.add(x, _grouped_attention(_ln(x, pt, layer, "ln_xvar"), pt, cfg, layer, "xvar", "crossvar"))


def _anchor_t(x: ad.Value, anchors: ad.Value, pt, cfg, layer) -> ad.Value:
    xn = _ln(x, pt, layer, "ln_anc")
    state = _cross_attention(anchors, xn, pt, cfg, layer, "agg")   # (m, d)
    out = _cross_attention(xn, state, pt, cfg, layer, "brd")       # (L, d)
    return ad.add(x, out)


def _mlp_t(x: ad.Value, pt, cfg, layer) -> ad.Value:
    xn = _ln(x, pt, layer, "ln_mlp")
    hid = ad.gelu(ad.add(ad.matmul(xn, pt[f"layer{layer}.mlp.W1"]), pt[f"layer{layer}.mlp.b1"]))
    out = ad.add(ad.matmul(hid, pt[f"layer{layer}.mlp.W2"]), pt[f"layer{layer}.mlp.b2"])
    return ad.add(x, out)


def _check_tokens(x: TokenSequence, cfg: AttentionConfig) -> None:
    if x.values.shape != (cfg.seq_len, cfg.embed_dim):
        raise CapeskitError(
            f"token shape {x.values.shape} inconsistent with config "
            f"({cfg.seq_len}, {cfg.embed_dim})"
        )
    if not np.array_equal(x.tags, token_tags(cfg)):
        raise CapeskitError("token tags inconsistent with config ordering")


@blas_single_thread
def window_attention(x: TokenSequence, params: ModelParams, cfg: AttentionConfig,
                     layer: int = 0) -> TokenSequence:
    """Pre-norm windowed attention with residual, grouped per (domain,
    w x w patch window)."""
    _check_tokens(x, cfg)
    pt = _wrap(params, requires_grad=False)
    return TokenSequence(_window_t(x.tokens, pt, cfg, layer), x.tags)


@blas_single_thread
def cross_variable_attention(x: TokenSequence, params: ModelParams, cfg: AttentionConfig,
                             layer: int = 0) -> TokenSequence:
    """Pre-norm attention among the tokens sharing one patch location."""
    _check_tokens(x, cfg)
    pt = _wrap(params, requires_grad=False)
    return TokenSequence(_xvar_t(x.tokens, pt, cfg, layer), x.tags)


@blas_single_thread
def anchor_attention(x: TokenSequence, anchors: np.ndarray, params: ModelParams,
                     cfg: AttentionConfig, layer: int = 0) -> TokenSequence:
    """Aggregate-then-broadcast two-phase attention through m anchors."""
    _check_tokens(x, cfg)
    pt = _wrap(params, requires_grad=False)
    return TokenSequence(_anchor_t(x.tokens, anchors, pt, cfg, layer), x.tags)


# ---------------------------------------------------------------------------
# dense reference


def _np_layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * np.power(var + eps, -0.5) * g + b


def dense_attention_oracle(x: TokenSequence, mask: np.ndarray, params: ModelParams,
                           cfg: AttentionConfig, layer: int = 0,
                           level: str = "win") -> TokenSequence:
    """Ground-truth masked multi-head attention, O(L^2), plain per-head
    loops. Applies the same pre-norm/residual contract as the grouped
    levels so outputs are directly comparable."""
    mask = np.asarray(mask, dtype=bool)
    n = x.values.shape[0]
    if mask.shape != (n, n):
        raise CapeskitError(f"mask shape {mask.shape}, expected {(n, n)}")
    if not mask.any(axis=1).all():
        raise CapeskitError("every token must attend to at least one token")
    ln_key = {"win": "ln_win", "xvar": "ln_xvar", "agg": "ln_anc", "brd": "ln_anc"}[level]
    p = params.tensors
    pre = f"layer{layer}"
    xn = _np_layer_norm(x.values, p[f"{pre}.{ln_key}.g"], p[f"{pre}.{ln_key}.b"])
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
    return TokenSequence(x.values + out, x.tags)


# ---------------------------------------------------------------------------
# forward / decode


def _decode_t(tokens: ad.Value, pt: dict[str, ad.Value], cfg: AttentionConfig) -> ad.Value:
    """Atmosphere-domain tokens -> (nlat, nlon) grid."""
    p, pr, pc = cfg.patch_size, cfg.patch_rows, cfg.patch_cols
    atm = ad.take_rows(tokens, np.arange(pr * pc, dtype=np.intp))
    patches = ad.add(ad.matmul(atm, pt["decoder.W"]), pt["decoder.b"])  # (pr*pc, p*p)
    x = ad.reshape(patches, (pr, pc, p, p))
    x = ad.transpose(x, (0, 2, 1, 3))
    return ad.reshape(x, (cfg.nlat, cfg.nlon))


def _block_t(tokens: ad.Value, pt: dict[str, ad.Value], cfg: AttentionConfig,
             layer: int) -> ad.Value:
    tokens = _window_t(tokens, pt, cfg, layer)
    tokens = _xvar_t(tokens, pt, cfg, layer)
    tokens = _anchor_t(tokens, pt["anchors"], pt, cfg, layer)
    return _mlp_t(tokens, pt, cfg, layer)


def _trunk_t(pt: dict[str, ad.Value], inputs_t: ad.Value, cfg: AttentionConfig) -> ad.Value:
    tokens = _embed_tokens(inputs_t, pt, cfg)
    for layer in range(cfg.effective_noise_layer + 1):
        tokens = _block_t(tokens, pt, cfg, layer)
    return tokens


def _tail_t(pt: dict[str, ad.Value], tokens: ad.Value, cfg: AttentionConfig,
            latent_seed: Optional[int] = None) -> ad.Value:
    if latent_seed is not None and cfg.latent_noise_sigma > 0:
        rng = np.random.default_rng(latent_seed)
        noise = rng.normal(0.0, cfg.latent_noise_sigma, size=ad.data(tokens).shape)
        tokens = ad.add(tokens, noise)
    for layer in range(cfg.effective_noise_layer + 1, cfg.num_layers):
        tokens = _block_t(tokens, pt, cfg, layer)
    return _decode_t(tokens, pt, cfg)


def _forward_t(pt: dict[str, ad.Value], inputs_t: ad.Value, cfg: AttentionConfig,
               latent_seed: Optional[int] = None) -> ad.Value:
    return _tail_t(pt, _trunk_t(pt, inputs_t, cfg), cfg, latent_seed)


@blas_single_thread
def trunk(params: ModelParams, inputs: np.ndarray, cfg: AttentionConfig) -> np.ndarray:
    """Embed ``inputs`` and run layers 0..``noise_layer``: the part of
    :func:`forward` that does not depend on ``latent_seed``. Returns the
    (seq_len, embed_dim) token values that :func:`tail` continues from."""
    pt = _wrap(params, requires_grad=False)
    return _trunk_t(pt, np.asarray(inputs, dtype=np.float64), cfg)


@blas_single_thread
def tail(params: ModelParams, tokens: np.ndarray, cfg: AttentionConfig,
         latent_seed: Optional[int] = None,
         spec: Optional[GridSpec] = None) -> GridField:
    """Finish :func:`forward` from :func:`trunk` tokens: add the seeded
    latent noise, run the layers after ``noise_layer`` and decode. The
    tokens are only read, so one trunk serves any number of seeds."""
    if spec is None:
        spec = GridSpec(cfg.nlat, cfg.nlon)
    elif (spec.nlat, spec.nlon) != (cfg.nlat, cfg.nlon):
        raise CapeskitError(
            f"target spec {spec.nlat}x{spec.nlon} does not match config grid "
            f"{cfg.nlat}x{cfg.nlon}"
        )
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.shape != (cfg.seq_len, cfg.embed_dim):
        raise CapeskitError(
            f"trunk tokens shape {tokens.shape}, expected {(cfg.seq_len, cfg.embed_dim)}"
        )
    pt = _wrap(params, requires_grad=False)
    return GridField(spec, _tail_t(pt, tokens, cfg, latent_seed), units="mm")


def forward(params: ModelParams, inputs: np.ndarray, cfg: AttentionConfig,
            latent_seed: Optional[int] = None,
            spec: Optional[GridSpec] = None) -> GridField:
    """Run the backbone and decode a precipitation field (mm) at native
    resolution. With latent_seed set and sigma > 0, seeded Gaussian noise
    is injected into all token embeddings after ``noise_layer``; the
    output is a pure function of (params, inputs, latent_seed).

    This is ``tail(trunk(...))``. Layers up to and including
    ``noise_layer`` do not see the latent seed, so callers that run many
    seeds on one input (the AI ensemble) compute :func:`trunk` once and
    share it across those seeds."""
    return tail(params, trunk(params, inputs, cfg), cfg, latent_seed, spec)


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
    pt = _wrap(params, requires_grad=False)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cfg.seq_len, cfg.embed_dim))
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        y = _window_t(x, pt, cfg, 0)
        y = _xvar_t(y, pt, cfg, 0)
        y = _anchor_t(y, pt["anchors"], pt, cfg, 0)
        best = min(best, time.perf_counter() - t0)
        _ = y
    return best


def _loss_value(params: ModelParams, inputs: np.ndarray, cfg: AttentionConfig) -> float:
    pt = _wrap(params, requires_grad=False)
    out = _forward_t(pt, inputs, cfg, latent_seed=None)
    return float(np.sum(out * out))


@blas_single_thread
def grad_check(params: ModelParams, inputs: np.ndarray, cfg: AttentionConfig,
               probe_count: int = 20, step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between tape gradients of sum(output^2) and
    central finite differences over randomly probed parameter and input
    entries. Requires the deterministic path (latent_noise_sigma = 0)."""
    if cfg.latent_noise_sigma != 0:
        raise CapeskitError("grad_check requires latent_noise_sigma = 0")
    if probe_count < 1 or not step > 0:
        raise CapeskitError(f"grad_check needs probe_count >= 1 and step > 0, "
                            f"got {probe_count} and {step}")
    inputs = np.asarray(inputs, dtype=np.float64)
    pt = _wrap(params, requires_grad=True)
    inputs_t = Tensor(inputs, requires_grad=True)
    out = _forward_t(pt, inputs_t, cfg, latent_seed=None)
    loss = ad.sum_all(ad.mul(out, out))
    loss.backward()

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
            return _loss_value(p2, inp2, cfg)

        numeric = (loss_with(step) - loss_with(-step)) / (2.0 * step)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
        max_rel = max(max_rel, rel)
    return max_rel
