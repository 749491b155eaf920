import numpy as np
import pytest

import capeskit.attention as attn
from capeskit.attention import (
    AttentionConfig,
    anchor_attention,
    cross_variable_attention,
    cross_variable_mask,
    dense_attention_oracle,
    flop_count,
    forward,
    grad_check,
    init_params,
    tokenize,
    tri_level_flops,
    window_attention,
    window_mask,
)
from capeskit.autodiff import Tensor
from capeskit.errors import CapeskitError

TOY = AttentionConfig()  # 32x32 grid, p=8, V=3, d=32, h=4, w=2, m=8, k=4


def make_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.num_domains, cfg.nlat, cfg.nlon, cfg.channels))


def make_tokens(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.seq_len, cfg.embed_dim))


def latent_noise(latent_seed, shape, sigma=0.1):
    """The latent perturbation an AI member adds to its trunk tokens
    (zero when ``latent_seed`` is None)."""
    if latent_seed is None:
        return np.zeros(shape)
    return np.random.default_rng(latent_seed).normal(0.0, sigma, size=shape)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(CapeskitError):
            AttentionConfig(embed_dim=30, num_heads=4)
        with pytest.raises(CapeskitError):
            AttentionConfig(nlat=30)  # not divisible by patch size
        with pytest.raises(CapeskitError):
            AttentionConfig(nlat=24, nlon=24, window_size=2)  # 3x3 patches vs w=2
        with pytest.raises(CapeskitError):
            AttentionConfig(num_anchors=0)

    def test_seq_len(self):
        assert AttentionConfig(nlat=16, nlon=16).seq_len == 12  # 2*2*3
        assert TOY.seq_len == 48
        cs = AttentionConfig(layout="channel_stack")
        assert cs.seq_len == 16

    def test_operational_scale_config_accepted(self):
        big = AttentionConfig(embed_dim=512, num_heads=8, num_layers=8,
                              patch_size=8, nlat=64, nlon=64, channels=16)
        assert big.head_dim == 64


class TestTokenize:
    def test_length_16x16(self):
        cfg = AttentionConfig(nlat=16, nlon=16)
        x = tokenize(make_inputs(cfg), init_params(cfg, 0), cfg)
        assert x.shape == (12, cfg.embed_dim)

    def test_single_domain_layouts_agree_on_length(self):
        a = AttentionConfig(num_domains=1)
        b = AttentionConfig(num_domains=1, layout="channel_stack")
        assert a.seq_len == b.seq_len == 16

    def test_embedding_is_linear_in_patches(self):
        cfg = AttentionConfig(nlat=16, nlon=16)
        params = init_params(cfg, 3)
        i1, i2 = make_inputs(cfg, 1), make_inputs(cfg, 2)
        t1 = tokenize(i1, params, cfg)
        t2 = tokenize(i2, params, cfg)
        t12 = tokenize(i1 + i2, params, cfg)
        bias = tokenize(np.zeros_like(i1), params, cfg)
        np.testing.assert_allclose(t12, t1 + t2 - bias, atol=1e-10)

    def test_channel_stack_shape(self):
        cfg = AttentionConfig(layout="channel_stack")
        x = tokenize(make_inputs(cfg), init_params(cfg, 0), cfg)
        assert x.shape == (16, cfg.embed_dim)

    def test_shape_mismatch(self):
        with pytest.raises(CapeskitError):
            tokenize(np.zeros((2, 32, 32, 4)), init_params(TOY, 0), TOY)


class TestWindowAttention:
    def test_matches_masked_dense_oracle(self):
        params = init_params(TOY, 5)
        x = make_tokens(TOY, 6)
        got = window_attention(x, params, TOY, layer=0)
        want = dense_attention_oracle(x, window_mask(TOY), params, TOY, layer=0, level="win")
        assert np.abs(got - want).max() <= 1e-10

    def test_larger_window_matches_oracle(self):
        cfg = AttentionConfig(nlat=32, nlon=64, num_domains=1, window_size=4)
        params = init_params(cfg, 63)
        x = make_tokens(cfg, 64)
        got = window_attention(x, params, cfg, layer=0)
        want = dense_attention_oracle(x, window_mask(cfg), params, cfg, level="win")
        assert np.abs(got - want).max() <= 1e-10

    def test_whole_grid_window_equals_unmasked_dense(self):
        # single domain, window covers the full patch grid
        cfg = AttentionConfig(nlat=16, nlon=16, num_domains=1, window_size=2)
        params = init_params(cfg, 7)
        x = make_tokens(cfg, 8)
        got = window_attention(x, params, cfg, layer=0)
        full = np.ones((cfg.seq_len, cfg.seq_len), dtype=bool)
        want = dense_attention_oracle(x, full, params, cfg, layer=0, level="win")
        assert np.abs(got - want).max() <= 1e-10

    def test_singleton_window_is_self_projection(self):
        cfg = AttentionConfig(nlat=16, nlon=16, window_size=1)
        params = init_params(cfg, 9)
        x = make_tokens(cfg, 10)
        got = window_attention(x, params, cfg, layer=0)
        p = params.tensors
        xn = attn._np_layer_norm(x, p["layer0.ln_win.g"], p["layer0.ln_win.b"])
        v = xn @ p["layer0.win.Wv"] + p["layer0.win.bv"]
        manual = x + (v @ p["layer0.win.Wo"] + p["layer0.win.bo"])
        np.testing.assert_allclose(got, manual, atol=1e-12)


def _token(cfg, v, r, c):
    """Row of token (v, r, c), the documented order."""
    return (v * cfg.patch_rows + r) * cfg.patch_cols + c


def _listed_groups(cfg, kind):
    """The attention groups of ``kind``, listed by loops over tokens:
    per (domain, window) in row-major window order, or per patch location."""
    veff, pr, pc, w = cfg.effective_domains, cfg.patch_rows, cfg.patch_cols, cfg.window_size
    if kind == "window":
        return [[_token(cfg, v, wr * w + dr, wc * w + dc) for dr in range(w) for dc in range(w)]
                for v in range(veff) for wr in range(pr // w) for wc in range(pc // w)]
    return [[_token(cfg, v, r, c) for v in range(veff)] for r in range(pr) for c in range(pc)]


GROUP_CFGS = [
    AttentionConfig(nlat=2 * w * 2, nlon=3 * w * 2, patch_size=2, window_size=w,
                    num_domains=v, layout=layout)
    for layout in ("sequence_concat", "channel_stack") for w in (1, 2, 4) for v in (1, 2, 3)
]
GROUP_IDS = [f"{c.layout}-w{c.window_size}-v{c.num_domains}" for c in GROUP_CFGS]


class TestGroupsFromTokenCoordinates:
    """The oracle masks and the grouped rows against the token order."""

    @pytest.mark.parametrize("cfg", GROUP_CFGS, ids=GROUP_IDS)
    def test_masks_equal_pairwise_loops(self, cfg):
        veff, pr, pc, w = cfg.effective_domains, cfg.patch_rows, cfg.patch_cols, cfg.window_size
        coords = [(v, r, c) for v in range(veff) for r in range(pr) for c in range(pc)]
        assert [_token(cfg, *t) for t in coords] == list(range(cfg.seq_len))
        win = np.zeros((cfg.seq_len, cfg.seq_len), dtype=bool)
        xvar = np.zeros_like(win)
        for i, (vi, ri, ci) in enumerate(coords):
            for j, (vj, rj, cj) in enumerate(coords):
                win[i, j] = vi == vj and ri // w == rj // w and ci // w == cj // w
                xvar[i, j] = ri == rj and ci == cj
        assert np.array_equal(window_mask(cfg), win)
        assert np.array_equal(cross_variable_mask(cfg), xvar)

    @pytest.mark.parametrize("kind", ["window", "crossvar"])
    @pytest.mark.parametrize("cfg", GROUP_CFGS, ids=GROUP_IDS)
    def test_grouped_rows_are_the_listed_groups(self, cfg, kind):
        d, n = 3, cfg.seq_len
        rows = np.repeat(np.arange(n, dtype=np.float64)[:, None], d, axis=1)
        a, b, c, e = attn._group_dims(cfg, kind)
        grouped = attn._swap(rows, (a, b, c, e * d), (a * c, b * e, d))
        assert grouped[:, :, 0].astype(int).tolist() == _listed_groups(cfg, kind)
        assert (grouped == grouped[:, :, :1]).all()
        back = attn._swap(grouped, (a, c, b, e * d), (n, d))
        assert np.array_equal(back, rows)


class TestCrossVariableAttention:
    def test_matches_masked_dense_oracle(self):
        params = init_params(TOY, 11)
        x = make_tokens(TOY, 12)
        got = cross_variable_attention(x, params, TOY, layer=0)
        want = dense_attention_oracle(x, cross_variable_mask(TOY), params, TOY,
                                      layer=0, level="xvar")
        assert np.abs(got - want).max() <= 1e-10

    def test_single_domain_is_self_projection(self):
        cfg = AttentionConfig(num_domains=1)
        params = init_params(cfg, 13)
        x = make_tokens(cfg, 14)
        got = cross_variable_attention(x, params, cfg, layer=0)
        p = params.tensors
        xn = attn._np_layer_norm(x, p["layer0.ln_xvar.g"], p["layer0.ln_xvar.b"])
        v = xn @ p["layer0.xvar.Wv"] + p["layer0.xvar.bv"]
        manual = x + (v @ p["layer0.xvar.Wo"] + p["layer0.xvar.bo"])
        np.testing.assert_allclose(got, manual, atol=1e-12)

    def test_inconsistent_tags_rejected(self):
        x = make_tokens(TOY, 62)
        wrong_cfg = AttentionConfig(nlat=16, nlon=16)
        with pytest.raises(CapeskitError, match="inconsistent"):
            window_attention(x, init_params(wrong_cfg, 0), wrong_cfg, layer=0)

    def test_location_permutation_equivariance(self):
        params = init_params(TOY, 15)
        x = make_tokens(TOY, 16)
        out = cross_variable_attention(x, params, TOY, layer=0)
        # swap two patch locations (same swap in every domain)
        pr, pc = TOY.patch_rows, TOY.patch_cols
        per_domain = pr * pc
        loc_a, loc_b = 1, 10
        perm = np.arange(TOY.seq_len)
        for v in range(TOY.num_domains):
            pa, pb = v * per_domain + loc_a, v * per_domain + loc_b
            perm[[pa, pb]] = perm[[pb, pa]]
        out2 = cross_variable_attention(x[perm], params, TOY, layer=0)
        np.testing.assert_allclose(out2, out[perm], atol=1e-12)


class TestAnchorAttention:
    def test_two_step_dense_oracle_composition(self):
        cfg = AttentionConfig(num_anchors=4)
        params = init_params(cfg, 17)
        x = make_tokens(cfg, 18)
        got = anchor_attention(x, params.tensors["anchors"], params, cfg, layer=0)

        # independent composition: two plain-numpy masked softmax products
        p = params.tensors
        h, dh = cfg.num_heads, cfg.head_dim
        xn = attn._np_layer_norm(x, p["layer0.ln_anc.g"], p["layer0.ln_anc.b"])

        def mha(q_src, kv_src, lvl):
            q = q_src @ p[f"layer0.{lvl}.Wq"] + p[f"layer0.{lvl}.bq"]
            k = kv_src @ p[f"layer0.{lvl}.Wk"] + p[f"layer0.{lvl}.bk"]
            v = kv_src @ p[f"layer0.{lvl}.Wv"] + p[f"layer0.{lvl}.bv"]
            outs = []
            for i in range(h):
                sl = slice(i * dh, (i + 1) * dh)
                s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
                s -= s.max(axis=1, keepdims=True)
                e = np.exp(s)
                outs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
            return np.concatenate(outs, axis=1) @ p[f"layer0.{lvl}.Wo"] + p[f"layer0.{lvl}.bo"]

        state = mha(p["anchors"], xn, "agg")
        want = x + mha(xn, state, "brd")
        assert np.abs(got - want).max() <= 1e-10

    def test_identical_tokens_broadcast_identically(self):
        cfg = AttentionConfig(num_anchors=5)
        params = init_params(cfg, 21)
        row = np.random.default_rng(22).standard_normal(cfg.embed_dim)
        x = np.tile(row, (cfg.seq_len, 1))
        out = anchor_attention(x, params.tensors["anchors"], params, cfg, layer=0)
        np.testing.assert_allclose(out, np.tile(out[0], (cfg.seq_len, 1)), atol=1e-12)


class TestDenseOracle:
    def test_single_token_full_mask(self):
        cfg = AttentionConfig(nlat=8, nlon=8, num_domains=1, window_size=1)
        params = init_params(cfg, 23)
        x = make_tokens(cfg, 24)
        assert x.shape[0] == 1
        out = dense_attention_oracle(x, np.ones((1, 1), bool), params, cfg)
        p = params.tensors
        xn = attn._np_layer_norm(x, p["layer0.ln_win.g"], p["layer0.ln_win.b"])
        v = xn @ p["layer0.win.Wv"] + p["layer0.win.bv"]
        manual = x + (v @ p["layer0.win.Wo"] + p["layer0.win.bo"])
        np.testing.assert_allclose(out, manual, atol=1e-12)

    def test_identity_mask_is_self_attention(self):
        params = init_params(TOY, 25)
        x = make_tokens(TOY, 26)
        out = dense_attention_oracle(x, np.eye(TOY.seq_len, dtype=bool), params, TOY)
        p = params.tensors
        xn = attn._np_layer_norm(x, p["layer0.ln_win.g"], p["layer0.ln_win.b"])
        v = xn @ p["layer0.win.Wv"] + p["layer0.win.bv"]
        manual = x + (v @ p["layer0.win.Wo"] + p["layer0.win.bo"])
        np.testing.assert_allclose(out, manual, atol=1e-12)

    def test_rejects_unattendable_token(self):
        params = init_params(TOY, 27)
        x = make_tokens(TOY, 28)
        mask = np.ones((48, 48), bool)
        mask[3, :] = False
        with pytest.raises(CapeskitError):
            dense_attention_oracle(x, mask, params, TOY)


class TestForward:
    def test_deterministic_without_noise(self):
        params = init_params(TOY, 29)
        inputs = make_inputs(TOY, 30)
        a = forward(params, inputs, TOY)
        b = forward(params, inputs, TOY)
        assert np.array_equal(a.values, b.values)
        assert a.units == "mm"
        assert a.values.shape == (32, 32)

    def test_channel_stack_forward_runs(self):
        cfg = AttentionConfig(layout="channel_stack")
        params = init_params(cfg, 37)
        out = forward(params, make_inputs(cfg, 38), cfg)
        assert out.values.shape == (32, 32)

    def test_layout_ablation_contrast(self):
        # the two layouts are genuinely different models: different sequence
        # lengths, different cross-variable group sizes, different flops
        seq = AttentionConfig(layout="sequence_concat")
        stk = AttentionConfig(layout="channel_stack")
        assert seq.seq_len == 48 and stk.seq_len == 16
        assert flop_count(seq, 48)["crossvar_flops"] == 3 * flop_count(stk, 48)["crossvar_flops"]
        inputs = make_inputs(seq, 39)
        out_seq = forward(init_params(seq, 40), inputs, seq)
        out_stk = forward(init_params(stk, 40), inputs, stk)
        assert np.abs(out_seq.values - out_stk.values).max() > 0

    @pytest.mark.parametrize("num_layers,latent_seed", [(1, None), (2, 0), (2, None), (3, 1)])
    def test_trunk_then_tail_matches_single_loop_reference(self, num_layers, latent_seed):
        # reference: one loop over all layers, then decode; with a latent
        # seed the tail decodes trunk tokens perturbed as an AI member's are
        cfg = AttentionConfig(num_layers=num_layers)
        params = init_params(cfg, 41)
        inputs = make_inputs(cfg, 42)
        pt = params.tensors
        tokens = attn._embed_tokens(Tensor(inputs), pt, cfg)
        for layer in range(cfg.num_layers):
            tokens = attn._window_t(tokens, pt, cfg, layer)
            tokens = attn._xvar_t(tokens, pt, cfg, layer)
            tokens = attn._anchor_t(tokens, pt["anchors"], pt, cfg, layer)
            tokens = attn._mlp_t(tokens, pt, cfg, layer)
        plain = attn._decode_t(tokens, pt, cfg).data
        noise = latent_noise(latent_seed, tokens.data.shape)
        expected = attn._decode_t(Tensor(tokens.data + noise), pt, cfg).data
        shared = attn.trunk(params, inputs, cfg)
        kept = shared.copy()
        assert np.array_equal(forward(params, inputs, cfg).values, plain)
        assert np.array_equal(attn.tail(params, shared + noise, cfg).values, expected)
        # the trunk is only read
        assert np.array_equal(shared, kept)

    def test_init_params_deterministic(self):
        a, b = init_params(TOY, 40), init_params(TOY, 40)
        assert all(np.array_equal(a[n], b[n]) for n in a.tensors)



class TestArrayPath:
    """Inference runs on plain arrays; a Tensor appears only when an input is one."""

    def test_inference_builds_no_tensor(self, monkeypatch):
        params = init_params(TOY, 70)
        inputs = make_inputs(TOY, 71)
        x = np.random.default_rng(72).standard_normal((TOY.seq_len, TOY.embed_dim))
        built = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        forward(params, inputs, TOY)
        attn.tail(params, attn.trunk(params, inputs, TOY), TOY)
        tokenize(inputs, params, TOY)
        window_attention(x, params, TOY)
        cross_variable_attention(x, params, TOY)
        anchor_attention(x, params["anchors"], params, TOY)
        assert len(built) == 0

    @pytest.mark.parametrize("layout", ["sequence_concat", "channel_stack"])
    @pytest.mark.parametrize("latent_seed", [0, None])
    def test_array_path_equals_tensor_path_bitwise(self, layout, latent_seed):
        cfg = AttentionConfig(layout=layout)
        params = init_params(cfg, 73)
        inputs = make_inputs(cfg, 74)
        pt = {k: Tensor(v) for k, v in params.tensors.items()}
        want = attn._forward_t(pt, Tensor(inputs), cfg)
        assert isinstance(want, Tensor)
        got = forward(params, inputs, cfg).values
        assert np.array_equal(got, want.data)
        # the tail of perturbed trunk tokens, as an AI member decodes them
        trunk_t = attn._trunk_t(pt, Tensor(inputs), cfg)
        noise = latent_noise(latent_seed, trunk_t.data.shape)
        want = attn._decode_t(Tensor(trunk_t.data + noise), pt, cfg)
        got = attn.tail(params, attn.trunk(params, inputs, cfg) + noise, cfg).values
        assert np.array_equal(got, want.data)


class TestFlops:
    def test_linear_scaling_exact(self):
        base = tri_level_flops(TOY, 48)
        assert tri_level_flops(TOY, 96) == 2 * base
        assert tri_level_flops(TOY, 192) == 4 * base

    def test_dense_quadratic_exact(self):
        f1, f2 = flop_count(TOY, 48), flop_count(TOY, 96)
        assert f2["dense_flops"] == 4 * f1["dense_flops"]

    def test_closed_form_values(self):
        # d=32, h=4, w=2, V=3, m=8: per-token costs 2w^2 d, 2Vd, 4md
        f = flop_count(TOY, 48)
        assert f["window_flops"] == 2 * 48 * 4 * 32
        assert f["crossvar_flops"] == 2 * 48 * 3 * 32
        assert f["anchor_flops"] == 4 * 48 * 8 * 32
        assert f["dense_flops"] == 2 * 48 * 48 * 32

    def test_wall_time_sub_quadratic(self):
        c256 = AttentionConfig(num_domains=1, nlat=128, nlon=128)
        c1024 = AttentionConfig(num_domains=1, nlat=256, nlon=256)
        t1 = attn.measure_block_time(c256, repeats=3)
        t2 = attn.measure_block_time(c1024, repeats=3)
        assert t2 / t1 < 8.0


class TestGradCheck:
    def test_toy_model_under_tolerance(self):
        cfg = AttentionConfig(nlat=16, nlon=16)
        params = init_params(cfg, 41)
        err = grad_check(params, make_inputs(cfg, 42), cfg, probe_count=12, seed=43)
        assert err < 1e-6

    def test_zero_decoder_zero_input_bias_grad_exact(self):
        cfg = AttentionConfig(nlat=16, nlon=16)
        params = init_params(cfg, 44)
        params.tensors["decoder.W"][:] = 0.0
        params.tensors["decoder.b"][:] = 0.0
        inputs = np.zeros((cfg.num_domains, cfg.nlat, cfg.nlon, cfg.channels))
        err = grad_check(params, inputs, cfg, probe_count=8, seed=45)
        assert err < 1e-10

    def test_every_parameter_family(self):
        # deterministic probes: two entries from each parameter family,
        # so anchor/aggregate/broadcast/embed/decoder paths are all hit
        cfg = AttentionConfig(nlat=16, nlon=16, num_layers=1, embed_dim=16, num_heads=2)
        params = init_params(cfg, 60)
        inputs = make_inputs(cfg, 61)

        import capeskit.autodiff as ad
        from capeskit.attention import _forward_t, _loss_value
        from capeskit.autodiff import Tensor

        pt = {k: Tensor(v, requires_grad=True) for k, v in params.tensors.items()}
        inputs_t = Tensor(inputs, requires_grad=True)
        out = _forward_t(pt, inputs_t, cfg)
        ad.sum_all(ad.mul(out, out)).backward()

        step = 1e-5
        families = ["anchors", "embed.W", "embed.b", "decoder.W", "decoder.b",
                    "layer0.agg.Wq", "layer0.agg.Wo", "layer0.brd.Wk", "layer0.brd.bv",
                    "layer0.win.Wq", "layer0.xvar.Wv", "layer0.ln_anc.g",
                    "layer0.ln_mlp.b", "layer0.mlp.W1", "layer0.mlp.b2"]
        for name in families:
            arr = params[name]
            for flat in (0, arr.size // 2):
                analytic = float(pt[name].grad.reshape(-1)[flat])

                def loss_with(delta):
                    p2 = params.copy()
                    p2.tensors[name].reshape(-1)[flat] += delta
                    return _loss_value(p2, inputs, cfg)

                numeric = (loss_with(step) - loss_with(-step)) / (2 * step)
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
                assert rel < 1e-6, f"{name}[{flat}]: analytic {analytic}, numeric {numeric}"
        # and the inputs themselves
        analytic = float(inputs_t.grad.reshape(-1)[7])
        inp = inputs.copy()

        def loss_with_input(delta):
            inp2 = inp.copy()
            inp2.reshape(-1)[7] += delta
            return _loss_value(params, inp2, cfg)

        numeric = (loss_with_input(step) - loss_with_input(-step)) / (2 * step)
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0) < 1e-6


class TestAcceptanceSweep:
    @pytest.mark.parametrize("seed", range(20))
    def test_window_and_crossvar_match_oracle_across_configs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        h = int(rng.choice([1, 2, 4]))
        d = int(rng.choice([8, 16, 32]))
        w = int(rng.choice([1, 2]))
        v = int(rng.choice([1, 2, 3]))
        pr = int(rng.choice([2, 4])) * w
        pc = int(rng.choice([1, 2])) * w
        p = 8
        cfg = AttentionConfig(embed_dim=d, num_heads=h, window_size=w, num_domains=v,
                              nlat=pr * p, nlon=pc * p)
        if cfg.seq_len > 96:
            cfg = AttentionConfig(embed_dim=d, num_heads=h, window_size=w, num_domains=1,
                                  nlat=pr * p, nlon=pc * p)
        params = init_params(cfg, seed)
        x = make_tokens(cfg, 2000 + seed)
        wgot = window_attention(x, params, cfg, layer=0)
        wwant = dense_attention_oracle(x, window_mask(cfg), params, cfg, level="win")
        assert np.abs(wgot - wwant).max() <= 1e-10
        cgot = cross_variable_attention(x, params, cfg, layer=0)
        cwant = dense_attention_oracle(x, cross_variable_mask(cfg), params, cfg, level="xvar")
        assert np.abs(cgot - cwant).max() <= 1e-10
