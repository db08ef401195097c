"""Embedder and model assembly tests."""
import json
import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from sshnet import autograd as ag
from sshnet import embedder, featureio, model, objective, vsem, vspm
from sshnet.autograd import Tensor
from sshnet.config import SMALL_DIMS, SMALL_MODEL, preset
from sshnet.errors import ConfigError, FormatError


# ---------------------------------------------------------------------------
# learned rank pooling


def test_resolve_weights_single_element_ignores_table():
    table = Tensor(np.random.default_rng(0).normal(size=16))
    w = embedder.resolve_pool_weights(table, 1)
    np.testing.assert_array_equal(w.data, [1.0])


def test_resolve_weights_reject_empty_set():
    with pytest.raises(ConfigError):
        embedder.resolve_pool_weights(Tensor(np.ones(8)), 0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_resolve_weights_sum_to_one(seed, n):
    """Resampling works above and below the table length."""
    rng = np.random.default_rng(seed)
    table = Tensor(rng.uniform(0.2, 2.0, size=64))
    w = embedder.resolve_pool_weights(table, n)
    assert w.data.shape == (n,)
    assert w.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_gpo_uniform_table_is_mean_pooling_above_table_length():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(2, 73, 5))
    out = embedder.gpo_pool(Tensor(rows), Tensor(np.ones(64)))
    np.testing.assert_allclose(out.data, rows.mean(axis=1), rtol=1e-12)


def test_gpo_uniform_table_is_mean_pooling():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2, 9, 5))
    out = embedder.gpo_pool(Tensor(rows), Tensor(np.ones(32)))
    np.testing.assert_allclose(out.data, rows.mean(axis=1), rtol=1e-12)


def test_gpo_onehot_head_is_max_pooling():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2, 7, 5))
    table = np.zeros(32)
    table[0] = 1.0
    out = embedder.gpo_pool(Tensor(rows), Tensor(table))
    np.testing.assert_allclose(out.data, rows.max(axis=1), rtol=1e-12)


def test_interp_matrix_is_cached_read_only_and_shared():
    mat = embedder._interp_matrix(13, 64)
    assert embedder._interp_matrix(13, 64) is mat
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 2.0
    np.testing.assert_array_equal(mat.sum(axis=1), np.ones(13))
    assert mat[0, 0] == 1.0 and mat[-1, -1] == 1.0


def interp_matrix_oracle(n, table_len):
    """Rank by rank: rank r sits at table position r * (table_len - 1) / (n - 1)."""
    mat = np.zeros((n, table_len))
    for r in range(n):
        x = r * (table_len - 1) / (n - 1)
        lo = int(math.floor(x))
        frac = x - lo
        if frac == 0.0 or lo >= table_len - 1:
            mat[r, min(lo, table_len - 1)] = 1.0
        else:
            mat[r, lo] = 1.0 - frac
            mat[r, lo + 1] = frac
    return mat


@pytest.mark.parametrize("table_len", [1, 2, 3, 8, 64, 65])
def test_interp_matrix_bitwise_equals_rank_loop_oracle(table_len):
    for n in (*range(2, 140), 199, 255, 256, 257, 399):
        got = embedder._interp_matrix.__wrapped__(n, table_len)   # past the cache
        assert got.shape == (n, table_len)
        assert got.tobytes() == interp_matrix_oracle(n, table_len).tobytes(), n


def test_gpo_degenerate_table_rejected():
    with pytest.raises(ConfigError, match="degenerate"):
        embedder.gpo_pool(Tensor(np.ones((1, 4, 3))), Tensor(np.zeros(16)))


# ---------------------------------------------------------------------------
# fixtures: one tiny planted dataset


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("emb")
    featureio.synth_dataset(out, n_images=6, captions_per_image=2, seed=41,
                            dims=SMALL_DIMS)
    return featureio.load_dataset(out / "manifest.json")


@pytest.fixture(scope="module")
def params():
    return model.init_params(SMALL_MODEL, SMALL_DIMS, seed=7)


# ---------------------------------------------------------------------------
# fusion


def test_image_embedding_unit_norm(data, params):
    bundles, texts, _ = data
    pi = model.prepare_image(bundles[:1], SMALL_DIMS, SMALL_MODEL)
    emb = model.visual_forward(pi, params, SMALL_MODEL)
    assert np.linalg.norm(emb.data) == pytest.approx(1.0, abs=1e-9)
    assert emb.shape == (1, SMALL_MODEL.embed_dim)


def _pooled_set_sizes(monkeypatch):
    """Record the set size of every rank pooling from here on."""
    sizes = []
    real = embedder.resolve_pool_weights

    def spy(table, n):
        sizes.append(n)
        return real(table, n)

    monkeypatch.setattr(embedder, "resolve_pool_weights", spy)
    return sizes


def test_fused_set_has_2k_plus_1_rows(data, params, monkeypatch):
    bundles, _, _ = data
    sizes = _pooled_set_sizes(monkeypatch)
    pi = model.prepare_image(bundles[:1], SMALL_DIMS, SMALL_MODEL)
    model.visual_forward(pi, params, SMALL_MODEL)
    assert sizes == [2 * SMALL_DIMS.K + 1]


def test_region_permutation_leaves_embedding_unchanged(data, params):
    bundles, _, _ = data
    b = bundles[1]
    pi = model.prepare_image([b], SMALL_DIMS, SMALL_MODEL)
    emb = model.visual_forward(pi, params, SMALL_MODEL)
    perm = np.random.default_rng(2).permutation(SMALL_DIMS.K)
    b2 = featureio.FeatureBundle(b.region_feats[perm], b.grid_feats,
                                 b.seg_feat, b.seg_map)
    emb2 = model.visual_forward(model.prepare_image([b2], SMALL_DIMS, SMALL_MODEL),
                                params, SMALL_MODEL)
    np.testing.assert_allclose(emb2.data, emb.data, atol=1e-12)


def test_prepared_path_equals_raw_composition(data, params):
    """The cached-patch fast path must agree bitwise with the public ops."""
    bundles, _, _ = data
    b = bundles[2]
    pi = model.prepare_image([b], SMALL_DIMS, SMALL_MODEL)
    fast = model.visual_forward(pi, params, SMALL_MODEL)

    regions = Tensor(b.region_feats[None])
    pooled = Tensor(b.seg_feat.mean(axis=(0, 1), dtype=np.float64)[None])
    vs = vsem.vsem_forward(regions, pooled, params.vsem, SMALL_MODEL.salience_mode)
    patches, grid = vspm.build_position_tensor(b.seg_map[None], SMALL_MODEL, SMALL_DIMS.C_s)
    vp = vspm.vspm_forward(regions, Tensor(patches), grid, params.vspm, SMALL_MODEL)
    slow = embedder.fuse_visual(regions, vs.enhanced, vp.spatial, vs.seg_embed,
                                params.embed, params.vspm.combine_proj)
    assert np.array_equal(fast.data, slow.data)


def _widened(bundles, texts):
    """Copies of loaded bundles and sentences with every float array
    converted to float64 up front."""
    def wide(a):
        return a.astype(np.float64) if a.dtype.kind == "f" else a

    return ([featureio.FeatureBundle(**{k: wide(getattr(b, k)) for k in featureio.IMAGE_SHAPES})
             for b in bundles],
            featureio.TextFeatureSet([wide(w) for w in texts.word_feats], texts.image_index))


STORED_DTYPES = {"region_feats": np.float32, "grid_feats": np.float32,
                 "seg_feat": np.float32, "seg_map": np.uint16}


@pytest.mark.parametrize("name, n_images", [("small", 6), ("full", 4)])
def test_loaded_arrays_stay_as_stored_and_embed_as_float64(tmp_path, name, n_images):
    """load_dataset hands back synth's float32 / uint16 arrays untouched,
    and embedding them gives the bytes of embedding float64 copies."""
    dims, cfg = preset(name)
    featureio.synth_dataset(tmp_path, n_images=n_images, captions_per_image=2, seed=3,
                            dims=dims)
    bundles, texts, _ = featureio.load_dataset(tmp_path / "manifest.json")
    for b in bundles:
        assert {k: getattr(b, k).dtype for k in STORED_DTYPES} == STORED_DTYPES
    assert {w.dtype for w in texts.word_feats} == {np.dtype(np.float32)}
    wide = _widened(bundles, texts)
    params = model.init_params(cfg, dims, seed=0)
    for mode in ("region", "grid"):
        got = model.embed_dataset(bundles, texts, params, cfg, dims, mode)
        want = model.embed_dataset(*wide, params, cfg, dims, mode)
        assert got.image_embs.tobytes() == want.image_embs.tobytes(), mode
        assert got.text_embs.tobytes() == want.text_embs.tobytes(), mode


def test_stored_arrays_train_like_float64_copies(data):
    bundles, texts, _ = data
    cfg = objective.TrainConfig(batch_size=4, epochs=3, seed=13)
    got = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL, cfg)
    want = objective.train(*_widened(bundles, texts), SMALL_DIMS, SMALL_MODEL, cfg)
    assert [v.hex() for v in got.loss_curve] == [v.hex() for v in want.loss_curve]


# Largest gap allowed between a reassociated spatial FC row (or gradient)
# and the straight-line one, relative to the largest straight-line entry;
# the rows' gap measures 2e-16 at D = 64 and 1.2e-15 at D = 1024.
REASSOCIATION_RTOL = 1e-13


@pytest.mark.parametrize("use_vsem", [True, False], ids=["both", "vspm-only"])
def test_reassociated_spatial_rows_match_straight_line(monkeypatch, use_vsem):
    """fuse_visual's semantic-spatial rows, with the spatial block composed
    with combine_proj first, against the straight-line FC over
    [semantic, linear(u, combine_proj)]: values and gradients."""
    cfg = replace(SMALL_MODEL, use_vsem=use_vsem)
    p = model.init_params(cfg, SMALL_DIMS, seed=21)
    rng = np.random.default_rng(22)
    b, k, d = 3, SMALL_DIMS.K, cfg.embed_dim
    regions = Tensor(rng.normal(size=(b, k, SMALL_DIMS.D_l)))
    seg = Tensor(rng.normal(size=(b, d)))
    sem = Tensor(rng.normal(size=(b, k, d)), requires_grad=True) if use_vsem else None
    u = Tensor(rng.normal(size=(b, k, cfg.pos_channels)), requires_grad=True)
    w = Tensor(rng.normal(size=(b, k, d)))
    pooled = []
    real = embedder.gpo_pool
    monkeypatch.setattr(embedder, "gpo_pool",
                        lambda rows, table: pooled.append(rows) or real(rows, table))
    embedder.fuse_visual(regions, sem, u, seg, p.embed, p.vspm.combine_proj)
    flat = ag.reshape(pooled[0], (b * (2 * k + 1), d))
    fused = ag.take_rows(flat, [i * (2 * k + 1) + j for i in range(b)
                                for j in range(k, 2 * k)])

    lifted = ag.linear(u, p.vspm.combine_proj)
    blocks = [t for t in (p.embed.ss_fc_w_sem, p.embed.ss_fc_w_spa) if t is not None]
    ss_in = ag.concat([sem, lifted], axis=2) if use_vsem else lifted
    ss_w = ag.concat(blocks, axis=1) if use_vsem else blocks[0]
    straight = ag.linear(ss_in, ss_w) + p.embed.ss_fc_b
    got = fused.data.reshape(b, k, d)
    scale = np.abs(straight.data).max()
    assert np.abs(got - straight.data).max() <= REASSOCIATION_RTOL * scale

    leaves = {"u": u, "sem": sem, "combine_proj": p.vspm.combine_proj,
              "ss_fc_w_sem": p.embed.ss_fc_w_sem, "ss_fc_w_spa": p.embed.ss_fc_w_spa,
              "ss_fc_b": p.embed.ss_fc_b}
    leaves = {n: t for n, t in leaves.items() if t is not None}
    grads = []
    for out in (ag.reshape(fused, (b, k, d)), straight):
        for t in leaves.values():
            t.grad = None
        (out * w).sum().backward()
        grads.append({n: t.grad for n, t in leaves.items() if t.grad is not None})
    assert set(grads[0]) == set(grads[1]) == set(leaves)
    for n in grads[1]:
        scale = np.abs(grads[1][n]).max()
        assert np.abs(grads[0][n] - grads[1][n]).max() <= REASSOCIATION_RTOL * scale, n


def test_branch_toggles_change_row_count(data, monkeypatch):
    bundles, _, _ = data
    sizes = _pooled_set_sizes(monkeypatch)
    for cfg in (replace(SMALL_MODEL, use_vsem=False),
                replace(SMALL_MODEL, use_vspm=False),
                replace(SMALL_MODEL, use_vsem=False, use_vspm=False)):
        p = model.init_params(cfg, SMALL_DIMS, seed=3)
        sizes.clear()
        pi = model.prepare_image(bundles[:1], SMALL_DIMS, cfg)
        emb = model.visual_forward(pi, p, cfg)
        assert np.linalg.norm(emb.data) == pytest.approx(1.0, abs=1e-9)
        expect = 2 * SMALL_DIMS.K + 1 if embedder.n_ss_branches(cfg) else SMALL_DIMS.K + 1
        assert sizes == [expect]


# ---------------------------------------------------------------------------
# text


def test_text_embedding_unit_norm_and_single_word(data, params):
    _, texts, _ = data
    emb = model.text_forward(texts.word_feats[:1], params)
    assert emb.shape == (1, SMALL_MODEL.embed_dim)
    assert np.linalg.norm(emb.data) == pytest.approx(1.0, abs=1e-9)

    got = embedder.embed_text([texts.word_feats[0][:1]], params.embed)
    fc = params.embed.text_fc_w.data @ texts.word_feats[0][0] + params.embed.text_fc_b.data
    np.testing.assert_allclose(got.data[0], fc / np.linalg.norm(fc), atol=1e-12)


def test_modality_independence(data, params):
    """Image embeddings cannot depend on which sentences are present."""
    bundles, texts, _ = data
    t1 = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS)
    fewer = featureio.TextFeatureSet(texts.word_feats[:3], texts.image_index[:3])
    t2 = model.embed_dataset(bundles, fewer, params, SMALL_MODEL, SMALL_DIMS)
    assert np.array_equal(t1.image_embs, t2.image_embs)


# ---------------------------------------------------------------------------
# embed_dataset


def test_embed_dataset_shapes_and_modes(data, params):
    bundles, texts, _ = data
    table = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS)
    assert table.image_embs.shape == (6, SMALL_MODEL.embed_dim)
    assert table.text_embs.shape == (12, SMALL_MODEL.embed_dim)
    np.testing.assert_allclose(np.linalg.norm(table.image_embs, axis=1), 1.0,
                               atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(table.text_embs, axis=1), 1.0,
                               atol=1e-9)
    grid = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS,
                               mode="grid")
    assert grid.image_embs.shape == table.image_embs.shape
    assert not np.array_equal(grid.image_embs, table.image_embs)


def test_embed_dataset_rejects_bad_mode(data, params):
    bundles, texts, _ = data
    with pytest.raises(ConfigError):
        model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS,
                            mode="fusion")


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, data, params):
    bundles, texts, _ = data
    model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS,
                          meta={"epoch": 3})
    loaded, cfg, dims, meta = model.load_checkpoint(tmp_path / "ck")
    assert meta == {"epoch": 3}
    assert cfg == SMALL_MODEL and dims == SMALL_DIMS
    for name, t in params.named().items():
        assert np.array_equal(t.data, loaded.named()[name].data), name
    t1 = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS)
    t2 = model.embed_dataset(bundles, texts, loaded, cfg, dims)
    assert np.array_equal(t1.image_embs, t2.image_embs)


def test_interrupted_checkpoint_save_leaves_no_checkpoint_json(tmp_path, params,
                                                              monkeypatch):
    ck = model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    calls = []
    real_write = model.write_tensor

    def failing_write(path, array):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_write(path, array)

    monkeypatch.setattr(model, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        model.save_checkpoint(ck, params, SMALL_MODEL, SMALL_DIMS)
    assert not (ck / "checkpoint.json").exists()
    assert not list(ck.glob("*.tmp"))
    monkeypatch.undo()
    model.save_checkpoint(ck, params, SMALL_MODEL, SMALL_DIMS)
    loaded, _, _, _ = model.load_checkpoint(ck)
    for name, t in params.named().items():
        assert np.array_equal(t.data, loaded.named()[name].data), name


def test_checkpoint_rejects_mismatched_tensor_list(tmp_path, params):
    model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    (tmp_path / "ck" / "vsem.seg_fc_w.3sht").unlink()
    doc = (tmp_path / "ck" / "checkpoint.json").read_text()
    (tmp_path / "ck" / "checkpoint.json").write_text(
        doc.replace('"vsem.seg_fc_w",\n', ""))
    with pytest.raises(FormatError):
        model.load_checkpoint(tmp_path / "ck")


def _edit_checkpoint(ck, section, **keys):
    doc = json.loads((ck / "checkpoint.json").read_text())
    doc[section].update(keys)
    (ck / "checkpoint.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("use_vsem, use_vspm, layout", [
    (True, True, "split"), (True, False, "split"), (False, True, "split"),
    (True, True, "whole"), (True, False, "whole"), (False, True, "whole"),
    (True, True, "one-f32"),
], ids=["both", "vsem-only", "vspm-only", "both-whole", "vsem-only-whole",
        "vspm-only-whole", "one-f32"])
def test_checkpoint_loads_without_random_draws(tmp_path, monkeypatch, use_vsem, use_vspm,
                                               layout):
    """Loading allocates each parameter once, from its file: no random
    initialisation is drawn, and every array is float64, C-ordered, its
    own and shared with no other parameter.  A checkpoint that holds the
    semantic-spatial FC whole, as one (D, D * branches) embed.ss_fc_w (the
    layout before its branch blocks were split), is refused."""
    cfg = replace(SMALL_MODEL, use_vsem=use_vsem, use_vspm=use_vspm)
    params = model.init_params(cfg, SMALL_DIMS, seed=31)
    ck = model.save_checkpoint(tmp_path / "ck", params, cfg, SMALL_DIMS)
    want = {n: t.data for n, t in params.named().items()}
    if layout == "whole":
        blocks = [n for n in want if n.startswith("embed.ss_fc_w_")]
        featureio.write_tensor(ck / "embed.ss_fc_w.3sht",
                               np.concatenate([want[n] for n in blocks], axis=1))
        doc = json.loads((ck / "checkpoint.json").read_text())
        doc["tensors"] = sorted(set(doc["tensors"]) - set(blocks) | {"embed.ss_fc_w"})
        (ck / "checkpoint.json").write_text(json.dumps(doc))
    elif layout == "one-f32":
        want["embed.text_fc_w"] = want["embed.text_fc_w"].astype(np.float32)
        featureio.write_tensor(ck / "embed.text_fc_w.3sht", want["embed.text_fc_w"])

    def no_draws(*args):
        raise AssertionError("drew a random initialisation")

    monkeypatch.setattr(ag, "uniform_param", no_draws)
    with pytest.raises(AssertionError, match="drew"):
        model.init_params(cfg, SMALL_DIMS, seed=31)
    if layout == "whole":
        with pytest.raises(FormatError, match="tensor list does not match model config"):
            model.load_checkpoint(ck)
        return
    loaded = model.load_checkpoint(ck)[0].named()
    assert list(loaded) == list(want)
    for name, t in loaded.items():
        assert t.data.dtype == np.float64 and t.data.shape == want[name].shape, name
        assert t.data.tobytes() == want[name].astype(np.float64).tobytes(), name
        assert t.data.flags.c_contiguous and t.data.flags.owndata, name
        assert t.requires_grad and t.grad is None, name
    arrays = [t.data for t in loaded.values()]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])


@pytest.mark.parametrize("section, keys, match", [
    ("model", {"gpo_heads": 2}, "unknown keys: gpo_heads"),
    # the pooling switch checkpoints stored while per-group pooling existed
    ("model", {"per_group_gpo": False}, "unknown keys: per_group_gpo"),
    ("model", {"per_group_gpo": True}, "unknown keys: per_group_gpo"),
    ("dims", {"Z": 3, "A": 1}, "unknown keys: A, Z"),
    ("dims", {"K": "six"}, "dims.K"),
    ("dims", {"K": "6"}, "dims.K must be int"),
    ("dims", {"K": 6.5}, "dims.K must be int"),
    ("dims", {"K": True}, "dims.K must be int"),
    ("model", {"embed_dim": "x"}, "model.embed_dim must be int"),
    ("model", {"embed_dim": True}, "model.embed_dim must be int"),
    ("model", {"attn_smooth": "4"}, "model.attn_smooth must be float"),
    ("model", {"salience_mode": 3}, "model.salience_mode must be str"),
    ("model", {"use_vsem": 1}, "model.use_vsem must be bool"),
], ids=["model-unknown-key", "model-per-group-gpo-off", "model-per-group-gpo-on",
        "dims-unknown-keys", "dims-not-integer",
        "dims-int-is-numeric-str", "dims-int-is-float", "dims-int-is-bool",
        "model-int-is-str", "model-int-is-bool", "model-float-is-str",
        "model-str-is-int", "model-bool-is-int"])
def test_checkpoint_rejects_bad_config_keys(tmp_path, params, section, keys, match):
    ck = model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    _edit_checkpoint(ck, section, **keys)
    with pytest.raises(FormatError, match=match):
        model.load_checkpoint(ck)


@pytest.mark.parametrize("text, match", [
    (b"{bad", "not valid JSON"),
    (b"", "not valid JSON"),
    (b"[1, 2]", "must be a JSON object"),
    (b'"checkpoint"', "must be a JSON object"),
    (b'{"format_version": 1, "model": "\xff"}', "not valid UTF-8"),
], ids=["truncated", "empty", "list", "string", "invalid-utf8"])
def test_checkpoint_rejects_unreadable_document(tmp_path, params, text, match):
    ck = model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    (ck / "checkpoint.json").write_bytes(text)
    with pytest.raises(FormatError, match=match):
        model.load_checkpoint(ck)


@pytest.mark.parametrize("edit, match", [
    ({"model": None}, "missing key 'model'"),
    ({"dims": None}, "missing key 'dims'"),
    ({"tensors": None}, "missing key 'tensors'"),
    ({"tensors": "vsem.seg_fc_w"}, "tensors must be a list"),
    ({"tensors": {"vsem.seg_fc_w": 1}}, "tensors must be a list"),
    ({"tensors": [1, "vsem.seg_fc_w"]}, "tensors must be a list"),
    ({"meta": [1]}, "meta must be a JSON object"),
    ({"format_version": None}, "missing key 'format_version'"),
    ({"format_version": 2}, "format_version 2 unsupported"),
    ({"format_version": True}, "format_version True unsupported"),
    ({"format_version": 1.0}, "format_version 1.0 unsupported"),
    ({"model": {k: v for k, v in SMALL_MODEL.to_dict().items()
                if k not in ("attn_smooth", "salience_mode")}},
     "model has missing keys: attn_smooth, salience_mode"),
    ({"dims": {k: v for k, v in SMALL_DIMS.to_dict().items() if k != "word_dim"}},
     "dims has missing keys: word_dim"),
], ids=["no-model", "no-dims", "no-tensors", "tensors-str", "tensors-dict",
        "tensors-mixed", "meta-list", "no-format-version", "format-version-2",
        "format-version-bool", "format-version-float",
        "model-missing-keys", "dims-missing-key"])
def test_checkpoint_rejects_malformed_sections(tmp_path, params, edit, match):
    ck = model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    doc = json.loads((ck / "checkpoint.json").read_text())
    for key, value in edit.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    (ck / "checkpoint.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=match):
        model.load_checkpoint(ck)


def test_save_over_an_unreadable_checkpoint_replaces_it(tmp_path, params):
    ck = tmp_path / "ck"
    ck.mkdir()
    (ck / "checkpoint.json").write_bytes(b"{bad")
    model.save_checkpoint(ck, params, SMALL_MODEL, SMALL_DIMS)
    assert list(model.load_checkpoint(ck)[0].named()) == list(params.named())


VSEM_VSPM_NAMES = [
    "vsem.seg_fc_w", "vsem.seg_fc_b", "vsem.region_proj", "vsem.gate_proj",
    "vsem.fuse_proj", "vspm.conv_kernel", "vspm.conv_bias", "vspm.query_proj",
    "vspm.combine_proj", "embed.img_proj", "embed.text_fc_w", "embed.text_fc_b",
    "embed.gpo_visual", "embed.gpo_text"]


@pytest.mark.parametrize("use_vsem, use_vspm, tail", [
    (True, True, ["embed.ss_fc_w_sem", "embed.ss_fc_w_spa", "embed.ss_fc_b"]),
    (True, False, ["embed.ss_fc_w_sem", "embed.ss_fc_b"]),
    (False, True, ["embed.ss_fc_w_spa", "embed.ss_fc_b"]),
    (False, False, []),
], ids=["both", "vsem-only", "vspm-only", "neither"])
def test_parameter_names_keep_their_order(use_vsem, use_vspm, tail):
    """grad_check samples coordinates tensor by tensor in this order, so a
    reordered dataclass field would silently move the sampled coordinates."""
    cfg = replace(SMALL_MODEL, use_vsem=use_vsem, use_vspm=use_vspm)
    named = model.init_params(cfg, SMALL_DIMS, 0).named()
    assert list(named) == VSEM_VSPM_NAMES + tail


# ---------------------------------------------------------------------------
# gradients through the whole visual + text stack


def test_end_to_end_gradients(data):
    bundles, texts, _ = data
    cfg = replace(SMALL_MODEL, embed_dim=16)
    p = model.init_params(cfg, SMALL_DIMS, seed=11)
    pi = model.prepare_image(bundles[:1], SMALL_DIMS, cfg)
    w = Tensor(np.random.default_rng(1).normal(size=(1, cfg.embed_dim)))

    def loss():
        vi = model.visual_forward(pi, p, cfg)
        tx = model.text_forward(texts.word_feats[:1], p)
        return (vi * w).sum() + (tx * w).sum() + (vi * tx).sum()

    report = ag.grad_check(loss, p.named(), eps=1e-5, tol=1e-4, sample=25)
    assert report.passed, report
