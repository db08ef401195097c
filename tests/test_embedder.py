"""Embedder and model assembly tests."""
import json

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from sshnet import autograd as ag
from sshnet import embedder, featureio, model, vsem, vspm
from sshnet.autograd import Tensor
from sshnet.config import SMALL_DIMS, SMALL_MODEL
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
    pi = model.prepare_image(bundles[0], SMALL_DIMS, SMALL_MODEL)
    emb = model.visual_forward([pi], params, SMALL_MODEL)
    assert np.linalg.norm(emb.data) == pytest.approx(1.0, abs=1e-9)
    assert emb.shape == (1, SMALL_MODEL.embed_dim)


def test_fused_set_has_2k_plus_1_rows(data, params):
    bundles, _, _ = data
    embedder._INTERP_CACHE.clear()
    pi = model.prepare_image(bundles[0], SMALL_DIMS, SMALL_MODEL)
    model.visual_forward([pi], params, SMALL_MODEL)
    sizes = {n for n, _ in embedder._INTERP_CACHE}
    assert 2 * SMALL_DIMS.K + 1 in sizes


def test_region_permutation_leaves_embedding_unchanged(data, params):
    bundles, _, _ = data
    b = bundles[1]
    pi = model.prepare_image(b, SMALL_DIMS, SMALL_MODEL)
    emb = model.visual_forward([pi], params, SMALL_MODEL)
    perm = np.random.default_rng(2).permutation(SMALL_DIMS.K)
    b2 = featureio.FeatureBundle(b.image_id, b.region_feats[perm], b.grid_feats,
                                 b.seg_feat, b.seg_map)
    emb2 = model.visual_forward([model.prepare_image(b2, SMALL_DIMS, SMALL_MODEL)],
                                params, SMALL_MODEL)
    np.testing.assert_allclose(emb2.data, emb.data, atol=1e-12)


def test_prepared_path_equals_raw_composition(data, params):
    """The cached-patch fast path must agree bitwise with the public ops."""
    bundles, _, _ = data
    b = bundles[2]
    pi = model.prepare_image(b, SMALL_DIMS, SMALL_MODEL)
    fast = model.visual_forward([pi], params, SMALL_MODEL)

    regions = Tensor(b.region_feats[None])
    vs = vsem.vsem_forward(regions, Tensor(b.seg_feat.mean(axis=(0, 1))[None]),
                           params.vsem, SMALL_MODEL.salience_mode)
    pos = vspm.build_position_tensor(b.seg_map, SMALL_MODEL.pos_dim, SMALL_DIMS.C_s)
    patches, hw = ag.conv_patches(pos, SMALL_MODEL.conv_kh, SMALL_MODEL.conv_kw,
                                  SMALL_MODEL.conv_stride)
    vp = vspm.vspm_forward(regions, Tensor(patches[None]), params.vspm, SMALL_MODEL, hw)
    slow = embedder.fuse_visual(regions, vs, vp, vs.seg_embed, params.embed,
                                SMALL_MODEL)
    assert np.array_equal(fast.data, slow.data)


def test_branch_toggles_change_row_count(data):
    bundles, _, _ = data
    for cfg in (replace(SMALL_MODEL, use_vsem=False),
                replace(SMALL_MODEL, use_vspm=False),
                replace(SMALL_MODEL, use_vsem=False, use_vspm=False)):
        p = model.init_params(cfg, SMALL_DIMS, seed=3)
        embedder._INTERP_CACHE.clear()
        pi = model.prepare_image(bundles[0], SMALL_DIMS, cfg)
        emb = model.visual_forward([pi], p, cfg)
        assert np.linalg.norm(emb.data) == pytest.approx(1.0, abs=1e-9)
        sizes = {n for n, _ in embedder._INTERP_CACHE}
        expect = 2 * SMALL_DIMS.K + 1 if embedder.n_ss_branches(cfg) else SMALL_DIMS.K + 1
        assert expect in sizes


# ---------------------------------------------------------------------------
# text


def test_text_embedding_unit_norm_and_single_word(data, params):
    _, texts, _ = data
    pt = model.prepare_text(texts)[0]
    emb = model.text_forward([pt], params, SMALL_MODEL)
    assert emb.shape == (1, SMALL_MODEL.embed_dim)
    assert np.linalg.norm(emb.data) == pytest.approx(1.0, abs=1e-9)

    one = Tensor(texts.word_feats[0][:1])
    got = embedder.embed_text([one], params.embed)
    fc = params.embed.text_fc_w.data @ texts.word_feats[0][0] + params.embed.text_fc_b.data
    np.testing.assert_allclose(got.data[0], fc / np.linalg.norm(fc), atol=1e-12)


def test_modality_independence(data, params):
    """Image embeddings cannot depend on which sentences are present."""
    bundles, texts, _ = data
    t1 = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS)
    fewer = featureio.TextFeatureSet(texts.word_feats[:3], texts.image_index[:3],
                                     texts.sentence_ids[:3])
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
    assert grid.mode == "grid"
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


def test_checkpoint_with_legacy_per_group_key_loads_bitwise(tmp_path, data, params):
    """Checkpoints written while per-group pooling existed store the switch."""
    bundles, texts, _ = data
    ck = model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    _edit_checkpoint(ck, "model", per_group_gpo=False)
    loaded, cfg, dims, _ = model.load_checkpoint(ck)
    assert cfg == SMALL_MODEL
    t1 = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS)
    t2 = model.embed_dataset(bundles, texts, loaded, cfg, dims)
    assert np.array_equal(t1.image_embs, t2.image_embs)
    assert np.array_equal(t1.text_embs, t2.text_embs)

    _edit_checkpoint(ck, "model", per_group_gpo=True)
    with pytest.raises(FormatError, match="per_group_gpo"):
        model.load_checkpoint(ck)


@pytest.mark.parametrize("section, keys, match", [
    ("model", {"gpo_heads": 2}, "unknown keys: gpo_heads"),
    ("dims", {"Z": 3, "A": 1}, "unknown keys: A, Z"),
    ("dims", {"K": "six"}, "dims.K"),
    ("model", {"embed_dim": "x"}, "model.embed_dim must be int"),
    ("model", {"embed_dim": True}, "model.embed_dim must be int"),
    ("model", {"attn_smooth": "4"}, "model.attn_smooth must be float"),
    ("model", {"salience_mode": 3}, "model.salience_mode must be str"),
    ("model", {"use_vsem": 1}, "model.use_vsem must be bool"),
], ids=["model-unknown-key", "dims-unknown-keys", "dims-not-integer",
        "model-int-is-str", "model-int-is-bool", "model-float-is-str",
        "model-str-is-int", "model-bool-is-int"])
def test_checkpoint_rejects_bad_config_keys(tmp_path, params, section, keys, match):
    ck = model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    _edit_checkpoint(ck, section, **keys)
    with pytest.raises(FormatError, match=match):
        model.load_checkpoint(ck)


@pytest.mark.parametrize("text, match", [
    ("{bad", "not valid JSON"),
    ("", "not valid JSON"),
    ("[1, 2]", "must be a JSON object"),
    ('"checkpoint"', "must be a JSON object"),
], ids=["truncated", "empty", "list", "string"])
def test_checkpoint_rejects_unreadable_document(tmp_path, params, text, match):
    ck = model.save_checkpoint(tmp_path / "ck", params, SMALL_MODEL, SMALL_DIMS)
    (ck / "checkpoint.json").write_text(text)
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
], ids=["no-model", "no-dims", "no-tensors", "tensors-str", "tensors-dict",
        "tensors-mixed", "meta-list"])
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


# ---------------------------------------------------------------------------
# gradients through the whole visual + text stack


def test_end_to_end_gradients(data):
    bundles, texts, _ = data
    cfg = replace(SMALL_MODEL, embed_dim=16)
    p = model.init_params(cfg, SMALL_DIMS, seed=11)
    pi = model.prepare_image(bundles[0], SMALL_DIMS, cfg)
    pt = model.prepare_text(texts)[0]
    w = Tensor(np.random.default_rng(1).normal(size=(1, cfg.embed_dim)))

    def loss():
        vi = model.visual_forward([pi], p, cfg)
        tx = model.text_forward([pt], p, cfg)
        return (vi * w).sum() + (tx * w).sum() + (vi * tx).sum()

    report = ag.grad_check(loss, p.named(), eps=1e-5, tol=1e-4, sample=25)
    assert report.passed, report
