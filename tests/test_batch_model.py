"""The batch-major model against the per-image reference in per_image_oracle.

Every comparison holds values to 1e-12 (embeddings are unit rows, so that
is relative too) and gradients to 1e-12 of each parameter's largest
gradient entry.  Batching may move a value by a few ULPs, never more.
"""
from dataclasses import replace

import numpy as np
import pytest

import per_image_oracle as oracle
from sshnet import autograd as ag
from sshnet import featureio, model, objective
from sshnet.autograd import Tensor
from sshnet.config import SMALL_DIMS, SMALL_MODEL
from sshnet.errors import ConfigError

TOL = 1e-12


def _batch(n, mode="region", cfg=SMALL_MODEL, seed=0, captions=1):
    bundles = featureio.random_bundles(SMALL_DIMS, n, seed + 1)
    texts = featureio.random_texts(SMALL_DIMS, n, captions, seed + 2)
    imgs = [model.prepare_image(b, SMALL_DIMS, cfg, mode) for b in bundles]
    return bundles, texts, imgs, texts.word_feats


def _grads(loss_fn, params):
    params.zero_grad()
    loss_fn().backward()
    out = {k: (t.grad.copy() if t.grad is not None else np.zeros(t.shape))
           for k, t in params.named().items()}
    params.zero_grad()
    return out


def _assert_grads_close(got, want):
    for name in want:
        scale = np.abs(want[name]).max()
        err = np.abs(got[name] - want[name]).max()
        assert err <= TOL * max(scale, 1e-300), (name, err, scale)


VARIANTS = [(True, True), (False, True), (True, False), (False, False)]


@pytest.mark.parametrize("mode", ["region", "grid"])
@pytest.mark.parametrize("use_vsem, use_vspm", VARIANTS,
                         ids=["both", "no-vsem", "no-vspm", "neither"])
def test_batched_forward_matches_per_image_oracle(mode, use_vsem, use_vspm):
    cfg = replace(SMALL_MODEL, use_vsem=use_vsem, use_vspm=use_vspm)
    params = model.init_params(cfg, SMALL_DIMS, seed=3)
    _, _, imgs, txts = _batch(5, mode, cfg)
    w = Tensor(np.random.default_rng(4).normal(size=(5, cfg.embed_dim)))

    got = model.visual_forward(imgs, params, cfg).data
    want = np.stack([oracle.visual_forward(i, params, cfg).data for i in imgs])
    assert got.shape == (5, cfg.embed_dim)
    assert np.abs(got - want).max() <= TOL

    def batched():
        iv = model.visual_forward(imgs, params, cfg)
        tv = model.text_forward(txts, params)
        return objective.triplet_loss(ag.linear(iv, tv), 0.2) + (iv * w).sum()

    def per_image():
        iv = oracle.stack([oracle.visual_forward(i, params, cfg) for i in imgs])
        return oracle.triplet_loss(imgs, txts, params, cfg) + (iv * w).sum()

    _assert_grads_close(_grads(batched, params), _grads(per_image, params))


def test_softmax_salience_matches_per_image_oracle():
    cfg = replace(SMALL_MODEL, salience_mode="softmax")
    params = model.init_params(cfg, SMALL_DIMS, seed=5)
    _, _, imgs, txts = _batch(4, cfg=cfg, seed=6)
    got = model.visual_forward(imgs, params, cfg).data
    want = np.stack([oracle.visual_forward(i, params, cfg).data for i in imgs])
    assert np.abs(got - want).max() <= TOL
    _assert_grads_close(
        _grads(lambda: objective.triplet_loss(ag.linear(
            model.visual_forward(imgs, params, cfg),
            model.text_forward(txts, params)), 0.2), params),
        _grads(lambda: oracle.triplet_loss(imgs, txts, params, cfg), params))


def _sentences(lengths, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, SMALL_DIMS.word_dim)) for n in lengths]


def test_text_rows_come_back_in_input_order_for_mixed_lengths():
    params = model.init_params(SMALL_MODEL, SMALL_DIMS, seed=8)
    txts = _sentences([5, 1, 3, 5, 1, 12, 3, 7, 5])
    w = Tensor(np.random.default_rng(9).normal(size=(len(txts), SMALL_MODEL.embed_dim)))
    got = model.text_forward(txts, params)
    want = [oracle.text_forward(t, params) for t in txts]
    assert got.shape == (len(txts), SMALL_MODEL.embed_dim)
    assert np.abs(got.data - np.stack([v.data for v in want])).max() <= TOL
    _assert_grads_close(
        _grads(lambda: (model.text_forward(txts, params) * w).sum(), params),
        _grads(lambda: (oracle.stack([oracle.text_forward(t, params)
                                      for t in txts]) * w).sum(), params))


def test_permuting_a_batch_permutes_its_rows():
    params = model.init_params(SMALL_MODEL, SMALL_DIMS, seed=10)
    _, _, imgs, _ = _batch(6, seed=11)
    txts = _sentences([4, 1, 9, 4, 6, 1], seed=12)
    perm = np.random.default_rng(13).permutation(6)
    img = model.visual_forward(imgs, params, SMALL_MODEL).data
    img_p = model.visual_forward([imgs[i] for i in perm], params, SMALL_MODEL).data
    assert np.abs(img_p - img[perm]).max() <= TOL
    txt = model.text_forward(txts, params).data
    txt_p = model.text_forward([txts[i] for i in perm], params).data
    assert np.abs(txt_p - txt[perm]).max() <= TOL


def test_embed_dataset_last_chunk_of_one_matches_oracle():
    n = model._EMBED_CHUNK + 1
    params = model.init_params(SMALL_MODEL, SMALL_DIMS, seed=14)
    bundles, texts, imgs, txts = _batch(n, seed=15)
    table = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS)
    want_img = np.stack([oracle.visual_forward(i, params, SMALL_MODEL).data for i in imgs])
    want_txt = np.stack([oracle.text_forward(t, params).data for t in txts])
    assert table.image_embs.shape == want_img.shape
    assert table.text_embs.shape == want_txt.shape
    assert np.abs(table.image_embs - want_img).max() <= TOL
    assert np.abs(table.text_embs - want_txt).max() <= TOL
    again = model.embed_dataset(bundles, texts, params, SMALL_MODEL, SMALL_DIMS)
    assert again.image_embs.tobytes() == table.image_embs.tobytes()
    assert again.text_embs.tobytes() == table.text_embs.tobytes()


def test_embed_dataset_rejects_empty_inputs():
    params = model.init_params(SMALL_MODEL, SMALL_DIMS, seed=16)
    bundles, texts, _, _ = _batch(2, seed=17)
    none = featureio.TextFeatureSet([], np.zeros(0, dtype=np.int64))
    for imgs, txts in (([], texts), (bundles, none)):
        with pytest.raises(ConfigError, match="at least one image and one sentence"):
            model.embed_dataset(imgs, txts, params, SMALL_MODEL, SMALL_DIMS)

