"""The modality-split gradient check in ``checks.full_loss_grad_check``.

Its central differences re-run only the perturbed parameter's modality
against the other side's held embeddings; these tests hold it to the
unsplit loss bit for bit and show it still catches a wrong VJP on either
side.
"""
import json
from dataclasses import replace

import numpy as np
import pytest

from sshnet import autograd as ag
from sshnet import checks, featureio, objective, retrieval
from sshnet.cli import main
from sshnet.errors import ConfigError


def _captured_check(monkeypatch, **kw):
    """Run the check, keeping the losses and parameters it hands grad_check."""
    seen = {}
    real = ag.grad_check

    def spy(loss_fn, params, **kwargs):
        seen.update(loss_fn=loss_fn, params=params, kwargs=kwargs)
        return real(loss_fn, params, **kwargs)

    monkeypatch.setattr(ag, "grad_check", spy)
    res = checks.full_loss_grad_check(**kw)
    monkeypatch.setattr(ag, "grad_check", real)
    return res, seen


@pytest.mark.parametrize("name", ["vsem.region_proj", "vspm.combine_proj",
                                  "embed.gpo_visual", "embed.text_fc_w",
                                  "embed.gpo_text"])
def test_split_losses_are_bitwise_the_unsplit_ones(monkeypatch, name):
    _, seen = _captured_check(monkeypatch, sample=1)
    full, params = seen["loss_fn"], seen["params"]
    split = seen["kwargs"]["fd_loss"](name)
    eps = seen["kwargs"]["eps"]
    flat = params[name].data.reshape(-1)
    rng = np.random.default_rng(len(name))
    with ag.no_grad():
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[i]
            for step in (eps, -eps):
                flat[i] = orig + step
                want, got = full().data, split().data
                assert got.tobytes() == want.tobytes(), (name, i, step)
            flat[i] = orig


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_split_report_equals_unsplit_grad_check(monkeypatch, seed):
    res, seen = _captured_check(monkeypatch, seed=seed, sample=6)
    kw = dict(seen["kwargs"])
    kw.pop("fd_loss")
    plain = ag.grad_check(seen["loss_fn"], seen["params"], **kw)
    assert res.report.max_abs_err == plain.max_abs_err
    assert res.report.max_rel_err == plain.max_rel_err
    assert res.report.worst_param_path == plain.worst_param_path
    assert res.report.passed == plain.passed


def _skewed(op):
    """``op`` with every gradient its VJP returns scaled by 1.5."""
    def wrapped(*args, **kwargs):
        out = op(*args, **kwargs)
        vjp = out._vjp
        if vjp is not None:
            out._vjp = lambda g: tuple(None if x is None else 1.5 * x
                                       for x in vjp(g))
        return out
    return wrapped


@pytest.mark.parametrize("op,side", [("take_rows", "text"),
                                     ("cosine_rows", "visual"),
                                     ("sigmoid", "visual")])
def test_wrong_vjp_on_either_side_fails(monkeypatch, op, side):
    # take_rows only runs in the text forward; cosine_rows (vspm) and
    # sigmoid (vsem salience) only in the visual one.
    monkeypatch.setattr(ag, op, _skewed(getattr(ag, op)))
    res = checks.full_loss_grad_check(seed=3, sample=3)
    assert not res.report.passed
    worst = res.report.worst_param_path.split("[")[0]
    assert (worst in checks.TEXT_PARAMS) == (side == "text")


@pytest.mark.parametrize("n_images", [-1, 0, 1])
def test_small_batch_rejected_before_inputs(monkeypatch, n_images):
    def boom(*a, **k):
        raise AssertionError("inputs built before the batch was checked")

    monkeypatch.setattr(checks.featureio, "random_bundles", boom)
    with pytest.raises(ConfigError, match="batch"):
        checks.full_loss_grad_check(n_images=n_images, sample=1)


@pytest.mark.parametrize("setting, match", [({"eps": 1.0}, "eps"), ({"tol": 0.0}, "tol"),
                                            ({"sample": 0}, "sample")])
def test_bad_settings_rejected_before_inputs(monkeypatch, setting, match):
    def boom(*a, **k):
        raise AssertionError("inputs built before the settings were checked")

    monkeypatch.setattr(checks.featureio, "random_bundles", boom)
    with pytest.raises(ConfigError, match=match):
        checks.full_loss_grad_check(**setting)


def _widening(read_tensor):
    """``read_tensor`` handing float32 payloads back as float64."""
    def read(path):
        arr = read_tensor(path)
        return arr.astype(np.float64) if arr.dtype == np.float32 else arr
    return read


# One broken invariant per probe: (module, attribute, wrapper of the real
# function, the probe that must catch it).
BREAKS = [
    (objective, "triplet_loss", lambda real: lambda sim, margin: real(sim, margin) * 2.0,
     "ranking_loss"),
    (objective, "adamw_step", lambda real: lambda named, state, cfg: None,
     "optimizer_decay"),
    (featureio, "read_tensor", _widening, "tensor_roundtrip"),
    (retrieval, "evaluate", lambda real: lambda *a, **kw: replace(
        real(*a, **kw), recall=[v + 1.0 for v in real(*a, **kw).recall]),
     "metric_oracle"),
    (ag, "sigmoid", _skewed, "gradients_sampled"),
]


@pytest.mark.parametrize("module, name, breaks, probe", BREAKS,
                         ids=[b[-1] for b in BREAKS])
def test_selfcheck_fails_exactly_the_probe_of_a_broken_invariant(
        monkeypatch, capsys, module, name, breaks, probe):
    monkeypatch.setattr(module, name, breaks(getattr(module, name)))
    out = checks.selfcheck()
    assert out["passed"] is False
    assert list(out["checks"]) == [n for n, _ in checks.CHECKS]
    assert {n for n, r in out["checks"].items() if not r["ok"]} == {probe}
    assert out["checks"][probe]["error"]
    assert main(["selfcheck"]) == 2
    assert json.loads(capsys.readouterr().out)["passed"] is False
