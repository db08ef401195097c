"""The benchmark's per-layer metrics must be reached, not only resolve.

perfbench wraps every per-layer target of BENCHMARK.json in each sshnet
namespace that binds it: cross-module calls go through module attributes
and same-module calls through module globals, so both reach the wrapper,
and a method is wrapped on its class.  A target the product no longer
calls still resolves, but its metric reads 0.  This wraps the same targets
with call counters, runs the product calls of the four workloads at the
small preset, and asks that every counter moved.
"""
import importlib
import sys

import pytest
from test_bench_names import KNOWN_STALE, layer_targets

from sshnet import checks, featureio, model, objective, retrieval
from sshnet.config import preset
from sshnet.objective import TrainConfig


def count_calls(monkeypatch, targets) -> dict:
    """Wrap each target where perfbench's tracer would; ``target -> calls``."""
    calls = dict.fromkeys(targets, 0)
    owners = {}
    for target in targets:
        mod_name, *owner_path, attr = target.split(".")
        owner = importlib.import_module("sshnet." + mod_name)
        for part in owner_path:
            owner = getattr(owner, part)
        owners[target] = owner, attr, bool(owner_path)
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("sshnet.") and mod is not None]
    for target, (owner, attr, is_method) in owners.items():
        orig = vars(owner)[attr]

        def counted(*args, _orig=orig, _target=target, **kwargs):
            calls[_target] += 1
            return _orig(*args, **kwargs)

        if is_method:
            monkeypatch.setattr(owner, attr, counted)
            continue
        for mod in modules:                     # every binding of the function
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.filterwarnings("ignore::sshnet.errors.BenchmarkWarning")
def test_every_traced_name_is_reached_by_the_workloads(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, [t for t in layer_targets() if t not in KNOWN_STALE])
    dims, cfg = preset("small")
    manifest = featureio.synth_dataset(tmp_path / "data", 20, 2, 0, dims)
    bundles, texts, _ = featureio.load_dataset(manifest)
    res = objective.train(bundles, texts, dims, cfg, TrainConfig(batch_size=8, epochs=1))
    model.save_checkpoint(tmp_path / "ckpt", res.params, cfg, dims)
    params, cfg, dims, _ = model.load_checkpoint(tmp_path / "ckpt")
    sims = []
    for mode in ("region", "grid"):
        table = model.embed_dataset(bundles, texts, params, cfg, dims, mode=mode)
        sims.append(retrieval.similarity_matrix(table.image_embs, table.text_embs))
    retrieval.evaluate(sims[0], table.image_index)
    retrieval.fivefold_eval(sims[0], table.image_index, folds=2)
    retrieval.ensemble_eval(*sims, table.image_index)
    retrieval.bench_kpps(table.image_embs, table.text_embs, "precomputed", trials=1)
    checks.full_loss_grad_check(sample=1)
    assert {target for target, n in calls.items() if n == 0} == set()
