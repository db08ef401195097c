"""The benchmark's per-layer metrics name package functions; keep them real.

perfbench wraps every ``<module>.<function>`` (or ``<module>.<Class>.<method>``)
named in BENCHMARK.json and reports zero for a name it cannot find, so a
rename would silently zero a metric.  This resolves the names the same way.
"""
import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Ops deleted after the benchmark was written; BENCHMARK.json still lists them.
KNOWN_STALE = {"autograd.stack", "autograd.transpose"}


def layer_targets():
    spec = json.loads(BENCHMARK.read_text())
    return sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                   if m["name"].count(".") >= 2})


def resolves(target):
    mod_name, *owner_path, attr = target.split(".")
    try:
        owner = importlib.import_module("sshnet." + mod_name)
    except ModuleNotFoundError:
        return False
    for part in owner_path:
        owner = getattr(owner, part, None)
    return owner is not None and callable(vars(owner).get(attr))


def test_per_layer_names_resolve_to_package_functions():
    targets = layer_targets()
    assert len(targets) > 30
    unresolved = {t for t in targets if not resolves(t)}
    assert unresolved == KNOWN_STALE
