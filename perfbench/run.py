#!/usr/bin/env python3
"""sshnet benchmark: four workloads measured from outside the package.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  One invocation generates the workload's
inputs from ``--seed`` in a child process, runs rounds of the workload for
about ``--seconds`` seconds in this process, checks every output against
the benchmark's oracles, writes a stamped results file under
``.perfbench_out/`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` first runs the workload untraced for half the time, then
traced for the other half, and reports the per-layer metrics of
BENCHMARK.json, including the tracing overhead on every end-to-end metric.
``--workload all`` runs every workload, each in its own process, and
prints every figure by name with its unit.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 2               # the determinism oracles compare two rounds
CHILD_TIMEOUT_S = 175

# per-call figures recorded alongside spans, in MB
MEASURES = {
    "featureio.read_tensor": lambda args, out: out.nbytes / 1e6,
    "objective.adamw_step": lambda args, out: sum(
        t.data.nbytes for t in args[0].values()) / 1e6,
}
NOT_OPS = {"autograd.Tensor.backward"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sshnet" / "__init__.py").is_file():
        print("error: no sshnet sources under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print("error: unknown workload %r (choose from %s or all)"
              % (args.workload, ", ".join(names)), file=sys.stderr)
        return 2
    return run_one(args, spec)


# ---------------------------------------------------------------------------
# one workload in this process


def run_one(args, spec) -> int:
    # One BLAS thread, set before numpy loads: on a small shared VM a
    # multi-threaded BLAS call stalls whenever any one of its cores does.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sshnet
    if Path(sshnet.__file__).resolve().parent != SRC / "sshnet":
        print("error: imported sshnet from %s, not from this checkout"
              % sshnet.__file__, file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = OUT / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        digest = generate_inputs(args.workload, args.seed, work)
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            untraced = run_rounds(wl, args.seconds / 2)
            e2e_before = end_to_end(untraced)
            tracer = tracing.Tracer(wl.boundaries)
            tracer.install(layer_targets(spec), MEASURES)
            wl.untraced = tracer.suspended
            try:
                rounds = run_rounds(wl, args.seconds / 2, first=len(untraced))
            finally:
                tracer.uninstall()
            e2e = end_to_end(rounds)
            overhead = {k: e2e[k] - e2e_before[k] for k in e2e}
            metrics = layer_metrics(spec, tracer.summary(), len(rounds), overhead)
            checked = untraced + rounds
        else:
            rounds = run_rounds(wl, args.seconds)
            e2e = end_to_end(rounds)
            metrics = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
            checked = rounds
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    named = wl.named(rounds) + [
        ("setup_s", e2e["setup_s"], "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("fail_frac", failed / attempted, "failed/attempted"),
    ]
    results = {
        "stamp": stamp(args),
        "inputs_sha256": digest,
        "rounds": [vars(r) for r in checked],
        "named": {n: {"value": v, "unit": u} for n, v, u in named},
        "end_to_end": e2e,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
    }
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / (stem + ".json")).write_text(json.dumps(results, indent=1))
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / "spans" / (stem + ".npz"))
        if tracer.missing:
            print("not in the package, reported as 0: %s" % ", ".join(tracer.missing))

    print("%s seed %d: %d rounds%s" % (args.workload, args.seed, len(checked),
                                       ", traced" if args.trace else ""))
    for n, v, u in named:
        print("  %-24s %14.6g %s" % (n, v, u))
    print("  %-24s %14d %s checked, %d failed" % ("attempted", attempted, wl.checked, failed))
    print("  results in %s" % (OUT / "results" / (stem + ".json")).relative_to(ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def generate_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs in a child process, so they cost this one no memory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(work)],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return json.loads((work / "inputs.sha256.json").read_text())


def run_rounds(wl, seconds: float, first: int = 0) -> list:
    """At least MIN_ROUNDS rounds; no new round once it would end late."""
    rounds, walls = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(wl.round(first + len(rounds)))
        walls.append(time.perf_counter() - t)
        spent = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and spent + statistics.median(walls) > seconds:
            return rounds


def end_to_end(rounds) -> dict:
    return {
        "items_per_s": statistics.median(x for r in rounds for x in r.rates),
        "job_s": statistics.median(r.job_s for r in rounds),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# per-layer metrics, named <module>.<function>.<stat>


def layer_targets(spec) -> list:
    """The functions to wrap: every ``<module>.<function>`` (or
    ``<module>.<Class>.<method>``) named before a metric's stat."""
    return sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                   if m["name"].count(".") >= 2})


def layer_metrics(spec, summary, n_rounds: int, overhead: dict) -> dict:
    """Stats: calls = calls per round; ms, s, self_ms = mean per call;
    mb, param_mb = MB per call; ops_per_loss = autograd op calls per
    triplet-loss evaluation; trace_overhead.<m> = traced minus untraced."""
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "measured": 0.0}
    ops = [t for t in layer_targets(spec) if t.startswith("autograd.") and t not in NOT_OPS]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        target, stat = name.rsplit(".", 1)
        if target == "trace_overhead":
            value = overhead[stat]
        elif name == "autograd.ops_per_loss":
            losses = summary.get("objective.triplet_loss", empty)["calls"]
            value = sum(summary.get(t, empty)["calls"] for t in ops) / losses if losses else 0.0
        else:
            s = summary.get(target, empty)
            per_call = 1.0 / s["calls"] if s["calls"] else 0.0
            value = {"calls": s["calls"] / n_rounds,
                     "ms": 1e3 * s["incl_s"] * per_call,
                     "s": s["incl_s"] * per_call,
                     "self_ms": 1e3 * s["self_s"] * per_call,
                     "mb": s["measured"] * per_call,
                     "param_mb": s["measured"] * per_call}[stat]
        out[name] = (value, m["unit"])
    return out


# ---------------------------------------------------------------------------
# machine stamp


def stamp(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = None
    nproc = os.cpu_count()
    threads = blas_threads()
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": nproc, "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads,
        "load_within_nproc": threads is None or threads <= nproc,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_sha():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "sshnet").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args, names) -> int:
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not lines:
            print("%s: exit code %d" % (name, res.returncode))
            status = 1
            continue
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({"%s.%s" % (name, k): v for k, v in last["metrics"].items()})
    if status:
        return status
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
