"""End-to-end command-line behaviour, run in-process."""
import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshnet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def dir_digest(path):
    h = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    assert main(["synth", "--out", str(out), "--images", "12",
                 "--captions", "2", "--seed", "5"]) == 0
    return out


@pytest.fixture(scope="module")
def ckpt(ds, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ckpt"
    code = main(["train", "--data", str(ds), "--out", str(out),
                 "--epochs", "2", "--batch-size", "8", "--seed", "1"])
    assert code == 0
    return out


def test_synth_reports_and_is_deterministic(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    doc = run_json(capsys, "synth", "--out", str(a), "--images", "4",
                   "--captions", "2", "--seed", "9")
    assert doc["images"] == 4 and doc["sentences"] == 8
    assert (a / "manifest.json").exists()
    run_json(capsys, "synth", "--out", str(b), "--images", "4",
             "--captions", "2", "--seed", "9")
    run_json(capsys, "synth", "--out", str(c), "--images", "4",
             "--captions", "2", "--seed", "10")
    assert dir_digest(a) == dir_digest(b)
    assert dir_digest(a) != dir_digest(c)


def test_train_emits_curve_and_checkpoint(ds, ckpt, capsys):
    assert (Path(ckpt) / "checkpoint.json").exists()
    # rerunning prints the same losses (timing aside)
    code, out, _ = run(capsys, "train", "--data", str(ds), "--out",
                       str(ckpt) + "2", "--epochs", "2", "--batch-size", "8",
                       "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["epochs_run"] == 2 and len(doc["loss_curve"]) == 2
    assert doc["train"]["lr"] == pytest.approx(5e-4)


def test_eval_checkpoint_pipeline(ds, ckpt, capsys):
    doc = run_json(capsys, "eval", "--data", str(ds), "--ckpt", str(ckpt))
    assert set(doc) >= {"mode", "i2s", "s2i", "rsum"}
    assert doc["mode"] == "region"
    assert doc["rsum"] == pytest.approx(
        sum(doc["i2s"].values()) + sum(doc["s2i"].values()))


def test_eval_stdout_is_deterministic(ds, ckpt, capsys):
    _, out1, _ = run(capsys, "eval", "--data", str(ds), "--ckpt", str(ckpt))
    _, out2, _ = run(capsys, "eval", "--data", str(ds), "--ckpt", str(ckpt))
    assert out1 == out2


def test_eval_untrained_model(ds, capsys):
    doc = run_json(capsys, "eval", "--data", str(ds), "--seed", "3")
    assert 0.0 <= doc["rsum"] <= 600.0


def test_eval_pretty_table(ds, ckpt, capsys):
    code, out, _ = run(capsys, "eval", "--data", str(ds), "--ckpt", str(ckpt),
                       "--pretty")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and "rSum" in lines[0] and "region" in lines[1]


def test_eval_folds(tmp_path, capsys):
    big = tmp_path / "big"
    run_json(capsys, "synth", "--out", str(big), "--images", "20",
             "--captions", "1", "--seed", "6")
    doc = run_json(capsys, "eval", "--data", str(big), "--folds", "2")
    assert doc["extra"]["folds"] == 2


def test_eval_small_fold_rejected(ds, ckpt, capsys):
    code, _, err = run(capsys, "eval", "--data", str(ds), "--ckpt", str(ckpt),
                       "--folds", "2")
    assert code == 1 and "candidates" in err


@pytest.mark.parametrize("folds", ["0", "-2"])
def test_eval_rejects_nonpositive_folds(ds, capsys, folds):
    code, _, err = run(capsys, "eval", "--data", str(ds), "--folds=" + folds)
    assert code == 1 and "folds" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_attn_smooth_rejected(ds, tmp_path, capsys, value):
    flag = "--attn-smooth=" + value
    code, _, err = run(capsys, "eval", "--data", str(ds), flag)
    assert code == 1 and "attn_smooth" in err
    code, _, err = run(capsys, "train", "--data", str(ds), "--out",
                       str(tmp_path / "c"), "--epochs", "1", flag)
    assert code == 1 and "attn_smooth" in err


@pytest.mark.parametrize("flag, field", [
    ("--lr=-1", "lr"), ("--lr=nan", "lr"), ("--weight-decay=-0.5", "weight_decay"),
    ("--margin=inf", "margin"),
])
def test_train_rejects_bad_optimiser_flags(ds, tmp_path, capsys, flag, field):
    code, _, err = run(capsys, "train", "--data", str(ds), "--out",
                       str(tmp_path / "c"), "--epochs", "1", flag)
    assert code == 1 and field in err
    assert not (tmp_path / "c" / "checkpoint.json").exists()


def test_hybrid_train_and_eval(ds, tmp_path, capsys):
    out = tmp_path / "hy"
    doc = run_json(capsys, "train", "--data", str(ds), "--out", str(out),
                   "--mode", "hybrid", "--epochs", "1", "--batch-size", "8")
    assert set(doc["runs"]) == {"region", "grid"}
    assert (out / "hybrid.json").exists()
    report = run_json(capsys, "eval", "--data", str(ds), "--ckpt", str(out))
    assert report["mode"] == "hybrid"
    assert report == run_json(capsys, "ensemble-eval", "--data", str(ds),
                              "--ckpt-a", str(out / "region"),
                              "--ckpt-b", str(out / "grid"))


def test_ensemble_eval_self_pair_matches_single(ds, ckpt, capsys):
    single = run_json(capsys, "eval", "--data", str(ds), "--ckpt", str(ckpt))
    double = run_json(capsys, "ensemble-eval", "--data", str(ds),
                      "--ckpt-a", str(ckpt), "--ckpt-b", str(ckpt))
    assert double["i2s"] == single["i2s"] and double["s2i"] == single["s2i"]
    assert double["mode"] == "hybrid"


def test_bench_small_quick(capsys):
    doc = run_json(capsys, "bench", "--dims", "small", "--images", "64",
                   "--queries", "120", "--recompute-queries", "100",
                   "--pool", "2", "--trials", "1", "--top-k", "5")
    assert doc["precomputed"]["kpps"] > 0
    assert doc["recompute"]["kpps"] > 0
    assert doc["speedup"] == pytest.approx(
        doc["precomputed"]["kpps"] / doc["recompute"]["kpps"])


BENCH_SMALL = ("bench", "--dims", "small", "--pool", "2", "--images", "16",
               "--queries", "8", "--recompute-queries", "4", "--trials", "1")


@pytest.mark.parametrize("arg, match", [
    ("--queries=0", "--queries"),
    ("--recompute-queries=0", "--recompute-queries"),
    ("--images=0", "--images"),
    ("--trials=0", "trials"),
    ("--top-k=0", "top_k"),
    ("--top-k=-3", "top_k"),
], ids=["queries-0", "recompute-queries-0", "images-0", "trials-0", "top-k-0",
        "top-k-negative"])
def test_bench_rejects_empty_or_meaningless_counts(capsys, arg, match):
    code, out, err = run(capsys, *BENCH_SMALL, arg)
    assert code == 1 and match in err and out == ""


def test_gradcheck_sampled_passes(capsys):
    doc = run_json(capsys, "gradcheck", "--sample", "3", "--seed", "2")
    assert doc["passed"] is True
    assert doc["max_rel_err"] < 1e-4


def test_gradcheck_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "gradcheck", "--sample", "2",
                       "--tol", "1e-13")
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_selfcheck(capsys):
    doc = run_json(capsys, "selfcheck")
    assert doc["passed"] is True
    assert all(v["ok"] for v in doc["checks"].values())


def test_bad_usage_exits_one(ds, capsys, tmp_path):
    assert run(capsys, "train", "--data", str(ds))[0] == 1      # missing --out
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "synth", "--out", str(tmp_path / "x"),
               "--images", "4", "--wat")[0] == 1
    code, _, err = run(capsys, "eval", "--data", str(tmp_path / "missing"))
    assert code == 1 and err


def test_validation_error_exits_one(ds, tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", str(ds), "--out",
                       str(tmp_path / "c"), "--epochs", "0")
    assert code == 1 and "epochs" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "train", "--help")[0] == 0


BENCH_COUNTS = ("--queries", "--recompute-queries", "--images", "--trials",
                "--top-k")


def _boundary_argv(ds, out):
    bench = st.tuples(*[st.integers(-3, 12) for _ in BENCH_COUNTS]).map(
        lambda vals: ["bench", "--dims", "small", "--pool", "2"]
        + ["%s=%d" % kv for kv in zip(BENCH_COUNTS, vals)])
    folds = st.integers(-3, 13).map(
        lambda n: ["eval", "--data", str(ds), "--folds=%d" % n])
    smooth = st.tuples(
        st.sampled_from([["eval"], ["train", "--out", str(out), "--epochs", "1",
                                    "--batch-size", "8"]]),
        st.floats(allow_nan=True, allow_infinity=True)).map(
        lambda cx: cx[0] + ["--data", str(ds), "--attn-smooth=%r" % cx[1]])
    train_floats = st.tuples(
        st.sampled_from(["--lr", "--weight-decay", "--margin"]),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]))).map(
        lambda fx: ["train", "--data", str(ds), "--out", str(out), "--epochs", "1",
                    "--batch-size", "8", "%s=%r" % fx])
    return st.one_of(bench, folds, smooth, train_floats)


@pytest.mark.filterwarnings("ignore::sshnet.errors.BenchmarkWarning")
def test_boundary_values_exit_cleanly(ds, tmp_path_factory):
    """Counts, folds, smoothing and optimiser floats at and past their
    limits end in a documented exit code, never an uncaught exception."""
    out = tmp_path_factory.mktemp("boundary") / "ckpt"

    @given(_boundary_argv(ds, out))
    @settings(max_examples=40, deadline=None)
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv

    check()


def test_bad_checkpoint_or_manifest_exits_one_without_traceback(ds, ckpt, tmp_path, capsys):
    bad_ck = tmp_path / "ck"
    shutil.copytree(ckpt, bad_ck)
    (bad_ck / "checkpoint.json").write_text('{"format_version": 1, "model": {')
    code, out, err = run(capsys, "eval", "--data", str(ds), "--ckpt", str(bad_ck))
    assert code == 1 and out == "" and "not valid JSON" in err
    assert "Traceback" not in err
    bad_ds = tmp_path / "ds"
    shutil.copytree(ds, bad_ds)
    doc = json.loads((bad_ds / "manifest.json").read_text())
    doc["sentences"][0]["image_index"] = "zero"
    (bad_ds / "manifest.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--data", str(bad_ds), "--ckpt", str(ckpt))
    assert code == 1 and "image_index" in err and "Traceback" not in err


# Values a mutation puts in place of a JSON value: every JSON type, and
# numbers that are out of range but small, so no mutant can ask for a huge
# allocation.
RETYPED = ["x", "", 1.5, -1, 0, 2, None, True, False, [], [1, "a"], {}, {"k": 1}]


def _json_paths(value, prefix=()):
    """Every key path into a JSON document, parents before children."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _mutate(root, target, action):
    """Apply one mutation to a copied dataset/checkpoint tree."""
    path = root / target
    kind, arg = action
    if kind == "truncate":
        raw = path.read_bytes()
        path.write_bytes(raw[:int(len(raw) * arg)])
        return
    doc = json.loads(path.read_text())
    *parents, last = arg[0]
    node = doc
    for key in parents:
        node = node[key]
    if kind == "delete":
        del node[last]
    else:
        node[last] = arg[1]
    path.write_text(json.dumps(doc))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mutated_inputs_exit_cleanly(ds, ckpt, tmp_path_factory):
    """Manifests and checkpoints with deleted keys, retyped values or
    truncated files end eval and train in 0, 1 or 2, never a traceback."""
    base = tmp_path_factory.mktemp("mutants")
    shutil.copytree(ds, base / "ds")
    shutil.copytree(ckpt, base / "ck")
    docs = {"ds/manifest.json": json.loads((ds / "manifest.json").read_text()),
            "ck/checkpoint.json": json.loads((ckpt / "checkpoint.json").read_text())}
    targets = {name: sorted(_json_paths(doc), key=str) for name, doc in docs.items()}
    tensor_files = ["ds/" + docs["ds/manifest.json"]["images"][0]["seg_map"],
                    "ds/" + docs["ds/manifest.json"]["sentences"][0]["word_feats"],
                    "ck/vsem.region_proj.3sht"]

    def json_mutation(name):
        return st.tuples(st.just(name), st.one_of(
            st.tuples(st.just("delete"), st.tuples(st.sampled_from(targets[name]))),
            st.tuples(st.just("retype"), st.tuples(st.sampled_from(targets[name]),
                                                   st.sampled_from(RETYPED)))))

    truncation = st.tuples(st.sampled_from(list(docs) + tensor_files),
                           st.tuples(st.just("truncate"), st.floats(0.0, 0.99)))
    mutation = st.one_of(json_mutation("ds/manifest.json"),
                         json_mutation("ck/checkpoint.json"), truncation)
    counter = iter(range(10**6))

    @given(mutation, st.sampled_from(["eval", "train"]))
    @settings(max_examples=60, deadline=None)
    def check(mut, command):
        root = base / ("m%d" % next(counter))
        shutil.copytree(base / "ds", root / "ds")
        shutil.copytree(base / "ck", root / "ck")
        _mutate(root, *mut)
        if command == "eval":
            argv = ["eval", "--data", str(root / "ds"), "--ckpt", str(root / "ck")]
        else:
            argv = ["train", "--data", str(root / "ds"), "--out", str(root / "out"),
                    "--epochs", "1", "--batch-size", "8"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (mut, argv, code)
        assert "Traceback" not in err.getvalue(), mut
        shutil.rmtree(root)

    check()
