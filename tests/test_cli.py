"""End-to-end command-line behaviour, run in-process."""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sshnet import cli, config, featureio, model, retrieval
from sshnet.cli import build_parser, main
from sshnet.config import FULL_DIMS, SMALL_DIMS, SMALL_MODEL


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


@pytest.mark.parametrize("folds", ["0", "-2", "5", "2", None],
                         ids=["0", "-2", "non-dividing", "fold-below-10", "ensemble-8"])
def test_eval_rejects_nonpositive_folds(ds, ckpt, tmp_path, capsys, monkeypatch, folds):
    """A fold split recall@10 cannot rank exits 1 naming --folds, before
    anything is embedded; a fused pair of checkpoints without --folds names
    the image count of its one fold, the whole set."""
    def embedded(*args, **kwargs):
        raise AssertionError("embedded before the fold check")

    if folds is None:
        small = tmp_path / "ds8"
        run_json(capsys, "synth", "--out", str(small), "--images", "8", "--captions", "1")
        argv = ["eval", "--data", str(small), "--ckpt", str(ckpt), "--ckpt", str(ckpt)]
    else:
        argv = ["eval", "--data", str(ds), "--folds=" + folds]
    monkeypatch.setattr(model, "embed_dataset", embedded)
    code, _, err = run(capsys, *argv)
    if folds is None:
        assert code == 1 and "--folds" not in err
        assert "8 images" in err and "10 candidates" in err
        return
    assert code == 1 and "--folds" in err
    if folds not in ("0", "-2"):
        assert "images per fold" in err and "candidates" in err


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
    assert report == run_json(capsys, "eval", "--data", str(ds),
                              "--ckpt", str(out / "region"), "--ckpt", str(out / "grid"))


def test_single_mode_train_over_a_hybrid_checkpoint_drops_its_marker(ds, tmp_path, capsys):
    """A single-mode run into a hybrid checkpoint's directory removes
    ``hybrid.json``, so eval reads the new checkpoint, not the old members."""
    out = tmp_path / "ck"
    for mode in ("hybrid", "region"):
        run_json(capsys, "train", "--data", str(ds), "--out", str(out), "--mode", mode,
                 "--epochs", "1", "--batch-size", "8")
    assert not (out / "hybrid.json").exists()
    shutil.copytree(out, tmp_path / "alone", ignore=shutil.ignore_patterns("region", "grid"))
    report = run_json(capsys, "eval", "--data", str(ds), "--ckpt", str(out))
    assert report["mode"] == "region"
    assert report == run_json(capsys, "eval", "--data", str(ds), "--ckpt",
                              str(tmp_path / "alone"))


@pytest.mark.parametrize("first, second", [("hybrid", "region"), ("region", "hybrid")])
def test_train_removes_the_other_layout_and_only_its_files(ds, tmp_path, capsys,
                                                          first, second):
    """A single-mode run removes the member checkpoints of an earlier hybrid
    run in the same --out, and a hybrid run the earlier top-level
    checkpoint: each one's checkpoint.json and the tensor files it lists,
    and no other file."""
    out = tmp_path / "ck"
    run_json(capsys, "train", "--data", str(ds), "--out", str(out), "--mode", first,
             "--epochs", "1", "--batch-size", "8")
    stale = [out / "region", out / "grid"] if first == "hybrid" else [out]
    for d in stale:
        (d / "notes.txt").write_text("kept")
    run_json(capsys, "train", "--data", str(ds), "--out", str(out), "--mode", second,
             "--epochs", "1", "--batch-size", "8")
    for d in stale:
        assert sorted(f.name for f in d.iterdir() if f.is_file()) == (
            ["hybrid.json", "notes.txt"] if d == out else ["notes.txt"])
    report = run_json(capsys, "eval", "--data", str(ds), "--ckpt", str(out))
    assert report["mode"] == ("hybrid" if second == "hybrid" else "region")


@pytest.mark.parametrize("mode, stale", [("region", "region"), ("hybrid", ".")])
def test_train_replaces_an_unreadable_checkpoint_of_the_other_layout(ds, tmp_path, capsys,
                                                                    mode, stale):
    """An unreadable checkpoint.json of the other layout in --out goes
    alone: the run exits 0, prints its summary, and eval reads the new
    checkpoint."""
    out = tmp_path / "ck"
    (out / stale).mkdir(parents=True, exist_ok=True)
    (out / stale / "checkpoint.json").write_text("{not json")
    doc = run_json(capsys, "train", "--data", str(ds), "--out", str(out), "--mode", mode,
                   "--epochs", "1", "--batch-size", "8")
    assert doc["mode"] == mode and ("runs" if mode == "hybrid" else "final_loss") in doc
    assert not (out / stale / "checkpoint.json").exists()
    assert run_json(capsys, "eval", "--data", str(ds), "--ckpt", str(out))["mode"] == mode


def test_train_over_another_branch_set_leaves_only_its_own_tensors(ds, tmp_path, capsys):
    """A run into the --out of a run with more branches deletes the tensor
    files the older checkpoint.json lists, and no other file."""
    out = tmp_path / "ck"
    run_json(capsys, "train", "--data", str(ds), "--out", str(out), "--epochs", "1",
             "--batch-size", "8")
    assert (out / "embed.ss_fc_w_sem.3sht").exists()
    (out / "notes.txt").write_text("kept")
    run_json(capsys, "train", "--data", str(ds), "--out", str(out), "--epochs", "1",
             "--batch-size", "8", "--no-vsem")
    listed = json.loads((out / "checkpoint.json").read_text())["tensors"]
    assert sorted(f.name for f in out.iterdir()) == sorted(
        ["checkpoint.json", "notes.txt"] + [name + ".3sht" for name in listed])
    assert "embed.ss_fc_w_sem" not in listed


@pytest.mark.parametrize("layout, match", [
    ("per-group-gpo", "unknown keys: per_group_gpo"),
    ("whole-fc", "tensor list does not match model config"),
])
def test_checkpoint_layouts_no_longer_written_exit_one(ds, ckpt, tmp_path, capsys,
                                                        layout, match):
    """Checkpoints that stored the removed per-group pooling switch, or the
    semantic-spatial FC whole as embed.ss_fc_w, are refused."""
    old = tmp_path / "old"
    shutil.copytree(ckpt, old)
    doc = json.loads((old / "checkpoint.json").read_text())
    if layout == "per-group-gpo":
        doc["model"]["per_group_gpo"] = False
    else:
        blocks = ["embed.ss_fc_w_sem", "embed.ss_fc_w_spa"]
        featureio.write_tensor(old / "embed.ss_fc_w.3sht", np.concatenate(
            [featureio.read_tensor(old / (n + ".3sht")) for n in blocks], axis=1))
        doc["tensors"] = sorted(set(doc["tensors"]) - set(blocks) | {"embed.ss_fc_w"})
    (old / "checkpoint.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--data", str(ds), "--ckpt", str(old))
    assert code == 1 and out == "" and match in err and "Traceback" not in err


@pytest.fixture(scope="module")
def hybrid_ckpt(ds, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "hybrid"
    assert main(["train", "--data", str(ds), "--out", str(out), "--mode", "hybrid",
                 "--epochs", "1", "--batch-size", "8"]) == 0
    return out


def _ckpt_flags(*paths):
    """One ``--ckpt`` per path."""
    return [arg for path in paths for arg in ("--ckpt", str(path))]


@pytest.mark.parametrize("kind, flags, code", [
    ("single", ["--seed", "1"], 1), ("single", ["--seed", "0"], 1),
    ("single", ["--salience", "softmax"], 1), ("single", ["--attn-smooth", "0"], 1),
    ("single", ["--embed-dim", "8"], 1), ("single", ["--no-vsem"], 1),
    ("single", ["--no-vspm"], 1),
    ("hybrid", ["--mode", "grid"], 1), ("hybrid", ["--no-vspm", "--mode", "region"], 1),
    ("hybrid", [], 0), ("pair", ["--seed", "0"], 1), ("pair", [], 0),
], ids=["seed", "seed-0", "salience", "attn-smooth", "embed-dim", "no-vsem",
        "no-vspm", "hybrid-mode", "hybrid-two-flags", "hybrid-plain", "pair-seed",
        "pair-plain"])
def test_eval_rejects_flags_the_checkpoint_ignores(ds, ckpt, hybrid_ckpt, capsys,
                                                   monkeypatch, kind, flags, code):
    """With --ckpt, the checkpoint fixes the model, and a hybrid checkpoint
    or a pair of checkpoints each member's mode: a flag that would change
    neither exits 1 naming it, before anything is embedded."""
    def embedded(*args, **kwargs):
        raise AssertionError("embedded before the flag check")

    if code:
        monkeypatch.setattr(model, "embed_dataset", embedded)
    paths = {"single": [ckpt], "hybrid": [hybrid_ckpt], "pair": [ckpt, hybrid_ckpt / "grid"]}
    got, out, err = run(capsys, "eval", "--data", str(ds), *_ckpt_flags(*paths[kind]), *flags)
    assert got == code, err
    if code:
        assert out == "" and "cannot apply" in err
        assert all(f in err for f in flags if f.startswith("--"))
    else:
        assert json.loads(out)["mode"] == "hybrid"


@pytest.fixture(scope="module")
def full_ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "full"
    assert main(["synth", "--out", str(out), "--dims", "full", "--images", "10",
                 "--captions", "1"]) == 0
    return out


@pytest.mark.parametrize("kind", ["eval", "eval-hybrid", "ensemble-eval"])
def test_checkpoint_geometry_must_match_the_dataset(full_ds, ckpt, hybrid_ckpt, capsys,
                                                    monkeypatch, kind):
    """A small checkpoint on a full dataset exits 1 naming the checkpoint
    and both geometries, before anything is embedded."""
    def embedded(*args, **kwargs):
        raise AssertionError("embedded before the geometry check")

    path = hybrid_ckpt if kind == "eval-hybrid" else ckpt
    paths = [path] if kind != "ensemble-eval" else [ckpt, ckpt]   # a fused pair
    argv = ["eval", "--data", str(full_ds), *_ckpt_flags(*paths)]
    monkeypatch.setattr(model, "embed_dataset", embedded)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "", err
    assert str(path) in err and "Traceback" not in err
    assert str(SMALL_DIMS.to_dict()) in err and str(FULL_DIMS.to_dict()) in err


def _without(ds, dest, key):
    """A copy of the dataset ``ds`` with every image's ``key`` file deleted."""
    shutil.copytree(ds, dest)
    for rec in json.loads((dest / "manifest.json").read_text())["images"]:
        (dest / rec[key]).unlink()
    return dest


@pytest.mark.parametrize("mode, other", [("region", "grid"), ("grid", "region")])
def test_each_mode_reads_only_its_arrays(ds, tmp_path, capsys, mode, other):
    """With every image's other-mode array deleted, eval and train of a mode
    print what they print on the intact set; the other mode, and a hybrid
    run, exit 1 on the first missing file."""
    cut = _without(ds, tmp_path / "cut", featureio.MODE_ARRAYS[other])
    flags = ["--mode", mode, "--seed", "3"]

    def both(*argv):
        """``argv`` run on the intact set and on the cut one, timing dropped."""
        return [_untimed(run_json(capsys, *(a.format(data=d, out=tmp_path / ("ck-" + d.name))
                                            for a in argv))) for d in (ds, cut)]

    whole, part = both("eval", "--data", "{data}", *flags)
    assert whole == part and whole["mode"] == mode
    whole, part = both("train", "--data", "{data}", "--out", "{out}", "--epochs", "1",
                       "--batch-size", "8", *flags)
    assert whole.pop("out") != part.pop("out") and whole == part
    whole, part = both("eval", "--data", "{data}", "--ckpt", str(tmp_path / "ck-ds"))
    assert whole == part and whole["mode"] == mode
    for argv in (["eval", "--mode", other],
                 ["train", "--mode", "hybrid", "--out", str(tmp_path / "h")]):
        code, out, err = run(capsys, argv[0], "--data", str(cut), *argv[1:])
        assert code == 1 and out == "" and "missing tensor file" in err, err


def test_a_skipped_array_still_needs_a_file_name(ds, tmp_path, capsys):
    cut = _without(ds, tmp_path / "cut", "grid_feats")
    doc = json.loads((cut / "manifest.json").read_text())
    doc["images"][3]["grid_feats"] = 7
    (cut / "manifest.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--data", str(cut))
    assert code == 1 and out == "" and "Traceback" not in err
    assert "img_00003: tensor file name must be a string, got 7" in err


@pytest.fixture
def dataset_reads(monkeypatch):
    """The dataset tensor files ``featureio.read_tensor`` opens, by path."""
    reads, read = [], featureio.read_tensor
    monkeypatch.setattr(featureio, "read_tensor",
                        lambda path: reads.append(Path(path)) or read(path))
    return reads


def _bad_mode_ckpt(ckpt, dest, mode):
    """A copy of ``ckpt`` whose ``meta.mode`` is ``mode`` (absent for ...)."""
    shutil.copytree(ckpt, dest)
    doc = json.loads((dest / "checkpoint.json").read_text())
    del doc["meta"]["mode"]
    if mode is not ...:
        doc["meta"]["mode"] = mode
    (dest / "checkpoint.json").write_text(json.dumps(doc))
    return dest


def _recaptioned(ds, dest, keep):
    """A copy of the dataset ``ds`` holding only the sentence records ``keep``
    accepts."""
    shutil.copytree(ds, dest)
    doc = json.loads((dest / "manifest.json").read_text())
    doc["sentences"] = [rec for rec in doc["sentences"] if keep(rec)]
    doc["num_sentences"] = len(doc["sentences"])
    (dest / "manifest.json").write_text(json.dumps(doc))
    return dest


@pytest.fixture(scope="module")
def ds20(tmp_path_factory):
    """20 images, one caption each: two folds of 10."""
    out = tmp_path_factory.mktemp("cli") / "ds20"
    assert main(["synth", "--out", str(out), "--images", "20", "--captions", "1",
                 "--seed", "6"]) == 0
    return out


@pytest.mark.parametrize("kind", ["folds", "geometry", "geometry-hybrid",
                                  "geometry-ensemble", "mode", "mode-ensemble",
                                  "three-models", "hybrid-and-one", "mode-pair",
                                  "empty-fold", "few-captions", "few-captions-ensemble",
                                  "uncaptioned", "uncaptioned-hybrid", "out-is-a-file",
                                  "out-is-a-file-hybrid"])
def test_refusals_read_no_dataset_tensor(ds, ds20, full_ds, ckpt, hybrid_ckpt, tmp_path,
                                         capsys, dataset_reads, kind):
    """A refused fold split, a checkpoint of another geometry, a checkpoint
    of no known mode, more than two models, ``--mode`` on a fused pair, a
    fold without sentences, too few captions for recall@10, an image
    without a caption to train on and a ``--out`` that is a file each exit
    1 before any dataset tensor is read."""
    bad = _bad_mode_ckpt(ckpt, tmp_path / "bad", "hybrid") if "mode" in kind else None
    first_half = _recaptioned(ds20, tmp_path / "half", lambda rec: rec["image_index"] < 10)
    five = _recaptioned(ds, tmp_path / "five",          # the first five captions
                        lambda rec: rec["id"] < "sent_00002_1")
    no_last = _recaptioned(ds, tmp_path / "no-last", lambda rec: rec["image_index"] < 11)
    train_out = str(tmp_path / "out")
    out_file = tmp_path / "out-file"
    out_file.write_text("")
    data, argv, message = {
        "folds": (ds, ["eval", "--ckpt", str(ckpt), "--folds", "5"], "--folds"),
        "geometry": (full_ds, ["eval", "--ckpt", str(ckpt)], "geometry"),
        "geometry-hybrid": (full_ds, ["eval", "--ckpt", str(hybrid_ckpt)], "geometry"),
        "geometry-ensemble": (full_ds, ["eval", *_ckpt_flags(hybrid_ckpt / "grid", ckpt)],
                              "geometry"),
        "mode": (ds, ["eval", "--ckpt", str(bad)], "has mode"),
        "mode-ensemble": (ds, ["eval", *_ckpt_flags(ckpt, bad)], "has mode"),
        "three-models": (ds, ["eval", *_ckpt_flags(ckpt, ckpt, ckpt)], "--ckpt gives 3"),
        "hybrid-and-one": (ds, ["eval", *_ckpt_flags(hybrid_ckpt, ckpt)], "--ckpt gives 3"),
        "mode-pair": (ds, ["eval", *_ckpt_flags(ckpt, ckpt), "--mode", "grid"],
                      "--mode cannot apply"),
        "empty-fold": (first_half, ["eval", "--folds", "2"], "fold 1 has no sentences"),
        "few-captions": (five, ["eval", "--ckpt", str(ckpt)], "every k must lie in [1, 5]"),
        "few-captions-ensemble": (five, ["eval", *_ckpt_flags(ckpt, ckpt)],
                                  "every k must lie in [1, 5]"),
        "uncaptioned": (no_last, ["train", "--out", train_out],
                        "images without captions: [11]"),
        "uncaptioned-hybrid": (no_last, ["train", "--out", train_out, "--mode", "hybrid"],
                               "images without captions: [11]"),
        "out-is-a-file": (ds, ["train", "--out", str(out_file)], "File exists"),
        "out-is-a-file-hybrid": (ds, ["train", "--out", str(out_file), "--mode", "hybrid"],
                                 "File exists"),
    }[kind]
    code, out, err = run(capsys, argv[0], "--data", str(data), *argv[1:])
    assert code == 1 and out == "" and "Traceback" not in err, err
    assert message in err
    assert [p for p in dataset_reads if p.is_relative_to(data)] == []


@pytest.mark.parametrize("command", ["train", "eval", "ensemble-eval"])
def test_each_command_reads_the_manifest_once(ds, ckpt, tmp_path, capsys, monkeypatch,
                                              command):
    reads, read = [], featureio.read_json_object
    monkeypatch.setattr(featureio, "read_json_object",
                        lambda path, *args: reads.append(Path(path)) or read(path, *args))
    argv = {"train": ["train", "--out", str(tmp_path / "out"), "--epochs", "1",
                      "--batch-size", "8"],
            "eval": ["eval", *_ckpt_flags(ckpt)],
            "ensemble-eval": ["eval", *_ckpt_flags(ckpt, ckpt)]}[command]   # a fused pair
    run_json(capsys, *argv, "--data", str(ds))
    assert [p for p in reads if p.name == "manifest.json"] == [ds / "manifest.json"]


def test_eval_refuses_only_before_it_reads(tmp_path, monkeypatch):
    """Over layouts of 0-2 captions for each of 10-20 images and fold counts,
    eval prints recalls exactly when every fold holds a whole number of at
    least 10 images and at least 10 sentences, and otherwise exits 1 having
    read no dataset tensor."""
    assert main(["synth", "--out", str(tmp_path), "--images", "20", "--captions", "2",
                 "--seed", "8"]) == 0
    base = json.loads((tmp_path / "manifest.json").read_text())
    reads, read = [], featureio.read_tensor
    monkeypatch.setattr(featureio, "read_tensor", lambda path: reads.append(path) or read(path))
    counter = iter(range(10**6))

    @given(st.lists(st.integers(0, 2), min_size=10, max_size=20), st.integers(1, 4))
    @example([1] * 20, 2)                  # two folds of 10 captioned images
    @example([1] * 10 + [0] * 10, 2)       # the second fold has no sentences
    @settings(max_examples=30, deadline=None)
    def check(captions, folds):
        n = len(captions)
        doc = dict(base, images=base["images"][:n], num_images=n, sentences=[
            rec for rec in base["sentences"]    # ids end in the caption number
            if rec["image_index"] < n and int(rec["id"][-1]) < captions[rec["image_index"]]])
        doc["num_sentences"] = len(doc["sentences"])
        path = tmp_path / ("m%d.json" % next(counter))
        path.write_text(json.dumps(doc))
        size = n // folds
        ok = n % folds == 0 and min(size, *(sum(captions[lo:lo + size])
                                            for lo in range(0, n, size))) >= 10
        reads.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--data", str(path), "--folds=%d" % folds])
        if ok:
            assert code == 0 and "rsum" in json.loads(out.getvalue()), err.getvalue()
        else:
            assert code == 1 and reads == [] and out.getvalue() == "", err.getvalue()

    check()


@pytest.mark.parametrize("mode", ["hybrid", "", ["region"], 3, None, ...],
                         ids=["hybrid", "empty", "list", "int", "null", "absent"])
def test_checkpoint_mode_is_checked_when_read(ds, ckpt, tmp_path, capsys, mode):
    """A saved mode must be region or grid, and is region when absent; any
    other exits 1 naming the checkpoint and the value, whatever --mode asks."""
    bad = _bad_mode_ckpt(ckpt, tmp_path / "ck", mode)
    for extra in ([], ["--mode", "grid"]):
        code, out, err = run(capsys, "eval", "--data", str(ds), "--ckpt", str(bad), *extra)
        if mode is ...:
            assert code == 0 and json.loads(out)["mode"] == (extra[1] if extra else "region")
        else:
            assert code == 1 and out == "" and "Traceback" not in err
            assert "checkpoint %s has mode %r" % (bad, mode) in err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_dataset_geometry_without_a_preset_exits_one(tmp_path, capsys, command):
    odd = replace(SMALL_DIMS, K=5)
    featureio.synth_dataset(tmp_path / "odd", 10, 1, 0, odd)
    extra = ["--out", str(tmp_path / "ck")] if command == "train" else []
    code, out, err = run(capsys, command, "--data", str(tmp_path / "odd"), *extra)
    assert code == 1 and out == "" and "Traceback" not in err
    assert all(str(d.to_dict()) in err for d in (odd, SMALL_DIMS, FULL_DIMS))
    assert "small preset" in err and "full preset" in err


def test_a_preset_added_to_the_table_reaches_every_command(tmp_path, capsys, monkeypatch):
    """config.PRESETS is the one list of presets: a third geometry put in it
    is a --dims choice of synth, and train and untrained eval find its model
    by the dataset's geometry; a geometry of no preset names all three."""
    tiny_dims, tiny_model = replace(SMALL_DIMS, K=5, D_l=32), replace(SMALL_MODEL, embed_dim=32)
    monkeypatch.setitem(config.PRESETS, "tiny", (tiny_dims, tiny_model))
    data = str(tmp_path / "tiny")
    doc = run_json(capsys, "synth", "--out", data, "--dims", "tiny", "--images", "10",
                   "--captions", "1")
    assert doc["dims"] == tiny_dims.to_dict()
    doc = run_json(capsys, "train", "--data", data, "--out", str(tmp_path / "ck"),
                   "--epochs", "1", "--batch-size", "8")
    assert doc["model"] == tiny_model.to_dict()
    assert run_json(capsys, "eval", "--data", data)["mode"] == "region"
    featureio.synth_dataset(tmp_path / "odd", 10, 1, 0, replace(tiny_dims, K=4))
    code, out, err = run(capsys, "eval", "--data", str(tmp_path / "odd"))
    assert code == 1 and out == ""
    assert err.index("small preset") < err.index("full preset") < err.index("tiny preset")


def test_ensemble_eval_self_pair_matches_single(ds, ckpt, capsys):
    single = run_json(capsys, "eval", "--data", str(ds), "--ckpt", str(ckpt))
    double = run_json(capsys, "eval", "--data", str(ds), *_ckpt_flags(ckpt, ckpt))
    assert double["i2s"] == single["i2s"] and double["s2i"] == single["s2i"]
    assert double["mode"] == "hybrid"


def test_bench_small_quick(capsys):
    doc = run_json(capsys, "bench", "--dims", "small", "--images", "64",
                   "--queries", "120", "--trials", "1", "--top-k", "5")
    assert doc["precomputed"]["kpps"] > 0
    assert doc["recompute"]["kpps"] > 0
    assert doc["speedup"] == pytest.approx(
        doc["precomputed"]["kpps"] / doc["recompute"]["kpps"])


BENCH_SMALL = ("bench", "--dims", "small", "--images", "16", "--queries", "8",
               "--trials", "1")


@pytest.mark.parametrize("arg, match", [
    ("--queries=0", "--queries"),
    ("--images=0", "--images"),
    ("--trials=0", "trials"),
    ("--top-k=0", "top_k"),
    ("--top-k=-3", "top_k"),
], ids=["queries-0", "images-0", "trials-0", "top-k-0", "top-k-negative"])
def test_bench_rejects_empty_or_meaningless_counts(capsys, arg, match):
    code, out, err = run(capsys, *BENCH_SMALL, arg)
    assert code == 1 and match in err and out == ""


@pytest.mark.filterwarnings("ignore::sshnet.errors.BenchmarkWarning")
def test_bench_pool_applies_to_recompute_only(capsys, monkeypatch):
    """Recompute cycles through a pool of 32 random images and times the
    first 100 queries; --mode precomputed draws no pool."""
    sizes = []
    draw = featureio.random_bundles
    monkeypatch.setattr(featureio, "random_bundles",
                        lambda dims, n, seed: sizes.append(n) or draw(dims, n, seed))
    base = ["bench", "--dims", "small", "--images", "16", "--trials", "1"]
    run_json(capsys, *base, "--queries", "8", "--mode", "precomputed")
    assert sizes == []
    doc = run_json(capsys, *base, "--queries", "120", "--mode", "recompute")
    assert sizes == [32] and doc["recompute"]["n_queries"] == 100
    doc = run_json(capsys, *base, "--queries", "8", "--mode", "recompute")
    assert sizes == [32, 32] and doc["recompute"]["n_queries"] == 8


def test_gradcheck_sampled_passes(capsys):
    doc = run_json(capsys, "gradcheck", "--sample", "3", "--seed", "2")
    assert doc["passed"] is True
    assert doc["max_rel_err"] < 1e-4


def test_gradcheck_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "gradcheck", "--sample", "2",
                       "--tol", "1e-13")
    assert code == 2
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("args,match", [
    (("--sample", "0"), "sample"),
    (("--sample", "-3"), "sample"),
    (("--tol", "nan"), "tol"),
    (("--tol", "-1"), "tol"),
    (("--tol", "0"), "tol"),
    (("--batch", "0"), "batch"),
    (("--batch", "1"), "batch"),
    (("--embed-dim", "0"), "embed_dim"),
    (("--dims", "small", "--embed-dim", "0"), "embed_dim"),
], ids=["sample-0", "sample-neg", "tol-nan", "tol-neg", "tol-0", "batch-0",
        "batch-1", "embed-dim-0", "small-embed-dim-0"])
def test_gradcheck_rejects_bad_input(capsys, args, match):
    code, out, err = run(capsys, "gradcheck", "--sample", "1", *args)
    assert code == 1 and out == ""
    assert match in err and "Traceback" not in err


def test_gradcheck_embed_dim_applies_to_default_dims(capsys):
    doc = run_json(capsys, "gradcheck", "--sample", "1", "--embed-dim", "8")
    assert doc["passed"] is True
    base = run_json(capsys, "gradcheck", "--sample", "1")
    assert doc["n_params"] < base["n_params"]


def test_gradcheck_embed_dim_is_the_model_flag_of_the_table(capsys, monkeypatch):
    """gradcheck registers --embed-dim from cli.MODEL_FLAGS, so a change to
    the table's entry reaches its parser."""
    field, keywords = cli.MODEL_FLAGS["--embed-dim"]
    monkeypatch.setitem(cli.MODEL_FLAGS, "--embed-dim", (field, {**keywords, "choices": [8]}))
    code, out, err = run(capsys, "gradcheck", "--sample", "1", "--embed-dim", "12")
    assert code == 1 and out == "" and "invalid choice: 12" in err


def test_selfcheck(capsys):
    doc = run_json(capsys, "selfcheck")
    assert doc["passed"] is True
    assert all(v["ok"] for v in doc["checks"].values())


def test_bad_usage_exits_one(ds, capsys, tmp_path):
    assert run(capsys, "train", "--data", str(ds))[0] == 1      # missing --out
    assert run(capsys, "no-such-command")[0] == 1
    code, _, err = run(capsys, "ensemble-eval", "--data", str(ds))   # eval fuses two --ckpt
    assert code == 1 and "invalid choice: 'ensemble-eval'" in err
    assert run(capsys, "synth", "--out", str(tmp_path / "x"),
               "--images", "4", "--wat")[0] == 1
    code, _, err = run(capsys, "eval", "--data", str(tmp_path / "missing"))
    assert code == 1 and err


def test_validation_error_exits_one(ds, tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", str(ds), "--out",
                       str(tmp_path / "c"), "--epochs", "0")
    assert code == 1 and "epochs" in err


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_synth_rejects_bad_noise(tmp_path, capsys, noise):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "x"),
                       "--images", "4", "--noise", noise)
    assert code == 1 and "noise" in err and "Traceback" not in err
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "train", "--help")[0] == 0


def _seeded_commands(ds, out):
    """A tiny run of every subcommand that takes --seed."""
    return [["synth", "--out", str(out) + "-synth", "--images", "4", "--captions", "1"],
            ["train", "--data", str(ds), "--out", str(out), "--epochs", "1",
             "--batch-size", "8"],
            ["eval", "--data", str(ds)], list(BENCH_SMALL),
            ["gradcheck", "--sample", "1"], ["selfcheck"]]


@pytest.mark.parametrize("index", range(6), ids=["synth", "train", "eval", "bench",
                                                 "gradcheck", "selfcheck"])
def test_negative_seed_is_a_usage_error(ds, tmp_path, capsys, index):
    argv = _seeded_commands(ds, tmp_path / "out")[index] + ["--seed=-1"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "--seed" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--dims", "small"), ("eval", "--dims", "small")])
def test_flags_that_cannot_change_a_result_are_unknown(ds, tmp_path, capsys, command, flag,
                                                       value):
    """Geometry comes from the manifest."""
    argv = {"train": ["--out", str(tmp_path / "c")]}.get(command, [])
    code, out, err = run(capsys, command, "--data", str(ds), *argv, flag, value)
    assert code == 1 and out == "" and "unrecognized arguments: " + flag in err


BENCH_COUNTS = ("--queries", "--images", "--trials", "--top-k")


def _boundary_argv(ds, out):
    bench = st.tuples(*[st.integers(-3, 12) for _ in BENCH_COUNTS]).map(
        lambda vals: ["bench", "--dims", "small"]
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
    seeds = st.tuples(st.sampled_from(_seeded_commands(ds, out)),
                      st.integers(-3, 2**64)).map(lambda cs: cs[0] + ["--seed=%d" % cs[1]])
    return st.one_of(bench, folds, smooth, train_floats, seeds)


@pytest.mark.filterwarnings("ignore::sshnet.errors.BenchmarkWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_values_exit_cleanly(ds, tmp_path_factory):
    """Counts, folds, smoothing, optimiser floats and seeds at and past
    their limits end in a documented exit code, never an uncaught
    exception; a negative seed is a usage error."""
    out = tmp_path_factory.mktemp("boundary") / "ckpt"

    @given(_boundary_argv(ds, out))
    @example(["train", "--data", str(ds), "--out", str(out), "--epochs", "1",
              "--batch-size", "8", "--lr=1e300"])   # overflows: exit 2, no warning
    @settings(max_examples=40, deadline=None)
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if any(arg.startswith("--seed=-") for arg in argv):
            assert code == 1, argv

    check()


def test_a_refused_run_prints_only_its_error_line(tmp_path):
    """A run whose arithmetic overflows is refused by its typed non-finite
    check: exit 2, and stderr is the one error line, no numpy warning."""
    assert main(["synth", "--out", str(tmp_path / "ds"), "--images", "12",
                 "--seed", "1"]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    got = subprocess.run([sys.executable, "-m", "sshnet.cli", "train", "--data",
                          str(tmp_path / "ds"), "--out", str(tmp_path / "ck"), "--lr=1e300",
                          "--epochs", "2", "--batch-size", "8"],
                         capture_output=True, text=True, env=env)
    assert got.returncode == 2 and got.stdout == ""
    assert got.stderr == "error: non-finite gradient in vsem.seg_fc_w\n"


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


def test_eval_refuses_a_checkpoint_it_cannot_load(ds, ckpt, tmp_path, capsys):
    """A directory without checkpoint.json, and a checkpoint tensor of
    another shape than its config gives, each exit 1 with one error line."""
    empty, reshaped = tmp_path / "empty", tmp_path / "reshaped"
    empty.mkdir()
    shutil.copytree(ckpt, reshaped)
    expected = featureio.read_tensor(ckpt / "embed.img_proj.3sht").shape
    featureio.write_tensor(reshaped / "embed.img_proj.3sht", np.zeros((3, 3)))
    for path, line in ((empty, "no checkpoint.json under %s" % empty),
                       (reshaped, "checkpoint tensor embed.img_proj has shape (3, 3), "
                                  "expected %r" % (expected,))):
        code, out, err = run(capsys, "eval", "--data", str(ds), "--ckpt", str(path))
        assert (code, out, err) == (1, "", "error: %s\n" % line)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


# ---------------------------------------------------------------------------
# every flag changes a result or is refused

# Flags whose values reach only timed work: the test cannot see them.
TIMING_ONLY = {
    ("bench", "--top-k"): "the size of each query's timed top-k selection, which is not "
                          "printed",
    ("bench", "--seed"): "draws the random table, queries and pool that are timed",
}
TIMING_FIELDS = {"elapsed_s", "kpps", "trial_kpps", "speedup"}

SYNTH = ["synth", "--out", "{out}", "--images", "4", "--captions", "1"]
TRAIN = ["train", "--data", "{data}", "--out", "{out}", "--epochs", "1",
         "--batch-size", "8"]
EVAL = ["eval", "--data", "{data}"]
EVAL_CKPT = EVAL + ["--ckpt", "{ckpt}"]
EVAL_HYBRID = EVAL + ["--ckpt", "{hybrid}"]
EVAL_PAIR = EVAL_CKPT + ["--ckpt", "{hybrid}/grid"]
MODEL_FLAGS = {"--salience": ["softmax"], "--attn-smooth": ["1"], "--embed-dim": ["8"],
               "--no-vsem": [], "--no-vspm": []}
GRADCHECK = ["gradcheck", "--sample", "1"]

# Flags of an eval of a fused checkpoint pair, labelled "ensemble-eval" as
# in the tests above; eval takes them, so the parser lists them under "eval".
PAIR_FLAGS = [("ensemble-eval", "--pretty")]

# (command, flag) -> [(base argv, what the other run adds to it)]
FLAG_CASES = {
    **{("synth", flag): [(SYNTH, [flag, value])] for flag, value in (
        ("--seed", "1"), ("--images", "5"), ("--captions", "2"), ("--dims", "full"),
        ("--noise", "0.5"))},
    **{("train", flag): [(TRAIN, [flag, value])] for flag, value in (
        ("--seed", "1"), ("--mode", "grid"), ("--epochs", "2"), ("--batch-size", "4"),
        ("--lr", "1e-3"), ("--margin", "0.1"), ("--weight-decay", "0"))},
    **{("train", flag): [(TRAIN, [flag, *value])] for flag, value in MODEL_FLAGS.items()},
    **{("eval", flag): [(EVAL, [flag, *value]), (EVAL_CKPT, [flag, *value])]
       for flag, value in MODEL_FLAGS.items()},
    ("eval", "--ckpt"): [(EVAL, ["--ckpt", "{ckpt}"]), (EVAL_CKPT, ["--ckpt", "{hybrid}"]),
                         (EVAL_CKPT, ["--ckpt", "{hybrid}/grid"])],
    **{("eval", flag): [(base, [flag, value])
                        for base in (EVAL, EVAL_CKPT, EVAL_HYBRID, EVAL_PAIR)]
       for flag, value in (("--mode", "grid"), ("--folds", "2"), ("--seed", "1"))},
    ("eval", "--pretty"): [(base, ["--pretty"]) for base in (EVAL, EVAL_HYBRID)],
    **{case: [(EVAL_PAIR, ["--pretty"])] for case in PAIR_FLAGS},
    **{("bench", flag): [(list(BENCH_SMALL), [flag, value])] for flag, value in (
        ("--mode", "recompute"), ("--dims", "full"), ("--images", "17"),
        ("--queries", "9"), ("--trials", "2"))},
    **{("gradcheck", flag): [(GRADCHECK, [flag, value])] for flag, value in (
        ("--dims", "small"), ("--batch", "3"), ("--eps", "1e-6"), ("--tol", "1e-13"),
        ("--sample", "2"), ("--embed-dim", "8"), ("--seed", "1"))},
    ("selfcheck", "--seed"): [(["selfcheck"], ["--seed", "1"])],
}


def _parser_actions():
    """(command, action) for every optional flag of every subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action) for name, sp in sub.choices.items()
            for action in sp._actions if action.option_strings and not action.required
            and not isinstance(action, argparse._HelpAction)]


def _parser_flags():
    """(command, flag) for every optional flag of every subcommand."""
    return [(name, action.option_strings[0]) for name, action in _parser_actions()]


def _untimed(doc):
    if isinstance(doc, dict):
        return {k: _untimed(v) for k, v in doc.items() if k not in TIMING_FIELDS}
    return [_untimed(v) for v in doc] if isinstance(doc, list) else doc


@pytest.fixture(scope="module")
def flag_env(tmp_path_factory):
    """A 20-image set (two folds of 10), a checkpoint and a hybrid
    checkpoint of it, an --out path, and the outcomes of base runs."""
    root = tmp_path_factory.mktemp("flags")
    env = {"data": str(root / "data"), "ckpt": str(root / "ckpt"),
           "hybrid": str(root / "hybrid"), "out": str(root / "out")}
    assert main(["synth", "--out", env["data"], "--images", "20", "--captions", "1",
                 "--seed", "6"]) == 0
    for key, mode in (("ckpt", "region"), ("hybrid", "hybrid")):
        assert main(["train", "--data", env["data"], "--out", env[key], "--mode", mode,
                     "--epochs", "1", "--batch-size", "8"]) == 0
    return env, {}


def test_eval_averages_a_hybrid_checkpoint_over_folds(flag_env, capsys):
    """eval --folds on a hybrid checkpoint, or on its two members given as
    two --ckpt, averages the fused recalls over the folds: retrieval.report
    over the two members' tables."""
    env, _ = flag_env
    doc = run_json(capsys, "eval", "--data", env["data"], "--ckpt", env["hybrid"],
                   "--folds", "2")
    assert doc["mode"] == "hybrid" and doc["extra"] == {"folds": 2}
    members = [Path(env["hybrid"]) / sub for sub in ("region", "grid")]
    assert doc == run_json(capsys, "eval", "--data", env["data"], "--folds", "2",
                           *_ckpt_flags(*members))
    bundles, texts, _ = featureio.load_dataset(Path(env["data"]) / "manifest.json")
    tables = []
    for member in members:
        params, cfg, dims, _ = model.load_checkpoint(member)
        table = model.embed_dataset(bundles, texts, params, cfg, dims, mode=member.name)
        tables.append((table.image_embs, table.text_embs))
    assert doc == retrieval.report(tables, table.image_index, "hybrid", 2).to_dict()


def test_eval_and_ensemble_eval_form_no_similarity_matrix(flag_env, capsys, monkeypatch):
    """eval (plain, --folds 2, hybrid, a pair of checkpoints) ranks straight from
    the embedding tables: with ``similarity_matrix`` refusing every call,
    each prints the recalls of the matrix wrappers over the whole matrices."""
    env, _ = flag_env
    bundles, texts, _ = featureio.load_dataset(Path(env["data"]) / "manifest.json")

    def whole(ckpt, mode):
        params, cfg, dims, _ = model.load_checkpoint(ckpt)
        table = model.embed_dataset(bundles, texts, params, cfg, dims, mode=mode)
        return retrieval.similarity_matrix(table.image_embs, table.text_embs)

    idx = np.asarray(texts.image_index)
    sim = whole(env["ckpt"], "region")
    members = [Path(env["hybrid"]) / sub for sub in ("region", "grid")]
    pair = [whole(member, member.name) for member in members]
    want = [(("eval", "--ckpt", env["ckpt"]), retrieval.evaluate(sim, idx)),
            (("eval", "--ckpt", env["ckpt"], "--folds", "2"),
             retrieval.fivefold_eval(sim, idx, folds=2)),
            (("eval", "--ckpt", env["hybrid"]), retrieval.ensemble_eval(*pair, idx)),
            (("eval", *_ckpt_flags(*members)), retrieval.ensemble_eval(*pair, idx))]

    def refuse(*_):
        raise AssertionError("a command formed a whole similarity matrix")

    monkeypatch.setattr(retrieval, "similarity_matrix", refuse)
    for argv, report in want:
        assert run_json(capsys, *argv, "--data", env["data"]) == report.to_dict()


def test_eval_refuses_embeddings_whose_scores_overflow(flag_env, capsys, monkeypatch):
    """Finite embeddings whose products overflow exit 1 with the finiteness
    error, as the whole similarity matrix of them does."""
    env, _ = flag_env
    embed = model.embed_dataset

    def huge(*args, **kwargs):
        table = embed(*args, **kwargs)
        return replace(table, image_embs=table.image_embs * 1e200,
                       text_embs=table.text_embs * 1e200)

    monkeypatch.setattr(model, "embed_dataset", huge)
    code, out, err = run(capsys, "eval", "--data", env["data"], "--ckpt", env["ckpt"])
    assert (code, out) == (1, "") and "must be finite" in err


def _outcome(capsys, env, argv):
    """Exit code, stdout without timing, stderr and the bytes under --out."""
    out = Path(env["out"])
    shutil.rmtree(out, ignore_errors=True)
    code, stdout, err = run(capsys, *[arg.format(**env) for arg in argv])
    try:
        stdout = _untimed(json.loads(stdout))
    except ValueError:
        pass                                   # a --pretty table
    return code, stdout, err, dir_digest(out) if out.exists() else None


def test_parser_choices_come_from_their_tables(monkeypatch):
    """--dims, --mode and --salience list config.PRESETS,
    featureio.MODE_ARRAYS and config.SALIENCE_MODES, entries added to a
    table included."""
    monkeypatch.setitem(config.PRESETS, "tiny", config.PRESETS["small"])
    monkeypatch.setitem(featureio.MODE_ARRAYS, "patch", "grid_feats")
    choices = {(name, action.option_strings[0]): list(action.choices)
               for name, action in _parser_actions() if action.choices}
    presets, modes = list(config.PRESETS), list(featureio.MODE_ARRAYS)
    assert choices == {("synth", "--dims"): presets, ("bench", "--dims"): presets,
                       ("gradcheck", "--dims"): ["default", *presets],
                       ("train", "--mode"): [*modes, "hybrid"],
                       ("eval", "--mode"): ["auto", *modes],
                       ("bench", "--mode"): ["precomputed", "recompute", "both"],
                       ("train", "--salience"): list(config.SALIENCE_MODES),
                       ("eval", "--salience"): list(config.SALIENCE_MODES)}


def test_flag_cases_cover_the_parser():
    flags = set(_parser_flags())
    assert set(TIMING_ONLY) <= flags
    assert set(FLAG_CASES) - set(PAIR_FLAGS) <= flags, \
        "cases for flags the parser no longer has"
    assert {("eval", flag) for _, flag in PAIR_FLAGS} <= flags


@pytest.mark.filterwarnings("ignore::sshnet.errors.BenchmarkWarning")
@pytest.mark.parametrize("command, flag", [*(cf for cf in _parser_flags()
                                             if cf not in TIMING_ONLY), *PAIR_FLAGS],
                         ids=lambda v: v)
def test_every_flag_changes_the_result_or_is_refused(flag_env, capsys, command, flag):
    """Run once at the base value and once at another valid one: stdout
    (timing aside) or the files under --out differ, or the command exits 1
    naming the flag."""
    env, bases = flag_env
    assert (command, flag) in FLAG_CASES, "no case for %s %s" % (command, flag)
    for base, other in FLAG_CASES[command, flag]:
        if tuple(base) not in bases:
            bases[tuple(base)] = _outcome(capsys, env, base)
        code, stdout, err, files = bases[tuple(base)]
        assert code == 0, err
        got = _outcome(capsys, env, base + other)
        if got[0] == 1:
            assert flag in got[2], got[2]
        else:
            assert (got[1], got[3]) != (stdout, files), (base, other)
