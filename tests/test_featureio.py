"""Feature ingestion tests: file format, manifests, planted synthetic data."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshnet import featureio as fio
from sshnet.config import SMALL_DIMS
from sshnet.errors import ConfigError, DataValidationError, FormatError


# ---------------------------------------------------------------------------
# binary tensor files


def test_scalar_f32_payload_bytes(tmp_path):
    p = tmp_path / "t.3sht"
    fio.write_tensor(p, np.float32(1.0).reshape(()))
    raw = p.read_bytes()
    assert raw[:4] == b"3SHT"
    assert raw[4] == 1          # version
    assert raw[5] == 0          # f32
    assert raw[6] == 0          # ndim
    assert raw[7:12] == b"\x00" * 5
    assert raw[12:] == bytes([0x00, 0x00, 0x80, 0x3F])


def _owned_c_array(arr):
    """The reader returns the array it read into: writeable, C-ordered and
    owning its data, zero-size and 0-d arrays included."""
    return arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata


def test_roundtrip_examples(tmp_path):
    cases = [
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.arange(6, dtype=np.float32).reshape(1, 2, 3),
        np.array([[0, 5], [17, 132]], dtype=np.uint16),
        np.zeros((0, 4), dtype=np.float32),
        np.float64(-2.5).reshape(()),
        np.uint16(7).reshape(()),
        np.arange(12, dtype=np.float32).reshape(3, 4).T,
    ]
    for i, arr in enumerate(cases):
        p = tmp_path / ("c%d.3sht" % i)
        fio.write_tensor(p, arr)
        back = fio.read_tensor(p)
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()
        assert _owned_c_array(back), arr


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_roundtrip_fuzz(tmp_path_factory, seed, code, ndim):
    rng = np.random.default_rng(seed)
    shape = tuple(int(d) for d in rng.integers(0, 5, size=ndim))
    if code == 0:
        arr = rng.normal(size=shape).astype(np.float32)
    elif code == 1:
        arr = rng.normal(size=shape)
    else:
        arr = rng.integers(0, 2**16, size=shape).astype(np.uint16)
    p = tmp_path_factory.mktemp("fuzz") / "t.3sht"
    fio.write_tensor(p, arr)
    back = fio.read_tensor(p)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()
    assert _owned_c_array(back)


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError, match="dtype"):
        fio.write_tensor(tmp_path / "x.3sht", np.zeros(3, dtype=np.int32))


def _valid_file(tmp_path):
    p = tmp_path / "v.3sht"
    fio.write_tensor(p, np.arange(6, dtype=np.float32).reshape(2, 3))
    return p


def test_read_rejects_bad_magic(tmp_path):
    p = _valid_file(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        fio.read_tensor(p)


def test_read_rejects_bad_version(tmp_path):
    p = _valid_file(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        fio.read_tensor(p)


def test_read_rejects_bad_dtype_code(tmp_path):
    p = _valid_file(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[5] = 7
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dtype code"):
        fio.read_tensor(p)


def test_read_rejects_dim_overflow(tmp_path):
    p = _valid_file(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[12:20] = (2**50).to_bytes(8, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dim overflow"):
        fio.read_tensor(p)


def test_read_rejects_short_payload(tmp_path):
    p = _valid_file(tmp_path)
    p.write_bytes(p.read_bytes()[:-2])
    with pytest.raises(FormatError, match="payload short"):
        fio.read_tensor(p)


def test_read_rejects_long_payload(tmp_path):
    p = _valid_file(tmp_path)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="payload long"):
        fio.read_tensor(p)


def test_read_rejects_nonzero_reserved(tmp_path):
    p = _valid_file(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[9] = 1
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="reserved"):
        fio.read_tensor(p)


def test_read_rejects_header_short(tmp_path):
    p = tmp_path / "h.3sht"
    p.write_bytes(b"3SHT\x01")
    with pytest.raises(FormatError, match="header short"):
        fio.read_tensor(p)


def _header(code, dims):
    return b"3SHT" + bytes([1, code, len(dims)]) + b"\x00" * 5 + b"".join(
        d.to_bytes(8, "little") for d in dims)


@pytest.mark.parametrize("raw, match", [
    (_header(1, [1] * 9), "ndim 9 exceeds limit 8"),
    (_header(1, [2, 3])[:-1], "dims truncated"),
    (_header(1, [2**40] * 2), r"dim overflow \(1208925819614629174706176 elements\)"),
], ids=["ndim", "dims-truncated", "element-overflow"])
def test_read_rejects_bad_dims(tmp_path, raw, match):
    p = tmp_path / "d.3sht"
    p.write_bytes(raw)
    with pytest.raises(FormatError, match=match):
        fio.read_tensor(p)


def test_read_checks_size_before_allocating(tmp_path):
    """A header claiming 2**30 float64s (8 GiB) over a 16-byte payload is
    refused from the file's size, without allocating for the claim."""
    p = tmp_path / "liar.3sht"
    p.write_bytes(_header(1, [2**30]) + b"\x00" * 16)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"payload short \(16 < 8589934592 bytes\)"):
            fio.read_tensor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# synthetic datasets and manifests


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    fio.synth_dataset(out, n_images=8, captions_per_image=3, seed=11,
                      dims=SMALL_DIMS)
    return out


def test_synth_manifest_counts(synth_dir):
    bundles, texts, manifest = fio.load_dataset(synth_dir / "manifest.json")
    assert len(bundles) == 8
    assert len(texts.word_feats) == 24
    assert len(manifest.sentences) == 24
    assert manifest.seed == 11
    assert texts.image_index.tolist() == [i for i in range(8) for _ in range(3)]


def test_synth_shapes_and_ranges(synth_dir):
    bundles, texts, _ = fio.load_dataset(synth_dir / "manifest.json")
    d = SMALL_DIMS
    for b in bundles:
        assert b.region_feats.shape == (d.K, d.D_l)
        assert b.grid_feats.shape == (d.grid_h, d.grid_w, d.D_l)
        assert b.seg_feat.shape == (d.seg_h, d.seg_w, d.C_s)
        assert b.seg_map.shape == (d.H_I, d.W_I)
        assert b.seg_map.max() < d.C_s
    for words in texts.word_feats:
        assert fio.MIN_WORDS <= words.shape[0] <= fio.MAX_WORDS
        assert words.shape[1] == d.word_dim


@pytest.mark.parametrize("modes", [("region",), ("grid",), (), ("grid", "region")],
                         ids=["region", "grid", "none", "both"])
def test_load_reads_only_the_image_arrays_of_its_modes(synth_dir, monkeypatch, modes):
    """Each mode's image array is read only when asked for, and is None
    otherwise; every other array is the default load's."""
    whole, texts, _ = fio.load_dataset(synth_dir / "manifest.json")
    opened, read = [], fio.read_tensor
    monkeypatch.setattr(fio, "read_tensor", lambda path: opened.append(path) or read(path))
    part, part_texts, _ = fio.load_dataset(synth_dir / "manifest.json", modes)
    kept = {key for mode, key in fio.MODE_ARRAYS.items() if mode in modes}
    assert len(opened) == len(whole) * (2 + len(kept)) + len(texts.word_feats)
    for a, b in zip(whole, part):
        for key in fio.IMAGE_SHAPES:
            got = getattr(b, key)
            if key in fio.MODE_ARRAYS.values() and key not in kept:
                assert got is None
            else:
                assert got.dtype == getattr(a, key).dtype
                assert np.array_equal(got, getattr(a, key))
    assert all(np.array_equal(a, b) for a, b in zip(texts.word_feats, part_texts.word_feats))


def test_seg_map_consistent_with_seg_feat(synth_dir):
    """Blockwise layout: each pixel carries its cell's dominant channel."""
    bundles, _, _ = fio.load_dataset(synth_dir / "manifest.json")
    d = SMALL_DIMS
    for b in bundles:
        dominant = b.seg_feat.argmax(axis=2)
        for r in range(d.H_I):
            for c in range(d.W_I):
                assert b.seg_map[r, c] == dominant[r * d.seg_h // d.H_I,
                                                   c * d.seg_w // d.W_I]


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    fio.synth_dataset(a, 4, 2, seed=5, dims=SMALL_DIMS)
    fio.synth_dataset(b, 4, 2, seed=5, dims=SMALL_DIMS)
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    fio.synth_dataset(a, 4, 2, seed=5, dims=SMALL_DIMS)
    fio.synth_dataset(b, 4, 2, seed=6, dims=SMALL_DIMS)
    assert (a / "img_00000.regions.3sht").read_bytes() != \
           (b / "img_00000.regions.3sht").read_bytes()


def test_synth_rejects_bad_config(tmp_path):
    with pytest.raises(ConfigError):
        fio.synth_dataset(tmp_path, 1, 2, seed=0, dims=SMALL_DIMS)
    with pytest.raises(ConfigError):
        fio.synth_dataset(tmp_path, 4, 0, seed=0, dims=SMALL_DIMS)
    for noise in (-0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="noise"):
            fio.synth_dataset(tmp_path, 4, 1, seed=0, dims=SMALL_DIMS, noise=noise)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "over-existing"])
def test_interrupted_synth_leaves_no_manifest(tmp_path, monkeypatch, existing):
    if existing:
        fio.synth_dataset(tmp_path, 4, 2, seed=1, dims=SMALL_DIMS)
    calls = []
    real_write = fio.write_tensor

    def failing_write(path, array):
        calls.append(path)
        if len(calls) == 5:
            raise OSError("disk full")
        real_write(path, array)

    monkeypatch.setattr(fio, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        fio.synth_dataset(tmp_path, 4, 2, seed=2, dims=SMALL_DIMS)
    assert len(calls) == 5
    assert not (tmp_path / "manifest.json").exists()
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()
    path = fio.synth_dataset(tmp_path, 4, 2, seed=2, dims=SMALL_DIMS)
    bundles, texts, manifest = fio.load_dataset(path)
    assert manifest.seed == 2 and len(bundles) == 4 and len(texts.word_feats) == 8


def test_load_rejects_corrupt_shape(tmp_path):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    bad = np.zeros((SMALL_DIMS.K + 1, SMALL_DIMS.D_l), dtype=np.float32)
    fio.write_tensor(tmp_path / "img_00000.regions.3sht", bad)
    with pytest.raises(DataValidationError, match="img_00000.*region_feats"):
        fio.load_dataset(tmp_path / "manifest.json")


def test_load_rejects_out_of_range_category(tmp_path):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    seg = fio.read_tensor(tmp_path / "img_00001.segmap.3sht")
    seg[0, 0] = SMALL_DIMS.C_s
    fio.write_tensor(tmp_path / "img_00001.segmap.3sht", seg)
    with pytest.raises(DataValidationError, match="img_00001.*category"):
        fio.load_dataset(tmp_path / "manifest.json")


def test_load_rejects_nonfinite(tmp_path):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    arr = fio.read_tensor(tmp_path / "img_00000.grid.3sht")
    arr[0, 0, 0] = np.nan
    fio.write_tensor(tmp_path / "img_00000.grid.3sht", arr)
    with pytest.raises(DataValidationError, match="img_00000.*non-finite"):
        fio.load_dataset(tmp_path / "manifest.json")


def _with_nan(arr):
    arr = arr.copy()
    arr.flat[1] = np.nan
    return arr


# file stem -> how to spoil the array it holds; several stems spoil one record
RECORD_CASES = {
    "region-shape": ({"img_00000.regions": lambda a: np.zeros((7, 64), np.float32)},
                     "img_00000: region_feats shape (7, 64), expected (6, 64)"),
    "grid-shape": ({"img_00001.grid": lambda a: a[:, :, :63]},
                   "img_00001: grid_feats shape (4, 4, 63), expected (4, 4, 64)"),
    "seg-feat-shape": ({"img_00000.segfeat": lambda a: a[:, :, 0]},
                       "img_00000: seg_feat shape (4, 4), expected (4, 4, 16)"),
    "seg-map-shape": ({"img_00001.segmap": lambda a: a.T[:15]},
                      "img_00001: seg_map shape (15, 16), expected (16, 16)"),
    "seg-map-float32": ({"img_00000.segmap": lambda a: a.astype(np.float32)},
                        "img_00000: seg_map must be integer, got dtype('float32')"),
    "region-nan": ({"img_00001.regions": _with_nan},
                   "img_00001: region_feats contains non-finite values"),
    "seg-feat-nan": ({"img_00000.segfeat": _with_nan},
                     "img_00000: seg_feat contains non-finite values"),
    "words-width": ({"sent_00001_0.words": lambda a: np.zeros((5, 767), np.float32)},
                    "sent_00001_0: word_feats shape (5, 767), expected (N>=1, 768)"),
    "words-none": ({"sent_00000_0.words": lambda a: a[:0]},
                   "sent_00000_0: word_feats shape (0, 768), expected (N>=1, 768)"),
    "words-nan": ({"sent_00000_0.words": _with_nan},
                  "sent_00000_0: word_feats contains non-finite values"),
    # the checks run in this order: shapes, seg_map dtype, finiteness
    "shape-before-dtype": ({"img_00000.segmap": lambda a: a[:15].astype(np.float32),
                            "img_00000.grid": _with_nan},
                           "img_00000: seg_map shape (15, 16), expected (16, 16)"),
    "dtype-before-nan": ({"img_00000.segmap": lambda a: a.astype(np.float32),
                          "img_00000.regions": _with_nan},
                         "img_00000: seg_map must be integer, got dtype('float32')"),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_load_rejects_each_bad_record_with_its_message(tmp_path, case):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    spoil, message = RECORD_CASES[case]
    for stem, fn in spoil.items():
        path = tmp_path / (stem + ".3sht")
        fio.write_tensor(path, fn(fio.read_tensor(path)))
    with pytest.raises(DataValidationError) as err:
        fio.load_dataset(tmp_path / "manifest.json")
    assert str(err.value) == message


def test_load_rejects_missing_file(tmp_path):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    (tmp_path / "sent_00000_0.words.3sht").unlink()
    with pytest.raises(DataValidationError, match="sent_00000_0.*missing"):
        fio.load_dataset(tmp_path / "manifest.json")


def test_manifest_rejects_count_mismatch(tmp_path):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    text = (tmp_path / "manifest.json").read_text().replace(
        '"num_images": 2', '"num_images": 3')
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(FormatError, match="num_images"):
        fio.load_dataset(tmp_path / "manifest.json")


def test_manifest_rejects_unknown_dims_key(tmp_path):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["dims"]["depth"] = 3
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="unknown keys: depth"):
        fio.load_dataset(tmp_path / "manifest.json")


@pytest.mark.parametrize("value", ["6", 6.9, True, " 7 "])
def test_manifest_rejects_dims_value_that_is_not_an_int(tmp_path, value):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["dims"]["K"] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="dims.K must be int"):
        fio.load_dataset(tmp_path / "manifest.json")


# ---------------------------------------------------------------------------
# the planted structure is genuinely retrievable


def lstsq_latent(maps_stack: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Recover z from stacked linear observations by least squares."""
    a = maps_stack.reshape(-1, maps_stack.shape[-1])
    b = observed.reshape(-1)
    z, *_ = np.linalg.lstsq(a, b, rcond=None)
    return z


def test_planted_latent_recoverable_sentence_to_image(tmp_path):
    """Oracle linear retrieval: s2i R@1 >= 90 on a 16-image planted set."""
    n_images = 16
    fio.synth_dataset(tmp_path, n_images, 5, seed=29, dims=SMALL_DIMS)
    bundles, texts, manifest = fio.load_dataset(tmp_path / "manifest.json")
    maps = fio.planted_maps(SMALL_DIMS, manifest.seed)

    z_img = np.stack([lstsq_latent(maps["region_feats"], b.region_feats) for b in bundles])
    hits = 0
    for words, gt in zip(texts.word_feats, texts.image_index):
        z_txt = lstsq_latent(maps["word_feats"][: words.shape[0]], words)
        scores = z_img @ z_txt
        hits += int(np.argmax(scores) == gt)
    recall1 = 100.0 * hits / len(texts.word_feats)
    assert recall1 >= 90.0, recall1


@pytest.mark.parametrize("section, key", [
    ("images", k) for k in fio.IMAGE_KEYS] + [("sentences", k) for k in fio.SENTENCE_KEYS])
def test_load_rejects_record_missing_key(tmp_path, section, key):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    rec = doc[section][1]
    rid = rec["id"] if key != "id" else "#1"
    del rec[key]
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="%s is missing key '%s'" % (rid, key)):
        fio.load_dataset(tmp_path / "manifest.json")


@pytest.mark.parametrize("value", ["zero", "1", 1.5, 1.0, True, None, [1]],
                         ids=["str", "numeric-str", "float", "integral-float",
                              "bool", "null", "list"])
def test_load_rejects_non_integer_image_index(tmp_path, value):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["sentences"][1]["image_index"] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="sent_00001_0: image_index must be an integer"):
        fio.load_dataset(tmp_path / "manifest.json")


@pytest.mark.parametrize("section, value", [
    ("images", {"img": 1}), ("images", "img_00000"), ("images", None),
    ("sentences", {"s": 1}), ("sentences", 3), ("sentences", True),
])
def test_manifest_rejects_record_lists_that_are_not_lists(tmp_path, section, value):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc[section] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="manifest %s must be a list" % section):
        fio.load_dataset(tmp_path / "manifest.json")


@pytest.mark.parametrize("text", ["[]", "3", '"manifest"', "null"])
def test_manifest_rejects_document_that_is_not_an_object(tmp_path, text):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(FormatError, match="must be a JSON object"):
        fio.load_dataset(tmp_path / "manifest.json")


@pytest.mark.parametrize("section, key, value", [
    ("images", "seg_map", 7), ("images", "region_feats", ["a"]),
    ("sentences", "word_feats", None), ("sentences", "word_feats", "a\0b"),
])
def test_load_rejects_tensor_file_names_that_are_not_strings(tmp_path, section, key, value):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc[section][0][key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="tensor file name must be a string"):
        fio.load_dataset(tmp_path / "manifest.json")


@pytest.mark.parametrize("key, value, match", [
    ("format_version", None, "missing key 'format_version'"),
    ("format_version", 2, "format_version 2 unsupported"),
    ("format_version", "1", "format_version '1' unsupported"),
    ("format_version", True, "format_version True unsupported"),
    ("format_version", 1.0, "format_version 1.0 unsupported"),
    ("dataset", None, "missing key 'dataset'"),
    ("dims", {k: v for k, v in SMALL_DIMS.to_dict().items() if k != "word_dim"},
     "dims has missing keys: word_dim"),
], ids=["no-format-version", "format-version-2", "format-version-str",
        "format-version-bool", "format-version-float", "no-dataset", "dims-missing-key"])
def test_manifest_rejects_missing_key_or_unsupported_version(tmp_path, key, value, match):
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=match):
        fio.load_dataset(tmp_path / "manifest.json")


def test_manifest_rejects_invalid_utf8(tmp_path):
    (tmp_path / "manifest.json").write_bytes(b'{"dataset": "\xff"}')
    with pytest.raises(FormatError, match="UTF-8"):
        fio.load_dataset(tmp_path / "manifest.json")


@pytest.mark.parametrize("key, value", [("num_images", 2.0), ("num_sentences", 2.0),
                                        ("num_images", True), ("num_sentences", True)],
                         ids=["images-float", "sentences-float", "images-bool",
                              "sentences-bool"])
def test_manifest_counts_must_be_ints(tmp_path, key, value):
    """A count equal to its list's length but not an int (a float, or true
    over one record) is refused, as a format_version that is not an int is."""
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    section = key[len("num_"):]
    doc[section] = doc[section][:int(value)]
    doc[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="manifest %s must be the int %d" % (key, value)):
        fio.load_manifest(tmp_path / "manifest.json")


def test_every_record_is_checked_before_any_tensor_is_read(tmp_path, monkeypatch):
    """load_manifest checks every record and opens no tensor file, so a bad
    last sentence is refused before a corrupt first image is read."""
    fio.synth_dataset(tmp_path, 2, 1, seed=3, dims=SMALL_DIMS)
    (tmp_path / "img_00000.regions.3sht").write_bytes(b"junk")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["sentences"][-1]["image_index"] = 2
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    opened = []
    monkeypatch.setattr(fio, "read_tensor", opened.append)
    for load in (fio.load_manifest, fio.load_dataset):
        with pytest.raises(DataValidationError, match=r"sent_00001_0: image_index 2 outside"):
            load(tmp_path / "manifest.json")
    assert opened == []


def test_load_dataset_takes_a_parsed_manifest(synth_dir, monkeypatch):
    """A parsed manifest knows its directory and each sentence's image, and
    load_dataset reads its tensors without parsing it again."""
    manifest = fio.load_manifest(synth_dir / "manifest.json")
    assert manifest.root == synth_dir
    assert manifest.image_index.tolist() == [i for i in range(8) for _ in range(3)]
    whole, texts, _ = fio.load_dataset(synth_dir / "manifest.json")
    monkeypatch.setattr(fio, "read_json_object", lambda *args: pytest.fail("parsed again"))
    bundles, got_texts, got = fio.load_dataset(manifest)
    assert got is manifest
    assert np.array_equal(got_texts.image_index, texts.image_index)
    assert all(np.array_equal(a.seg_feat, b.seg_feat) for a, b in zip(whole, bundles))
