"""Feature ingestion: binary tensor files, manifests, synthetic data.

Tensor file layout (all integers little-endian):

    bytes 0..3   magic "3SHT"
    byte  4      format version, currently 1
    byte  5      dtype code: 0 = float32, 1 = float64, 2 = uint16
    byte  6      ndim
    bytes 7..11  reserved, must be zero
    then         ndim x u64 dimension sizes
    then         payload, row-major

A dataset is a JSON manifest plus one tensor file per stored array.  The
synthetic generator plants a shared latent vector per image: every visual
feature and every caption word is a noisy linear image of that latent, so
retrieval is solvable by construction (see ``planted_maps``).
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DimConfig
from .errors import ConfigError, DataValidationError, FormatError

MAGIC = b"3SHT"
FORMAT_VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<u2")}
_KIND_TO_CODE = {("f", 4): 0, ("f", 8): 1, ("u", 2): 2}

_MAX_DIM = 1 << 40
_MAX_ELEMS = 1 << 48


def write_tensor(path, array: np.ndarray) -> None:
    """Write an array as a tensor file; dtype must be f32, f64 or u16."""
    array = np.asarray(array)
    key = (array.dtype.kind, array.dtype.itemsize)
    if key not in _KIND_TO_CODE:
        raise FormatError("unsupported dtype %r (use float32, float64 or uint16)"
                          % (array.dtype,))
    code = _KIND_TO_CODE[key]
    header = MAGIC + bytes([FORMAT_VERSION, code, array.ndim]) + b"\x00" * 5
    dims = b"".join(struct.pack("<Q", d) for d in array.shape)
    payload = array.astype(_CODE_TO_DTYPE[code], copy=False).tobytes()
    Path(path).write_bytes(header + dims + payload)


def write_atomic(path: Path, write, payload) -> None:
    """``write(tmp, payload)`` to a sibling temp file, then rename it onto
    ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp, payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file, validating every header field.  The file's size
    is checked against the header before anything is allocated; the payload
    is then read once, into the flat bytes of the array (0-size arrays too)."""
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12:
            raise FormatError("%s: header short (%d bytes)" % (path, len(head)))
        if head[:4] != MAGIC:
            raise FormatError("%s: bad magic %r" % (path, head[:4]))
        version, code, ndim = head[4], head[5], head[6]
        if version != FORMAT_VERSION:
            raise FormatError("%s: unsupported version %d" % (path, version))
        if code not in _CODE_TO_DTYPE:
            raise FormatError("%s: bad dtype code %d" % (path, code))
        if head[7:12] != b"\x00" * 5:
            raise FormatError("%s: reserved bytes not zero" % (path,))
        if ndim > 8:
            raise FormatError("%s: ndim %d exceeds limit 8" % (path, ndim))
        raw_dims = f.read(8 * ndim)
        if len(raw_dims) < 8 * ndim:
            raise FormatError("%s: dims truncated" % (path,))
        shape = struct.unpack("<%dQ" % ndim, raw_dims)
        for d in shape:
            if d > _MAX_DIM:
                raise FormatError("%s: dim overflow (%d)" % (path, d))
        elems = math.prod(shape)
        if elems > _MAX_ELEMS:
            raise FormatError("%s: dim overflow (%d elements)" % (path, elems))
        dtype = _CODE_TO_DTYPE[code]
        expect = elems * dtype.itemsize
        got = os.fstat(f.fileno()).st_size - 12 - 8 * ndim
        if got == expect:
            arr = np.empty(shape, dtype)
            got = f.readinto(arr.reshape(-1).view(np.uint8))
    if got < expect:
        raise FormatError("%s: payload short (%d < %d bytes)" % (path, got, expect))
    if got > expect:
        raise FormatError("%s: payload long (%d > %d bytes)" % (path, got, expect))
    return arr


# ---------------------------------------------------------------------------
# dataset containers


@dataclass
class FeatureBundle:
    """Pre-extracted visual features for one image."""

    region_feats: np.ndarray   # (K, D_l) float64
    grid_feats: np.ndarray     # (grid_h, grid_w, D_l) float64
    seg_feat: np.ndarray       # (seg_h, seg_w, C_s) float64
    seg_map: np.ndarray        # (H_I, W_I) integer categories in [0, C_s)


@dataclass
class TextFeatureSet:
    """Per-sentence word features and their image assignment."""

    word_feats: list            # element i: (N_i, word_dim) float64
    image_index: np.ndarray     # (num_sentences,) int


@dataclass
class Manifest:
    dataset: str
    dims: DimConfig
    images: list                # [{"id", "region_feats", "grid_feats", "seg_feat", "seg_map"}]
    sentences: list             # [{"id", "image_index", "word_feats"}]
    seed: int | None = None

    def to_json(self) -> str:
        doc = {
            "format_version": FORMAT_VERSION,
            "dataset": self.dataset,
            "num_images": len(self.images),
            "num_sentences": len(self.sentences),
            "dims": self.dims.to_dict(),
            "seed": self.seed,
            "images": self.images,
            "sentences": self.sentences,
        }
        return json.dumps(doc, indent=2) + "\n"


def read_json_object(path, what: str, keys) -> dict:
    """The JSON object in the UTF-8 file ``path``; FormatError naming ``what``
    unless it holds every key of ``keys`` and ``format_version`` equal to
    ``FORMAT_VERSION``."""
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError("%s %s is not valid UTF-8: %s" % (what, path, e)) from e
    except json.JSONDecodeError as e:
        raise FormatError("%s %s is not valid JSON: %s" % (what, path, e)) from e
    if not isinstance(doc, dict):
        raise FormatError("%s %s must be a JSON object, got %s"
                          % (what, path, type(doc).__name__))
    for key in ("format_version", *keys):
        if key not in doc:
            raise FormatError("%s %s is missing key %r" % (what, path, key))
    if doc["format_version"] != FORMAT_VERSION:
        raise FormatError("%s %s: format_version %r unsupported"
                          % (what, path, doc["format_version"]))
    return doc


def load_manifest(path) -> Manifest:
    doc = read_json_object(path, "manifest", ("dataset", "dims", "images", "sentences",
                                              "num_images", "num_sentences"))
    for key in ("images", "sentences"):
        if not isinstance(doc[key], list):
            raise FormatError("manifest %s must be a list, got %s"
                              % (key, type(doc[key]).__name__))
        if doc["num_" + key] != len(doc[key]):
            raise FormatError("manifest num_%s %r does not match its %d %s"
                              % (key, doc["num_" + key], len(doc[key]), key))
    return Manifest(dataset=doc["dataset"], dims=DimConfig.from_dict(doc["dims"]),
                    images=doc["images"], sentences=doc["sentences"],
                    seed=doc.get("seed"))


# manifest key of each stored image array -> its shape under a DimConfig
IMAGE_SHAPES = {"region_feats": lambda d: (d.K, d.D_l),
                "grid_feats": lambda d: (d.grid_h, d.grid_w, d.D_l),
                "seg_feat": lambda d: (d.seg_h, d.seg_w, d.C_s),
                "seg_map": lambda d: (d.H_I, d.W_I)}
IMAGE_KEYS = ("id", *IMAGE_SHAPES)
SENTENCE_KEYS = ("id", "image_index", "word_feats")


def load_dataset(manifest_path) -> tuple[list[FeatureBundle], TextFeatureSet, Manifest]:
    """Load and validate every tensor referenced by a manifest.

    Raises FormatError naming the record when it lacks one of
    ``IMAGE_KEYS`` / ``SENTENCE_KEYS`` (naming the key), names a tensor
    file with anything but a string, or gives a non-integer
    ``image_index``, and DataValidationError naming the offending item on
    any shape, finiteness or category-range violation.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    root = manifest_path.parent
    dims = manifest.dims
    dims.validate()

    def _load(rel, item_id, as_float=True):
        """The tensor file ``rel``, as float64 unless ``as_float`` is false."""
        if not isinstance(rel, str) or "\0" in rel:
            raise FormatError("%s: tensor file name must be a string, got %r"
                              % (item_id, rel))
        p = root / rel
        if not p.exists():
            raise DataValidationError("%s: missing tensor file %s" % (item_id, rel))
        arr = read_tensor(p)
        return arr.astype(np.float64) if as_float else arr

    def _require_keys(rec, kind, pos, keys):
        if not isinstance(rec, dict):
            raise FormatError("manifest %s %d is not an object" % (kind, pos))
        for key in keys:
            if key not in rec:
                raise FormatError("manifest %s %s is missing key %r"
                                  % (kind, rec.get("id", "#%d" % pos), key))

    bundles = []
    for pos, rec in enumerate(manifest.images):
        _require_keys(rec, "image", pos, IMAGE_KEYS)
        iid = rec["id"]
        arrs = {key: _load(rec[key], iid, key != "seg_map") for key in IMAGE_SHAPES}
        for key, shape_of in IMAGE_SHAPES.items():
            if arrs[key].shape != (shape := shape_of(dims)):
                raise DataValidationError("%s: %s shape %r, expected %r"
                                          % (iid, key, arrs[key].shape, shape))
        seg_map = arrs.pop("seg_map")
        if seg_map.dtype.kind not in "ui":
            raise DataValidationError("%s: seg_map must be integer, got %r"
                                      % (iid, seg_map.dtype))
        if seg_map.max(initial=0) >= dims.C_s:
            raise DataValidationError("%s: seg_map category %d outside [0, %d)"
                                      % (iid, int(seg_map.max()), dims.C_s))
        for key, arr in arrs.items():
            if not np.isfinite(arr).all():
                raise DataValidationError("%s: %s contains non-finite values" % (iid, key))
        bundles.append(FeatureBundle(**arrs, seg_map=seg_map))

    word_feats, image_index = [], []
    for pos, rec in enumerate(manifest.sentences):
        _require_keys(rec, "sentence", pos, SENTENCE_KEYS)
        sid = rec["id"]
        idx = rec["image_index"]
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise FormatError("manifest sentence %s: image_index must be an integer, "
                              "got %r" % (sid, idx))
        if not 0 <= idx < len(bundles):
            raise DataValidationError("%s: image_index %d outside [0, %d)"
                                      % (sid, idx, len(bundles)))
        words = _load(rec["word_feats"], sid)
        if words.ndim != 2 or words.shape[0] < 1 or words.shape[1] != dims.word_dim:
            raise DataValidationError("%s: word_feats shape %r, expected (N>=1, %d)"
                                      % (sid, words.shape, dims.word_dim))
        if not np.isfinite(words).all():
            raise DataValidationError("%s: word_feats contains non-finite values" % (sid,))
        word_feats.append(words)
        image_index.append(idx)
    texts = TextFeatureSet(word_feats, np.asarray(image_index, dtype=np.int64))
    return bundles, texts, manifest


# ---------------------------------------------------------------------------
# synthetic data with planted shared-latent structure


@dataclass
class PlantedMaps:
    """Fixed linear maps from the per-image latent to every feature family."""

    region: np.ndarray    # (K, D_l, LATENT_DIM)
    grid: np.ndarray      # (grid_h * grid_w, D_l, LATENT_DIM)
    seg: np.ndarray       # (seg_h * seg_w, C_s, LATENT_DIM)
    word: np.ndarray      # (max_words, word_dim, LATENT_DIM)


MAX_WORDS = 12
MIN_WORDS = 4
LATENT_DIM = 32


def planted_maps(dims: DimConfig, seed: int) -> PlantedMaps:
    """The deterministic generator maps; tests reuse them as an oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    scale = 1.0 / np.sqrt(LATENT_DIM)

    def draw(*shape):
        return scale * rng.standard_normal(shape)

    return PlantedMaps(
        region=draw(dims.K, dims.D_l, LATENT_DIM),
        grid=draw(dims.grid_h * dims.grid_w, dims.D_l, LATENT_DIM),
        seg=draw(dims.seg_h * dims.seg_w, dims.C_s, LATENT_DIM),
        word=draw(MAX_WORDS, dims.word_dim, LATENT_DIM),
    )


def synth_dataset(out_dir, n_images: int, captions_per_image: int, seed: int,
                  dims: DimConfig, noise: float = 0.05) -> Path:
    """Write a planted synthetic dataset; returns the manifest path.

    Every feature of image i is maps @ z_i plus iid noise; captions of
    image i are word-wise linear images of the same z_i.  The same seed
    always produces byte-identical files.  Any old ``manifest.json`` is
    removed first and the new one is written last, so an interrupted
    write leaves no manifest describing tensors it did not finish.
    """
    if n_images < 2:
        raise ConfigError("n_images must be >= 2, got %d" % (n_images,))
    if captions_per_image < 1:
        raise ConfigError("captions_per_image must be >= 1")
    if not (math.isfinite(noise) and noise >= 0):
        raise ConfigError("noise must be finite and non-negative, got %r" % (noise,))
    dims.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)

    maps = planted_maps(dims, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])

    image_recs, sentence_recs = [], []
    for i in range(n_images):
        iid = "img_%05d" % i
        z = rng.standard_normal(LATENT_DIM)

        regions = maps.region @ z + noise * rng.standard_normal((dims.K, dims.D_l))
        grid = (maps.grid @ z + noise * rng.standard_normal(
            (dims.grid_h * dims.grid_w, dims.D_l))).reshape(
                dims.grid_h, dims.grid_w, dims.D_l)
        seg_feat = (maps.seg @ z + noise * rng.standard_normal(
            (dims.seg_h * dims.seg_w, dims.C_s))).reshape(
                dims.seg_h, dims.seg_w, dims.C_s)
        # blockwise category layout: each pixel inherits the dominant
        # channel of the segmentation cell it falls in
        cell_r = np.arange(dims.H_I) * dims.seg_h // dims.H_I
        cell_c = np.arange(dims.W_I) * dims.seg_w // dims.W_I
        dominant = seg_feat.argmax(axis=2)
        seg_map = dominant[np.ix_(cell_r, cell_c)].astype(np.uint16)

        rec = {"id": iid,
               "region_feats": iid + ".regions.3sht",
               "grid_feats": iid + ".grid.3sht",
               "seg_feat": iid + ".segfeat.3sht",
               "seg_map": iid + ".segmap.3sht"}
        write_tensor(out_dir / rec["region_feats"], regions.astype(np.float32))
        write_tensor(out_dir / rec["grid_feats"], grid.astype(np.float32))
        write_tensor(out_dir / rec["seg_feat"], seg_feat.astype(np.float32))
        write_tensor(out_dir / rec["seg_map"], seg_map)
        image_recs.append(rec)

        for c in range(captions_per_image):
            sid = "sent_%05d_%d" % (i, c)
            n_words = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
            words = (maps.word[:n_words] @ z
                     + noise * rng.standard_normal((n_words, dims.word_dim)))
            srec = {"id": sid, "image_index": i, "word_feats": sid + ".words.3sht"}
            write_tensor(out_dir / srec["word_feats"], words.astype(np.float32))
            sentence_recs.append(srec)

    manifest = Manifest(dataset="synthetic", dims=dims, images=image_recs,
                        sentences=sentence_recs, seed=seed)
    write_atomic(manifest_path, Path.write_text, manifest.to_json())
    return manifest_path


def random_bundles(dims: DimConfig, n: int, seed: int) -> list[FeatureBundle]:
    """Unstructured random features, for benchmarks and gradient checks."""
    dims.validate()
    rng = np.random.default_rng(seed)

    def draw(key):
        shape = IMAGE_SHAPES[key](dims)
        if key == "seg_map":
            return rng.integers(0, dims.C_s, size=shape).astype(np.uint16)
        return rng.standard_normal(shape)

    return [FeatureBundle(**{key: draw(key) for key in IMAGE_SHAPES}) for _ in range(n)]


def random_texts(dims: DimConfig, n_images: int, captions_per_image: int,
                 seed: int) -> TextFeatureSet:
    """Unstructured random sentences aligned image-by-image."""
    rng = np.random.default_rng(seed)
    word_feats, image_index = [], []
    for i in range(n_images):
        for _ in range(captions_per_image):
            n_words = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
            word_feats.append(rng.standard_normal((n_words, dims.word_dim)))
            image_index.append(i)
    return TextFeatureSet(word_feats, np.asarray(image_index, dtype=np.int64))
