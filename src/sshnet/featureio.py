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
    """Pre-extracted visual features for one image, as stored."""

    region_feats: np.ndarray   # (K, D_l) float; None when not loaded (MODE_ARRAYS)
    grid_feats: np.ndarray     # (grid_h, grid_w, D_l) float; None when not loaded
    seg_feat: np.ndarray       # (seg_h, seg_w, C_s) float
    seg_map: np.ndarray        # (H_I, W_I) integer categories in [0, C_s)


@dataclass
class TextFeatureSet:
    """Per-sentence word features, as stored, and their image assignment."""

    word_feats: list            # element i: (N_i, word_dim) float
    image_index: np.ndarray     # (num_sentences,) int


@dataclass
class Manifest:
    dataset: str
    dims: DimConfig
    images: list                # [{"id", "region_feats", "grid_feats", "seg_feat", "seg_map"}]
    sentences: list             # [{"id", "image_index", "word_feats"}]
    seed: int | None = None
    root: Path | None = None    # the directory its tensor file names are under

    @property
    def image_index(self) -> np.ndarray:   # as TextFeatureSet.image_index
        return np.array([rec["image_index"] for rec in self.sentences], dtype=np.int64)

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
    unless it holds every key of ``keys`` and a ``format_version`` int (not
    bool) equal to ``FORMAT_VERSION``."""
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
    if type(doc["format_version"]) is not int or doc["format_version"] != FORMAT_VERSION:
        raise FormatError("%s %s: format_version %r unsupported"
                          % (what, path, doc["format_version"]))
    return doc


def load_manifest(path) -> Manifest:
    """The manifest at ``path``, every record checked and no tensor read:
    FormatError naming a record that lacks a key of ``IMAGE_KEYS`` /
    ``SENTENCE_KEYS``, names a tensor file with anything but a string or
    gives a non-integer ``image_index``; DataValidationError for an
    ``image_index`` outside [0, images)."""
    doc = read_json_object(path, "manifest", ("dataset", "dims", "images", "sentences",
                                              "num_images", "num_sentences"))
    for key in ("images", "sentences"):
        if not isinstance(doc[key], list):
            raise FormatError("manifest %s must be a list, got %s"
                              % (key, type(doc[key]).__name__))
        if type(doc["num_" + key]) is not int or doc["num_" + key] != len(doc[key]):
            raise FormatError("manifest num_%s must be the int %d, the number of its %s; "
                              "got %r" % (key, len(doc[key]), key, doc["num_" + key]))
    dims = DimConfig.from_dict(doc["dims"])
    for pos, rec in enumerate(doc["images"]):
        _check_record(rec, "image", pos, IMAGE_KEYS, IMAGE_SHAPES)
    for pos, rec in enumerate(doc["sentences"]):
        _check_record(rec, "sentence", pos, SENTENCE_KEYS, ("word_feats",))
        idx = rec["image_index"]
        if type(idx) is not int:
            raise FormatError("manifest sentence %s: image_index must be an integer, "
                              "got %r" % (rec["id"], idx))
        if not 0 <= idx < len(doc["images"]):
            raise DataValidationError("%s: image_index %d outside [0, %d)"
                                      % (rec["id"], idx, len(doc["images"])))
    return Manifest(dataset=doc["dataset"], dims=dims, images=doc["images"],
                    sentences=doc["sentences"], seed=doc.get("seed"), root=Path(path).parent)


# manifest key of each stored image array -> its shape under a DimConfig
IMAGE_SHAPES = {"region_feats": lambda d: (d.K, d.D_l),
                "grid_feats": lambda d: (d.grid_h, d.grid_w, d.D_l),
                "seg_feat": lambda d: (d.seg_h, d.seg_w, d.C_s),
                "seg_map": lambda d: (d.H_I, d.W_I)}
IMAGE_KEYS = ("id", *IMAGE_SHAPES)
SENTENCE_KEYS = ("id", "image_index", "word_feats")


MODE_ARRAYS = {"region": "region_feats", "grid": "grid_feats"}   # what each mode embeds


def _check_record(rec, kind, pos, keys, files):
    """FormatError unless record ``pos`` holds every key of ``keys`` and a
    string name for each tensor file of ``files``."""
    if not isinstance(rec, dict):
        raise FormatError("manifest %s %d is not an object" % (kind, pos))
    for key in keys:
        if key not in rec:
            raise FormatError("manifest %s %s is missing key %r"
                              % (kind, rec.get("id", "#%d" % pos), key))
    for key in files:
        if not isinstance(rec[key], str) or "\0" in rec[key]:
            raise FormatError("%s: tensor file name must be a string, got %r"
                              % (rec["id"], rec[key]))


def _load(root, rel, item_id):
    """The tensor file ``rel`` under ``root``, as stored."""
    if not (root / rel).exists():
        raise DataValidationError("%s: missing tensor file %s" % (item_id, rel))
    return read_tensor(root / rel)


def load_image(manifest: Manifest, pos: int, modes=tuple(MODE_ARRAYS)) -> FeatureBundle:
    """The bundle of image record ``pos`` of a ``load_manifest`` manifest, its
    tensors read and checked; a mode's image array only if it is in ``modes``."""
    rec, dims = manifest.images[pos], manifest.dims
    iid = rec["id"]
    skip = set(MODE_ARRAYS.values()) - {MODE_ARRAYS[mode] for mode in modes}
    arrs = {key: None if key in skip else _load(manifest.root, rec[key], iid)
            for key in IMAGE_SHAPES}
    for key, shape_of in IMAGE_SHAPES.items():
        if key not in skip and arrs[key].shape != (shape := shape_of(dims)):
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
        if key not in skip and not np.isfinite(arr).all():
            raise DataValidationError("%s: %s contains non-finite values" % (iid, key))
    return FeatureBundle(**arrs, seg_map=seg_map)


def load_dataset(manifest, modes=tuple(MODE_ARRAYS)
                 ) -> tuple[list[FeatureBundle], TextFeatureSet, Manifest]:
    """Read and check the tensors of ``manifest``, a ``load_manifest``
    manifest or its path, each in its stored dtype (float64 starts at
    ``Tensor`` and at the pooled mean); of the image arrays, only those of
    ``modes`` (``load_image``).  DataValidationError naming the item on a
    missing file or any shape, finiteness or category-range violation."""
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    bundles = [load_image(manifest, pos, modes) for pos in range(len(manifest.images))]
    word_feats = []
    for rec in manifest.sentences:
        sid = rec["id"]
        words = _load(manifest.root, rec["word_feats"], sid)
        if words.ndim != 2 or words.shape[0] < 1 or words.shape[1] != manifest.dims.word_dim:
            raise DataValidationError("%s: word_feats shape %r, expected (N>=1, %d)"
                                      % (sid, words.shape, manifest.dims.word_dim))
        if not np.isfinite(words).all():
            raise DataValidationError("%s: word_feats contains non-finite values" % (sid,))
        word_feats.append(words)
    return bundles, TextFeatureSet(word_feats, manifest.image_index), manifest


# ---------------------------------------------------------------------------
# synthetic data with planted shared-latent structure


MAX_WORDS = 12
MIN_WORDS = 4
LATENT_DIM = 32


def planted_maps(dims: DimConfig, seed: int) -> dict[str, np.ndarray]:
    """The deterministic generator's linear maps from the per-image latent,
    one (*shape, LATENT_DIM) array per float array of ``IMAGE_SHAPES`` and
    a (MAX_WORDS, word_dim, LATENT_DIM) one for ``"word_feats"``; tests
    reuse them as an oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    scale = 1.0 / np.sqrt(LATENT_DIM)
    shapes = {key: shape_of(dims) for key, shape_of in IMAGE_SHAPES.items()
              if key != "seg_map"}
    shapes["word_feats"] = (MAX_WORDS, dims.word_dim)
    return {key: scale * rng.standard_normal((*shape, LATENT_DIM))
            for key, shape in shapes.items()}


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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)

    maps = planted_maps(dims, seed)
    word_map = maps.pop("word_feats")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    # blockwise category layout: each pixel inherits the dominant channel
    # of the segmentation cell it falls in
    cells = np.ix_(np.arange(dims.H_I) * dims.seg_h // dims.H_I,
                   np.arange(dims.W_I) * dims.seg_w // dims.W_I)

    image_recs, sentence_recs = [], []
    for i in range(n_images):
        iid = "img_%05d" % i
        z = rng.standard_normal(LATENT_DIM)
        arrs = {key: m @ z + noise * rng.standard_normal(m.shape[:-1])
                for key, m in maps.items()}
        arrs["seg_map"] = arrs["seg_feat"].argmax(axis=2)[cells]
        rec = {"id": iid}
        for key, suffix in zip(IMAGE_SHAPES, ("regions", "grid", "segfeat", "segmap")):
            rec[key] = "%s.%s.3sht" % (iid, suffix)
            write_tensor(out_dir / rec[key],
                         arrs[key].astype(np.uint16 if key == "seg_map" else np.float32))
        image_recs.append(rec)

        for c in range(captions_per_image):
            sid = "sent_%05d_%d" % (i, c)
            n_words = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
            words = (word_map[:n_words] @ z
                     + noise * rng.standard_normal((n_words, dims.word_dim)))
            srec = {"id": sid, "image_index": i, "word_feats": sid + ".words.3sht"}
            write_tensor(out_dir / srec["word_feats"], words.astype(np.float32))
            sentence_recs.append(srec)

    manifest = Manifest(dataset="synthetic", dims=dims, images=image_recs,
                        sentences=sentence_recs, seed=seed, root=out_dir)
    write_atomic(manifest_path, Path.write_text, manifest.to_json())
    return manifest_path


def random_bundles(dims: DimConfig, n: int, seed: int) -> list[FeatureBundle]:
    """Unstructured random features, for benchmarks and gradient checks."""
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
