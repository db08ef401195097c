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
import struct
from dataclasses import dataclass, field
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
    if array.ndim > 0 and not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    key = (array.dtype.kind, array.dtype.itemsize)
    if key not in _KIND_TO_CODE:
        raise FormatError("unsupported dtype %r (use float32, float64 or uint16)"
                          % (array.dtype,))
    code = _KIND_TO_CODE[key]
    header = MAGIC + bytes([FORMAT_VERSION, code, array.ndim]) + b"\x00" * 5
    dims = b"".join(struct.pack("<Q", d) for d in array.shape)
    payload = array.astype(_CODE_TO_DTYPE[code], copy=False).tobytes()
    Path(path).write_bytes(header + dims + payload)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file, validating every header field."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise FormatError("%s: header short (%d bytes)" % (path, len(raw)))
    if raw[:4] != MAGIC:
        raise FormatError("%s: bad magic %r" % (path, raw[:4]))
    version, code, ndim = raw[4], raw[5], raw[6]
    if version != FORMAT_VERSION:
        raise FormatError("%s: unsupported version %d" % (path, version))
    if code not in _CODE_TO_DTYPE:
        raise FormatError("%s: bad dtype code %d" % (path, code))
    if raw[7:12] != b"\x00" * 5:
        raise FormatError("%s: reserved bytes not zero" % (path,))
    if ndim > 8:
        raise FormatError("%s: ndim %d exceeds limit 8" % (path, ndim))
    need = 12 + 8 * ndim
    if len(raw) < need:
        raise FormatError("%s: dims truncated" % (path,))
    shape = struct.unpack("<%dQ" % ndim, raw[12:need]) if ndim else ()
    elems = 1
    for d in shape:
        if d > _MAX_DIM:
            raise FormatError("%s: dim overflow (%d)" % (path, d))
        elems *= d
    if elems > _MAX_ELEMS:
        raise FormatError("%s: dim overflow (%d elements)" % (path, elems))
    dtype = _CODE_TO_DTYPE[code]
    expect = elems * dtype.itemsize
    got = len(raw) - need
    if got < expect:
        raise FormatError("%s: payload short (%d < %d bytes)" % (path, got, expect))
    if got > expect:
        raise FormatError("%s: payload long (%d > %d bytes)" % (path, got, expect))
    return np.frombuffer(raw[need:], dtype=dtype).reshape(shape).copy()


# ---------------------------------------------------------------------------
# dataset containers


@dataclass
class FeatureBundle:
    """Pre-extracted visual features for one image."""

    image_id: str
    region_feats: np.ndarray   # (K, D_l) float64
    grid_feats: np.ndarray     # (grid_h, grid_w, D_l) float64
    seg_feat: np.ndarray       # (seg_h, seg_w, C_s) float64
    seg_map: np.ndarray        # (H_I, W_I) integer categories in [0, C_s)


@dataclass
class TextFeatureSet:
    """Per-sentence word features and their image assignment."""

    word_feats: list            # element i: (N_i, word_dim) float64
    image_index: np.ndarray     # (num_sentences,) int
    sentence_ids: list = field(default_factory=list)


@dataclass
class Manifest:
    dataset: str
    dims: DimConfig
    images: list                # [{"id", "region_feats", "grid_feats", "seg_feat", "seg_map"}]
    sentences: list             # [{"id", "image_index", "word_feats"}]
    seed: int | None = None
    format_version: int = FORMAT_VERSION

    @property
    def num_images(self):
        return len(self.images)

    @property
    def num_sentences(self):
        return len(self.sentences)

    def to_json(self) -> str:
        doc = {
            "format_version": self.format_version,
            "dataset": self.dataset,
            "num_images": self.num_images,
            "num_sentences": self.num_sentences,
            "dims": self.dims.to_dict(),
            "seed": self.seed,
            "images": self.images,
            "sentences": self.sentences,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError("manifest is not valid JSON: %s" % (e,)) from e
        if not isinstance(doc, dict):
            raise FormatError("manifest must be a JSON object, got %s"
                              % (type(doc).__name__,))
        for key in ("format_version", "dataset", "dims", "images", "sentences",
                    "num_images", "num_sentences"):
            if key not in doc:
                raise FormatError("manifest missing field %r" % (key,))
        for key in ("images", "sentences"):
            if not isinstance(doc[key], list):
                raise FormatError("manifest %s must be a list, got %s"
                                  % (key, type(doc[key]).__name__))
        if doc["format_version"] != FORMAT_VERSION:
            raise FormatError("manifest format_version %r unsupported"
                              % (doc["format_version"],))
        m = cls(dataset=doc["dataset"], dims=DimConfig.from_dict(doc["dims"]),
                images=doc["images"], sentences=doc["sentences"],
                seed=doc.get("seed"))
        if doc["num_images"] != m.num_images:
            raise FormatError("manifest num_images %r does not match image list (%d)"
                              % (doc["num_images"], m.num_images))
        if doc["num_sentences"] != m.num_sentences:
            raise FormatError("manifest num_sentences %r does not match sentence list (%d)"
                              % (doc["num_sentences"], m.num_sentences))
        return m


def save_manifest(path, manifest: Manifest) -> None:
    Path(path).write_text(manifest.to_json())


def load_manifest(path) -> Manifest:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise FormatError("manifest is not valid UTF-8: %s" % (e,)) from e
    return Manifest.from_json(text)


IMAGE_KEYS = ("id", "region_feats", "grid_feats", "seg_feat", "seg_map")
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

    def _load(rel, item_id):
        if not isinstance(rel, str) or "\0" in rel:
            raise FormatError("%s: tensor file name must be a string, got %r"
                              % (item_id, rel))
        p = root / rel
        if not p.exists():
            raise DataValidationError("%s: missing tensor file %s" % (item_id, rel))
        return read_tensor(p)

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
        regions = _load(rec["region_feats"], iid).astype(np.float64)
        grid = _load(rec["grid_feats"], iid).astype(np.float64)
        seg_feat = _load(rec["seg_feat"], iid).astype(np.float64)
        seg_map = _load(rec["seg_map"], iid)
        if regions.shape != (dims.K, dims.D_l):
            raise DataValidationError("%s: region_feats shape %r, expected %r"
                                      % (iid, regions.shape, (dims.K, dims.D_l)))
        if grid.shape != (dims.grid_h, dims.grid_w, dims.D_l):
            raise DataValidationError("%s: grid_feats shape %r, expected %r"
                                      % (iid, grid.shape, (dims.grid_h, dims.grid_w, dims.D_l)))
        if seg_feat.shape != (dims.seg_h, dims.seg_w, dims.C_s):
            raise DataValidationError("%s: seg_feat shape %r, expected %r"
                                      % (iid, seg_feat.shape, (dims.seg_h, dims.seg_w, dims.C_s)))
        if seg_map.shape != (dims.H_I, dims.W_I):
            raise DataValidationError("%s: seg_map shape %r, expected %r"
                                      % (iid, seg_map.shape, (dims.H_I, dims.W_I)))
        if seg_map.dtype.kind not in "ui":
            raise DataValidationError("%s: seg_map must be integer, got %r"
                                      % (iid, seg_map.dtype))
        if seg_map.max(initial=0) >= dims.C_s:
            raise DataValidationError("%s: seg_map category %d outside [0, %d)"
                                      % (iid, int(seg_map.max()), dims.C_s))
        for name, arr in (("region_feats", regions), ("grid_feats", grid),
                          ("seg_feat", seg_feat)):
            if not np.isfinite(arr).all():
                raise DataValidationError("%s: %s contains non-finite values" % (iid, name))
        bundles.append(FeatureBundle(iid, regions, grid, seg_feat, seg_map))

    word_feats, image_index, sentence_ids = [], [], []
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
        words = _load(rec["word_feats"], sid).astype(np.float64)
        if words.ndim != 2 or words.shape[0] < 1 or words.shape[1] != dims.word_dim:
            raise DataValidationError("%s: word_feats shape %r, expected (N>=1, %d)"
                                      % (sid, words.shape, dims.word_dim))
        if not np.isfinite(words).all():
            raise DataValidationError("%s: word_feats contains non-finite values" % (sid,))
        word_feats.append(words)
        image_index.append(idx)
        sentence_ids.append(sid)
    texts = TextFeatureSet(word_feats, np.asarray(image_index, dtype=np.int64),
                           sentence_ids)
    return bundles, texts, manifest


# ---------------------------------------------------------------------------
# synthetic data with planted shared-latent structure


@dataclass
class PlantedMaps:
    """Fixed linear maps from the per-image latent to every feature family."""

    latent_dim: int
    region: np.ndarray    # (K, D_l, latent_dim)
    grid: np.ndarray      # (grid_h * grid_w, D_l, latent_dim)
    seg: np.ndarray       # (seg_h * seg_w, C_s, latent_dim)
    word: np.ndarray      # (max_words, word_dim, latent_dim)


MAX_WORDS = 12
MIN_WORDS = 4


def planted_maps(dims: DimConfig, seed: int, latent_dim: int = 32) -> PlantedMaps:
    """The deterministic generator maps; tests reuse them as an oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    scale = 1.0 / np.sqrt(latent_dim)

    def draw(*shape):
        return scale * rng.standard_normal(shape)

    return PlantedMaps(
        latent_dim=latent_dim,
        region=draw(dims.K, dims.D_l, latent_dim),
        grid=draw(dims.grid_h * dims.grid_w, dims.D_l, latent_dim),
        seg=draw(dims.seg_h * dims.seg_w, dims.C_s, latent_dim),
        word=draw(MAX_WORDS, dims.word_dim, latent_dim),
    )


def synth_dataset(out_dir, n_images: int, captions_per_image: int, seed: int,
                  dims: DimConfig, noise: float = 0.05,
                  latent_dim: int = 32) -> Path:
    """Write a planted synthetic dataset; returns the manifest path.

    Every feature of image i is maps @ z_i plus iid noise; captions of
    image i are word-wise linear images of the same z_i.  The same seed
    always produces byte-identical files.
    """
    if n_images < 2:
        raise ConfigError("n_images must be >= 2, got %d" % (n_images,))
    if captions_per_image < 1:
        raise ConfigError("captions_per_image must be >= 1")
    if noise < 0:
        raise ConfigError("noise must be non-negative")
    dims.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    maps = planted_maps(dims, seed, latent_dim)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])

    image_recs, sentence_recs = [], []
    for i in range(n_images):
        iid = "img_%05d" % i
        z = rng.standard_normal(latent_dim)

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
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, manifest)
    return manifest_path


def random_bundles(dims: DimConfig, n: int, seed: int) -> list[FeatureBundle]:
    """Unstructured random features, for benchmarks and gradient checks."""
    dims.validate()
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(FeatureBundle(
            image_id="rnd_%05d" % i,
            region_feats=rng.standard_normal((dims.K, dims.D_l)),
            grid_feats=rng.standard_normal((dims.grid_h, dims.grid_w, dims.D_l)),
            seg_feat=rng.standard_normal((dims.seg_h, dims.seg_w, dims.C_s)),
            seg_map=rng.integers(0, dims.C_s,
                                 size=(dims.H_I, dims.W_I)).astype(np.uint16),
        ))
    return out


def random_texts(dims: DimConfig, n_images: int, captions_per_image: int,
                 seed: int) -> TextFeatureSet:
    """Unstructured random sentences aligned image-by-image."""
    rng = np.random.default_rng(seed)
    word_feats, image_index, ids = [], [], []
    for i in range(n_images):
        for c in range(captions_per_image):
            n_words = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
            word_feats.append(rng.standard_normal((n_words, dims.word_dim)))
            image_index.append(i)
            ids.append("rnd_%05d_%d" % (i, c))
    return TextFeatureSet(word_feats, np.asarray(image_index, dtype=np.int64),
                          ids)
