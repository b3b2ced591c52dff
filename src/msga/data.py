"""Synthetic segmentation data, binary PGM image/mask files, patient-wise
splitting, and few-shot subsetting.

Synthetic samples carry k-1 non-overlapping filled shapes (axis-aligned
rectangles and discs) on a noisy dark background, one shape per foreground
class, with pixel intensity correlated to the class index. Ten consecutive
samples share a patient id so the patient-wise split has something to bite
on. Datasets are immutable after construction.

On disk, images and masks are binary PGM ("P5"); mask pixel values are raw
class indices. A dataset manifest is one tab-separated line per sample:
image path, mask path, patient id.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sample:
    image: np.ndarray     # (h, w) float64 in [0, 1]
    mask: np.ndarray      # (h, w) int labels in 0..k-1
    patient_id: int


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    classes: int
    provenance: str

    def __len__(self) -> int:
        return len(self.samples)

    def patient_ids(self) -> set[int]:
        return {s.patient_id for s in self.samples}


SLICES_PER_PATIENT = 10
LAYOUT_ATTEMPTS = 1000   # per synthetic sample; classes <= 8 at 16x16 and 32x32 took <= 80


def _disc(h: int, w: int, cy: int, cx: int, radius: int) -> np.ndarray:
    yy, xx = np.ogrid[:h, :w]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2


def _place_shapes(rng: np.random.Generator, h: int, w: int, k: int) -> np.ndarray | None:
    """One attempt at a mask with k-1 disjoint shapes; None if placement fails."""
    mask = np.zeros((h, w), dtype=np.int64)
    occupied = np.zeros((h, w), dtype=bool)
    short = min(h, w)   # shapes fit the shorter side, so a tall image places them too
    side_lo, side_hi = max(4, short // 4), max(5, short // 3)
    rad_lo, rad_hi = max(2, short // 6), max(3, short // 4)
    for c in range(1, k):
        for _ in range(60):
            if rng.random() < 0.5:
                sh = int(rng.integers(side_lo, side_hi + 1))
                sw = int(rng.integers(side_lo, side_hi + 1))
                top = int(rng.integers(0, h - sh + 1))
                left = int(rng.integers(0, w - sw + 1))
                shape = np.zeros((h, w), dtype=bool)
                shape[top : top + sh, left : left + sw] = True
            else:
                radius = int(rng.integers(rad_lo, rad_hi + 1))
                cy = int(rng.integers(radius, h - radius))
                cx = int(rng.integers(radius, w - radius))
                shape = _disc(h, w, cy, cx, radius)
            if not (shape & occupied).any():
                occupied |= shape
                mask[shape] = c
                break
        else:
            return None
    return mask


def generate_synthetic(seed: int, count: int, h: int, w: int, k: int) -> Dataset:
    """Deterministic synthetic dataset; every foreground class appears in every mask.
    Raises ConfigError naming `classes` when a sample's shapes find no room."""
    if k < 2:
        raise ValueError(f"need k >= 2 classes, got {k}")
    if h < 16 or w < 16:
        raise ValueError(f"images must be at least 16x16, got {h}x{w}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    samples = []
    for idx in range(count):
        for _ in range(LAYOUT_ATTEMPTS):  # a failed placement draws a fresh layout
            mask = _place_shapes(rng, h, w, k)
            if mask is not None:
                break
        else:
            raise ConfigError("classes", f"{k - 1} disjoint shapes found no room in a {h}x{w} "
                              f"image in {LAYOUT_ATTEMPTS} layouts (sample {idx})")
        image = rng.uniform(0.0, 0.2, size=(h, w))
        for c in range(1, k):
            level = 0.35 + 0.55 * (c - 1) / max(1, k - 2)
            region = mask == c
            image[region] = level + rng.normal(0.0, 0.02, size=int(region.sum()))
        image = np.clip(image, 0.0, 1.0)
        samples.append(Sample(image=image, mask=mask, patient_id=idx // SLICES_PER_PATIENT))
    return Dataset(tuple(samples), classes=k, provenance=f"synthetic(seed={seed})")


def split_by_patient(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Partition by patient id so no patient straddles the train/test boundary."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    patients = sorted(ds.patient_ids())
    if len(patients) < 2:
        raise ValueError(f"need at least 2 patients to split, got {len(patients)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(patients)
    n_test = min(len(patients) - 1, max(1, round(test_fraction * len(patients))))
    test_patients = set(int(p) for p in order[:n_test])
    train = tuple(s for s in ds.samples if s.patient_id not in test_patients)
    test = tuple(s for s in ds.samples if s.patient_id in test_patients)
    return (
        Dataset(train, ds.classes, f"{ds.provenance}/train"),
        Dataset(test, ds.classes, f"{ds.provenance}/test"),
    )


def few_shot_subset(train: Dataset, n_images: int, seed: int) -> Dataset:
    """First n_images of a seeded permutation, so budgets nest: the subset for a
    smaller budget is a prefix of the subset for a larger one at the same seed."""
    if not 1 <= n_images <= len(train):
        raise ValueError(f"budget {n_images} out of range 1..{len(train)}")
    order = np.random.default_rng(seed).permutation(len(train))
    picked = tuple(train.samples[int(i)] for i in order[:n_images])
    return Dataset(picked, train.classes, f"{train.provenance}/few-shot({n_images})")


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending key, `detail` the rule it broke."""

    def __init__(self, field_name: str, detail: str):
        super().__init__(f"config field {field_name!r}: {detail}")
        self.field = field_name
        self.detail = detail


def check_fields(owner, names: tuple[str, ...], ok, rule: str) -> None:
    """Raise ConfigError for the first field of `owner` in `names` whose value fails `ok`."""
    for name in names:
        value = getattr(owner, name)
        if not ok(value):
            raise ConfigError(name, f"must {rule}, got {value!r}")


# ---------------------------------------------------------------------------
# binary PGM


class PgmError(ValueError):
    """Malformed PGM input; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise PgmError("comment reaches end of file", pos)
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= len(data):
        raise PgmError("header ended early", pos)
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _parse_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """Returns the raw pixel array and the maxval; total over all byte inputs."""
    if data[:2] == b"P2":
        raise PgmError("ASCII PGM (P2) is unsupported, need binary P5", 0)
    if data[:2] != b"P5":
        raise PgmError(f"bad magic {data[:2]!r}, expected P5", 0)
    pos = 2
    fields = []
    for what in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        if not token.isdigit():
            raise PgmError(f"{what} must be a decimal integer, got {token!r}", pos - len(token))
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"degenerate dimensions {width}x{height}", pos)
    if maxval not in (255, 65535):
        raise PgmError(f"unsupported maxval {maxval}, expected 255 or 65535", pos)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PgmError("missing single whitespace after maxval", pos)
    pos += 1
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    need = width * height * dtype.itemsize
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise PgmError(
            f"payload truncated: expected {need} bytes, found {len(payload)}", pos + len(payload)
        )
    pixels = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return pixels, maxval


def load_pgm_bytes(data: bytes) -> np.ndarray:
    pixels, maxval = _parse_pgm(data)
    return pixels.astype(np.float64) / maxval


def load_pgm(path: str) -> np.ndarray:
    """Binary PGM to a float64 image in [0, 1]."""
    with open(path, "rb") as fh:
        return load_pgm_bytes(fh.read())


def save_pgm(matrix: np.ndarray, path: str) -> None:
    """Write a [0, 1] image as 8-bit binary PGM; exact round-trip for 8-bit data."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {matrix.shape}")
    _save_p5(np.rint(np.clip(matrix, 0.0, 1.0) * 255).astype(np.uint8), path)


def load_labels_pgm(path: str) -> np.ndarray:
    """Binary PGM holding raw class indices; no scaling."""
    with open(path, "rb") as fh:
        pixels, _ = _parse_pgm(fh.read())
    return pixels.astype(np.int64)


def save_labels_pgm(labels: np.ndarray, path: str) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("label values must fit 8-bit PGM (0..255)")
    _save_p5(labels.astype(np.uint8), path)


def _save_p5(pixels: np.ndarray, path: str) -> None:
    """A 2-D uint8 array as 8-bit binary PGM."""
    h, w = pixels.shape
    atomic_write(path, b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes())


def atomic_write(path: str, data: bytes | str) -> None:
    """Write bytes, or text as UTF-8, to `path` via `path.tmp` and a rename, so
    `path` is the old file or the whole new one; on failure the temp file goes."""
    blob = data.encode("utf-8") if isinstance(data, str) else data
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# manifests


def save_dataset(ds: Dataset, directory: str) -> str:
    """Write PGMs plus a manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    lines = []
    for i, s in enumerate(ds.samples):
        image_name = f"image_{i:04d}.pgm"
        mask_name = f"mask_{i:04d}.pgm"
        save_pgm(s.image, os.path.join(directory, image_name))
        save_labels_pgm(s.mask, os.path.join(directory, mask_name))
        lines.append(f"{image_name}\t{mask_name}\t{s.patient_id}")
    manifest = os.path.join(directory, "manifest.tsv")
    atomic_write(manifest, "\n".join(lines) + "\n")
    return manifest


def load_manifest(manifest_path: str, classes: int) -> Dataset:
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    samples = []
    for row in rows:
        parts = row.split("\t")
        if len(parts) != 3:
            raise ValueError(f"manifest line needs 3 tab-separated fields: {row!r}")
        image = load_pgm(os.path.join(base, parts[0]))
        mask = load_labels_pgm(os.path.join(base, parts[1]))
        if mask.shape != image.shape:
            raise ValueError(f"image/mask shape mismatch for {parts[0]}")
        if mask.max() >= classes:
            raise ValueError(f"mask {parts[1]} has label {mask.max()} >= classes {classes}")
        samples.append(Sample(image=image, mask=mask, patient_id=int(parts[2])))
    if not samples:
        raise ValueError(f"manifest {manifest_path} lists no samples")
    return Dataset(tuple(samples), classes=classes, provenance=f"manifest({manifest_path})")
