from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from msga.data import (
    PgmError,
    atomic_write,
    few_shot_subset,
    generate_synthetic,
    load_labels_pgm,
    load_manifest,
    load_pgm,
    load_pgm_bytes,
    save_dataset,
    save_labels_pgm,
    save_pgm,
    split_by_patient,
)


def test_synthetic_bitwise_deterministic() -> None:
    a = generate_synthetic(11, 12, 32, 32, 3)
    b = generate_synthetic(11, 12, 32, 32, 3)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.mask, sb.mask)
        assert sa.patient_id == sb.patient_id


def test_synthetic_every_foreground_class_present() -> None:
    ds = generate_synthetic(3, 30, 32, 32, 4)
    for s in ds.samples:
        for c in range(1, 4):
            assert (s.mask == c).sum() >= 1


def test_synthetic_two_classes_binary_masks() -> None:
    ds = generate_synthetic(5, 10, 16, 16, 2)
    for s in ds.samples:
        assert set(np.unique(s.mask)) <= {0, 1}


def test_synthetic_masks_hold_one_byte_per_pixel() -> None:
    # labels 0..k-1 in the smallest unsigned dtype: eight times less than int64
    assert {s.mask.dtype for s in generate_synthetic(2, 20, 32, 32, 3).samples} == {np.dtype("u1")}
    ds = generate_synthetic(7, 400, 32, 32, 3)
    assert sum(s.mask.nbytes for s in ds.samples) == 409_600


def test_synthetic_patient_grouping_and_ranges() -> None:
    ds = generate_synthetic(7, 25, 16, 16, 2)
    assert [s.patient_id for s in ds.samples] == [i // 10 for i in range(25)]
    for s in ds.samples:
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


@pytest.mark.parametrize("h, w", [(32, 16), (64, 16)])
def test_synthetic_tall_image_places_every_class(h: int, w: int) -> None:
    ds = generate_synthetic(3, 20, h, w, 3)
    for s in ds.samples:
        assert s.image.shape == s.mask.shape == (h, w)
        assert set(np.unique(s.mask)) == {0, 1, 2}


# sha256 over each sample's float64 image bytes, mask bytes and patient id, in
# order; the 8-class settings re-draw layouts whose shapes found no room
SYNTHETIC_RAW_SHA256 = {
    (5, 3, 32, 32): "1d556d4b43c121313444858fdb0dbbf05332b1a58dce150be056ea36decd7a22",
    (7, 5, 32, 32): "c8d811de13ae4d8e7367d6450eaa86e5972aff8e95d8c63238a96e53dcd4197a",
    (9, 3, 16, 32): "8a9ed8d916d216489e642b8179fe580791a2e77593dd775fed0a581dfa40638a",
    (11, 8, 32, 32): "3218d0d49c6f6bb3e202a5b12599e06bca62ec1cad7aa29961109afa1793d9d9",
    (13, 8, 16, 16): "15e704a6c1a417551058490d52096c0a07340b652a79123c03ead50ee5f927c3",
}


@pytest.mark.parametrize("seed, k, h, w", list(SYNTHETIC_RAW_SHA256))
def test_synthetic_samples_keep_their_pinned_raw_bytes(seed: int, k: int, h: int, w: int) -> None:
    digest = hashlib.sha256()
    for s in generate_synthetic(seed, 200, h, w, k).samples:
        digest.update(s.image.tobytes())
        digest.update(s.mask.tobytes())
        digest.update(b"%d;" % s.patient_id)
    assert digest.hexdigest() == SYNTHETIC_RAW_SHA256[seed, k, h, w]


def test_synthetic_rejects_bad_args() -> None:
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 32, 32, 1)
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 8, 32, 2)
    with pytest.raises(ValueError, match="^count must be positive, got 0$"):
        generate_synthetic(0, 0, 16, 16, 2)


# ---------------------------------------------------------------------------
# PGM


def test_pgm_round_trip_exact(tmp_path) -> None:
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, (9, 7)).astype(np.float64) / 255.0
    path = str(tmp_path / "img.pgm")
    save_pgm(image, path)
    assert np.array_equal(load_pgm(path), image)


def test_pgm_rejects_ascii_variant() -> None:
    with pytest.raises(PgmError, match="P2"):
        load_pgm_bytes(b"P2\n2 2\n255\n0 1 2 3\n")


def test_pgm_sixteen_bit_big_endian_fixture() -> None:
    # 2x2, maxval 65535: values 0, 256, 65535, 513 in big-endian byte pairs
    payload = bytes([0x00, 0x00, 0x01, 0x00, 0xFF, 0xFF, 0x02, 0x01])
    image = load_pgm_bytes(b"P5\n2 2\n65535\n" + payload)
    expected = np.array([[0, 256], [65535, 513]]) / 65535.0
    assert np.allclose(image, expected, atol=0)
    assert image.min() >= 0.0 and image.max() <= 1.0


def test_pgm_bytes_scale_every_code_as_a_float64_cast_then_divide_does() -> None:
    # one float64 array per image, with the bits the cast-then-divide gave, at every
    # 8-bit and 16-bit code
    for maxval, dtype in ((255, np.dtype("u1")), (65535, np.dtype(">u2"))):
        codes = np.arange(maxval + 1).astype(dtype)
        image = load_pgm_bytes(b"P5\n%d 1\n%d\n" % (codes.size, maxval) + codes.tobytes())
        want = codes.astype(np.float64) / maxval
        assert image.dtype == np.float64 and image.tobytes() == want.reshape(1, -1).tobytes()
    data = b"P5\n32 32\n255\n" + bytes(32 * 32)
    tracemalloc.start()
    try:
        image = load_pgm_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the payload's byte and one float64 output per pixel; a cast then divide makes two
    # float64 arrays at this size, below numpy's 256 KiB bound for reusing a temporary
    assert peak < 1.5 * image.nbytes, peak


def test_pgm_comments_and_whitespace_tolerated() -> None:
    data = b"P5 # binary pgm\n# size next\n 3\t2 \n255\n" + bytes(6)
    assert load_pgm_bytes(data).shape == (2, 3)


def test_pgm_truncated_payload_reports_offset() -> None:
    with pytest.raises(PgmError, match="truncated") as info:
        load_pgm_bytes(b"P5\n4 4\n255\n" + bytes(7))
    assert info.value.offset > 0


# malformed PGM headers, each with its message and the byte offset it names: the
# comment's '#', then the byte after maxval's last digit
BAD_PGM_HEADERS = [
    (b"P5\n# a comment that runs to the end", "comment reaches end of file", 3),
    (b"P5\n0 2\n255\n", "degenerate dimensions 0x2", 10),
    (b"P5\n2 2\n255", "missing single whitespace after maxval", 10),
]


@pytest.mark.parametrize("data, message, offset", BAD_PGM_HEADERS)
def test_pgm_header_errors_give_their_byte_offsets(data, message, offset) -> None:
    with pytest.raises(PgmError) as info:
        load_pgm_bytes(data)
    assert str(info.value) == f"{message} (byte offset {offset})"
    assert info.value.offset == offset


def test_pgm_unsupported_maxval() -> None:
    with pytest.raises(PgmError, match="maxval"):
        load_pgm_bytes(b"P5\n2 2\n16383\n" + bytes(8))


def test_pgm_fuzzed_headers_never_crash() -> None:
    # parsing is total: every byte stream yields a matrix or a structured error
    rng = np.random.default_rng(99)
    base = b"P5\n4 4\n255\n" + bytes(16)
    rejected = 0
    for _ in range(50):
        blob = bytearray(base)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(0, 12))
            blob[pos] = int(rng.integers(0, 256))
        try:
            load_pgm_bytes(bytes(blob))
        except PgmError:
            rejected += 1
    assert rejected > 0
    for _ in range(50):  # pure garbage never escapes as another exception type
        blob = rng.integers(0, 256, int(rng.integers(0, 40))).astype(np.uint8).tobytes()
        try:
            load_pgm_bytes(blob)
        except PgmError:
            pass


@pytest.mark.parametrize("save, array, message", [
    (save_pgm, np.zeros((2, 2, 2)), r"image must be 2-D, got shape \(2, 2, 2\)"),
    (save_labels_pgm, np.zeros((2, 2, 2), dtype=int),
     r"label map must be 2-D, got shape \(2, 2, 2\)"),
    (save_labels_pgm, np.array([[0, 256]]), r"label values must fit 8-bit PGM \(0\.\.255\)"),
], ids=["image-3d", "labels-3d", "label-256"])
def test_pgm_writers_reject_what_8_bit_pgm_cannot_hold(tmp_path, save, array, message) -> None:
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match=f"^{message}$"):
        save(array, str(path))
    assert not path.exists()


def test_labels_pgm_round_trip(tmp_path) -> None:
    labels = np.random.default_rng(1).integers(0, 5, (8, 8))
    path = str(tmp_path / "mask.pgm")
    save_labels_pgm(labels, path)
    loaded = load_labels_pgm(path)
    assert np.array_equal(loaded, labels)
    # the file's one byte per pixel, in an array of its own, not a view of the file bytes
    assert loaded.dtype == np.uint8 and loaded.flags.owndata and loaded.flags.writeable


def test_sixteen_bit_labels_load_as_native_uint16(tmp_path) -> None:
    # big-endian on disk, native uint16 in memory, with the values >u2 decodes
    payload = bytes([0x00, 0x00, 0x01, 0x00, 0xFF, 0xFF, 0x02, 0x01])
    wide = tmp_path / "wide.pgm"
    wide.write_bytes(b"P5\n2 2\n65535\n" + payload)
    loaded = load_labels_pgm(str(wide))
    assert loaded.dtype == np.dtype("=u2") and loaded.dtype.isnative
    assert loaded.flags.owndata and loaded.flags.writeable
    assert loaded.tolist() == np.frombuffer(payload, ">u2").reshape(2, 2).tolist()
    assert loaded.tolist() == [[0, 256], [65535, 513]]


def test_manifest_round_trip(tmp_path) -> None:
    ds = generate_synthetic(13, 8, 16, 16, 3)
    manifest = save_dataset(ds, str(tmp_path / "data"))
    loaded = load_manifest(manifest, classes=3)
    assert len(loaded) == 8
    for original, again in zip(ds.samples, loaded.samples):
        assert np.array_equal(original.mask, again.mask)
        assert original.mask.dtype == again.mask.dtype == np.uint8
        assert original.patient_id == again.patient_id
        assert np.abs(original.image - again.image).max() <= 0.5 / 255.0  # 8-bit quantization


# ---------------------------------------------------------------------------
# splits


def test_split_patients_always_disjoint() -> None:
    ds = generate_synthetic(17, 200, 16, 16, 2)   # 20 patients
    for fraction in (0.1, 0.25, 0.5, 0.75):
        for seed in range(6):
            train, test = split_by_patient(ds, fraction, seed)
            assert train.patient_ids().isdisjoint(test.patient_ids())
            assert len(train) + len(test) == len(ds)


def test_split_half_of_ten_patients() -> None:
    ds = generate_synthetic(19, 100, 16, 16, 2)
    train, test = split_by_patient(ds, 0.5, seed=0)
    assert len(test.patient_ids()) == 5
    assert len(train.patient_ids()) == 5


def test_split_deterministic_per_seed() -> None:
    ds = generate_synthetic(23, 60, 16, 16, 2)
    a = split_by_patient(ds, 0.3, seed=4)[1].patient_ids()
    b = split_by_patient(ds, 0.3, seed=4)[1].patient_ids()
    assert a == b


def test_split_needs_two_patients() -> None:
    ds = generate_synthetic(29, 5, 16, 16, 2)  # single patient
    with pytest.raises(ValueError, match="patients"):
        split_by_patient(ds, 0.5, seed=0)


@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_split_rejects_a_test_fraction_outside_the_open_unit_interval(fraction) -> None:
    ds = generate_synthetic(0, 10, 16, 16, 2)
    with pytest.raises(ValueError, match=rf"^test_fraction must be in \(0, 1\), got {fraction}$"):
        split_by_patient(ds, fraction, seed=0)


def test_few_shot_full_budget_is_permutation() -> None:
    ds = generate_synthetic(31, 15, 16, 16, 2)
    subset = few_shot_subset(ds, 15, seed=2)
    key = lambda s: s.image.tobytes()
    assert sorted(key(s) for s in subset.samples) == sorted(key(s) for s in ds.samples)


def test_few_shot_single_sample_stable() -> None:
    ds = generate_synthetic(37, 12, 16, 16, 2)
    a = few_shot_subset(ds, 1, seed=5).samples[0]
    b = few_shot_subset(ds, 1, seed=5).samples[0]
    assert np.array_equal(a.image, b.image)


def test_few_shot_budgets_are_prefix_nested() -> None:
    ds = generate_synthetic(41, 120, 16, 16, 2)
    small = few_shot_subset(ds, 50, seed=3)
    large = few_shot_subset(ds, 100, seed=3)
    for a, b in zip(small.samples, large.samples[:50]):
        assert np.array_equal(a.image, b.image)


def test_few_shot_rejects_oversized_budget() -> None:
    ds = generate_synthetic(43, 10, 16, 16, 2)
    with pytest.raises(ValueError, match="budget"):
        few_shot_subset(ds, 11, seed=0)


def test_atomic_write_writes_text_as_utf8_and_a_failed_write_leaves_no_temp_file(
        tmp_path) -> None:
    path = tmp_path / "out.txt"
    atomic_write(str(path), "\u00e9\n")
    assert path.read_bytes() == b"\xc3\xa9\n"
    with pytest.raises(TypeError):
        atomic_write(str(path), [1, 2])   # not bytes-like: fails once the temp file is open
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_bytes() == b"\xc3\xa9\n"
