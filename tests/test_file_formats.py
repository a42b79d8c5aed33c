"""Byte layout of corpus and checkpoint files, pinned by digest, and the writers' range checks."""

import hashlib
import re
import zlib

import numpy as np
import pytest

from countgrad.datagen import (
    Corpus,
    CorpusError,
    CorpusItem,
    SceneSample,
    SceneSpec,
    corpora_equal,
    read_corpus,
    write_corpus,
)
from countgrad.model import CheckpointError, CountModel, ModelConfig, load_checkpoint, save_checkpoint
from countgrad.raster import InstanceMask, PointAnnotations, Scene, SceneInstance

# sha256 of the two files below in the version-1 layouts. A layout change
# must bump its format's version and keep a reader for old files.
CORPUS_SHA256 = "2694673165f318fad3dd17acf95ebbc94e976ab63f400f0ccb77b9c7ea762919"
CHECKPOINT_SHA256 = "18b1f9131b8edf45067cac29cc8a4bfc206b5a8a46fb95cfe9dac22ca1017f2e"


def box(r0, r1, c0, c1):
    pixels = np.zeros((8, 8), dtype=bool)
    pixels[r0:r1, c0:c1] = True
    return InstanceMask(pixels)


def points(pos, neg):
    return PointAnnotations(np.array(pos, dtype=np.int64).reshape(-1, 2), np.array(neg, dtype=np.int64).reshape(-1, 2))


def golden_corpus(scene_id=7, point=(1, 1)) -> Corpus:
    """Two hand-built 8x8 scenes with exact pixel values.

    The first has two target disks (one mask starting at pixel 0, so its
    runs open with an empty False run) and a square distractor; the second
    targets squares, one of them subpixel, with a disk distractor and no
    negative points.
    """
    spec = SceneSpec(image_size=8, count_range=(1, 2), radius_range=(1.0, 2.0), distractor_range=(1, 1), seed=5)
    image = np.arange(64, dtype=np.float64).reshape(8, 8) / 64.0
    first = Scene(
        image,
        (SceneInstance(0, box(0, 2, 0, 2)), SceneInstance(0, box(5, 8, 5, 8)), SceneInstance(1, box(0, 3, 5, 8))),
        0.125,
    )
    second = Scene(
        image[::-1].copy(),
        (SceneInstance(1, box(2, 4, 2, 4)), SceneInstance(1, None, subpixel=True), SceneInstance(0, box(6, 7, 0, 8))),
        0.25,
    )
    return Corpus(
        spec,
        "golden",
        (
            CorpusItem(scene_id, SceneSample(first, points([point, (6, 6)], [(4, 0), (7, 0), (3, 3)]), 0)),
            CorpusItem(70000, SceneSample(second, points([(2, 2)], []), 1)),
        ),
    )


def golden_model() -> CountModel:
    return CountModel.create(ModelConfig(input_size=16, channels=(2, 3, 4), fused_channels=4, embed_dim=3, seed=2))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_corpus_layout_is_pinned(tmp_path):
    path = tmp_path / "golden.bin"
    write_corpus(golden_corpus(), path)
    assert sha256(path) == CORPUS_SHA256
    assert corpora_equal(read_corpus(path), golden_corpus())


def test_checkpoint_layout_is_pinned_and_loads_bitwise(tmp_path):
    model = golden_model()
    path = tmp_path / "golden.ckpt"
    save_checkpoint(model, path)
    assert sha256(path) == CHECKPOINT_SHA256
    loaded = load_checkpoint(path)
    assert loaded.config == model.config and list(loaded.weights) == list(model.weights)
    for name, arr in model.weights.items():
        assert loaded.weights[name].dtype == np.float64
        assert loaded.weights[name].shape == arr.shape
        assert loaded.weights[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize(
    "corpus,field",
    [
        (golden_corpus(point=(-1, 1)), "point coordinate"),
        (golden_corpus(point=(1, 65536)), "point coordinate"),
        (golden_corpus(scene_id=2**32), "scene id"),
    ],
    ids=["negative-point", "point-too-large", "scene-id-too-large"],
)
def test_writer_rejects_values_that_do_not_fit(tmp_path, corpus, field):
    path = tmp_path / "bad.bin"
    with pytest.raises(ValueError, match=field):
        write_corpus(corpus, path)
    assert not path.exists()


def reframe(blob: bytes, edit) -> bytes:
    """Pass a file's body (version onward) through ``edit`` and re-checksum it."""
    body = edit(blob[4:-4])
    return blob[:4] + body + zlib.crc32(body).to_bytes(4, "little")


FORMATS = {
    "corpus": (lambda path: write_corpus(golden_corpus(), path), read_corpus, CorpusError),
    "checkpoint": (lambda path: save_checkpoint(golden_model(), path), load_checkpoint, CheckpointError),
}

DAMAGE = {
    "magic": (lambda blob: b"XXXX" + blob[4:], "bad magic at byte 0"),
    "too-short": (lambda blob: blob[:9], "ends at byte 9"),
    "checksum": (lambda blob: blob[:20] + bytes([blob[20] ^ 1]) + blob[21:], "checksum mismatch"),
    "version": (lambda blob: reframe(blob, lambda body: b"\x02\x00" + body[2:]), "unsupported version 2 at byte 4"),
    "truncated": (lambda blob: reframe(blob, lambda body: body[:-3]), "truncated at byte"),
    "trailing": (lambda blob: reframe(blob, lambda body: body + b"\x00"), "1 trailing bytes"),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("fmt", FORMATS)
def test_envelope_violation_names_its_byte_position(tmp_path, fmt, damage):
    write, read, error = FORMATS[fmt]
    edit, message = DAMAGE[damage]
    path = tmp_path / "f"
    write(path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(error, match=message) as info:
        read(path)
    assert re.search(r"at byte \d+", str(info.value))


@pytest.mark.parametrize(
    "fmt,name,what", [("corpus", b"golden", "split"), ("checkpoint", b"stage1_k", "weight name")]
)
def test_name_that_is_not_utf8_raises_the_format_error(tmp_path, fmt, name, what):
    write, read, error = FORMATS[fmt]
    path = tmp_path / "f"
    write(path)
    blob = path.read_bytes()
    start = blob.index(name) - 2  # the u16 length in front of the name
    path.write_bytes(reframe(blob, lambda body: body.replace(name, b"\xff" + name[1:], 1)))
    with pytest.raises(error, match=f"{what} at byte {start} is not UTF-8"):
        read(path)
