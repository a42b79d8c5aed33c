"""Corpus generation: determinism, annotation invariants, serialization."""

import hashlib
import json
import zlib
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from countgrad.datagen import (
    CATEGORY_DISK,
    Corpus,
    CorpusError,
    PlacementError,
    SceneSpec,
    corpora_equal,
    make_corpus,
    read_corpus,
    rle_decode,
    rle_encode,
    sample_scene,
    write_corpus,
)
from countgrad.raster import SceneInstance, oracle_count_components


def small_spec(**kw):
    base = dict(
        image_size=48,
        count_range=(0, 6),
        radius_range=(2.0, 3.5),
        seed=7,
    )
    base.update(kw)
    return SceneSpec(**base)


class TestSampling:
    def test_single_instance(self):
        spec = small_spec(count_range=(1, 1), shape_kinds=("disk",))
        s = sample_scene(spec, np.random.default_rng(0))
        assert s.scene.count(s.category_id) == 1
        assert s.points.count == 1
        r, c = s.points.positive[0]
        assert s.scene.instances[0].mask.pixels[r, c]

    def test_separation_gives_disjoint_masks_and_oracle_match(self):
        spec = small_spec(count_range=(2, 6), min_separation=1.0)
        for i in range(15):
            s = sample_scene(spec, np.random.default_rng(i))
            union = np.zeros(s.scene.shape, dtype=bool)
            for m in s.scene.masks():
                assert not (union & m.pixels).any()
                union |= m.pixels
            mid = (spec.background + spec.intensity_range[0]) / 2
            assert oracle_count_components(s.scene.image, mid) == s.scene.count()

    def test_determinism(self):
        spec = small_spec()
        a = make_corpus(spec, 5)
        b = make_corpus(spec, 5)
        assert corpora_equal(a, b)

    def test_generation_is_order_independent(self):
        spec = small_spec()
        full = make_corpus(spec, 6)
        tail = make_corpus(spec, 3, first_id=3)
        assert corpora_equal(
            Corpus(spec, "train", full.items[3:]), Corpus(spec, "train", tail.items)
        )

    def test_positive_count_equals_target_count(self):
        spec = small_spec(distractor_range=(1, 3))
        for i in range(10):
            s = sample_scene(spec, np.random.default_rng(i))
            assert s.points.count == s.scene.count(s.category_id)

    def test_negative_points_avoid_all_masks(self):
        spec = small_spec(distractor_range=(2, 4), count_range=(3, 6))
        s = sample_scene(spec, np.random.default_rng(3))
        union = np.zeros(s.scene.shape, dtype=bool)
        for m in s.scene.masks():
            union |= m.pixels
        assert len(s.points.negative) == spec.n_negative_points
        for r, c in s.points.negative:
            assert not union[r, c]

    def test_distractors_carry_other_category(self):
        spec = small_spec(count_range=(2, 2), distractor_range=(2, 2))
        s = sample_scene(spec, np.random.default_rng(5))
        cats = [i.category_id for i in s.scene.instances]
        assert cats.count(s.category_id) == 2
        assert len(cats) == 4

    def test_infeasible_spec_fails_loudly(self):
        spec = small_spec(image_size=24, count_range=(30, 30), radius_range=(4.0, 5.0))
        with pytest.raises(PlacementError):
            sample_scene(spec, np.random.default_rng(0))

    def test_count_distribution_uniform(self):
        spec = small_spec(count_range=(0, 6), n_negative_points=4)
        counts = np.zeros(7, dtype=int)
        for i in range(3000):
            rng = np.random.default_rng((spec.seed, i))
            s = sample_scene(spec, rng)
            counts[s.scene.count(s.category_id)] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(count_range=(5, 2))
        with pytest.raises(ValueError):
            small_spec(shape_kinds=("triangle",))
        with pytest.raises(ValueError):
            small_spec(radius_range=(0.0, 2.0))

    def test_negative_first_id_rejected(self):
        with pytest.raises(ValueError, match="first_id must be non-negative, got -3"):
            make_corpus(small_spec(), 2, first_id=-3)

    def test_spec_json_round_trip(self):
        spec = small_spec(distractor_range=(1, 2), shape_kinds=("square",))
        assert SceneSpec.from_json(spec.to_json()) == spec


class TestRle:
    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            flat = rng.random(rng.integers(1, 200)) < rng.uniform(0.05, 0.95)
            runs = rle_encode(flat)
            np.testing.assert_array_equal(rle_decode(runs, flat.size), flat)

    def test_edge_cases(self):
        np.testing.assert_array_equal(rle_decode(rle_encode(np.ones(5, bool)), 5), np.ones(5, bool))
        np.testing.assert_array_equal(rle_decode(rle_encode(np.zeros(5, bool)), 5), np.zeros(5, bool))
        assert rle_encode(np.zeros(0, bool)).size == 0

    def test_leading_true_run_convention(self):
        runs = rle_encode(np.array([True, True, False]))
        np.testing.assert_array_equal(runs, [0, 2, 1])

    @staticmethod
    def loop_encode(flat):
        """Reference: run lengths from a pixel loop, False run first."""
        runs, value, n = [], False, 0
        for pixel in flat:
            if pixel != value:
                runs.append(n)
                value, n = pixel, 0
            n += 1
        return runs + [n] if len(flat) else []

    @staticmethod
    def loop_decode(runs, size):
        """Reference: fill alternating False/True runs one by one."""
        out = np.zeros(size, dtype=bool)
        pos, value = 0, False
        for r in runs:
            out[pos : pos + r] = value
            pos, value = pos + int(r), not value
        return out

    def test_equal_to_loop_reference(self):
        rng = np.random.default_rng(1)
        cases = [np.zeros(0, bool), np.ones(1, bool), np.zeros(1, bool), np.ones(7, bool), np.zeros(7, bool)]
        cases += [rng.random(rng.integers(1, 300)) < rng.uniform(0.05, 0.95) for _ in range(100)]
        for flat in cases:
            runs = rle_encode(flat)
            assert runs.dtype == np.int64
            np.testing.assert_array_equal(runs, self.loop_encode(flat.tolist()))
            decoded = rle_decode(runs, flat.size)
            assert decoded.dtype == bool
            np.testing.assert_array_equal(decoded, self.loop_decode(runs, flat.size))

    def test_length_mismatch_rejected(self):
        with pytest.raises(CorpusError):
            rle_decode(np.array([2, 2]), 5)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = make_corpus(small_spec(distractor_range=(0, 2)), 8, split="val")
        path = tmp_path / "c.corpus"
        write_corpus(corpus, path)
        assert corpora_equal(read_corpus(path), corpus)

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (SceneSpec(), "a3ba4093e68adee8efc03f580796249596253f309c4e186d7dbb8c6556c6aa9e"),
            (
                SceneSpec(count_range=(15, 40), radius_range=(1.5, 3.0), min_separation=0.9, seed=13),
                "abbd8a47cb9ce775c7f3bdbabf053db10dbda3330e8af8c02c2bc381f124d8fa",
            ),
        ],
        ids=["default", "dense-weak"],
    )
    def test_generated_corpus_bytes_are_pinned(self, tmp_path, spec, digest):
        # any change to the rng draws, placement decisions, rendering or the
        # file format of generation moves these digests
        path = tmp_path / "pinned.corpus"
        write_corpus(make_corpus(spec, 3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_empty_corpus(self, tmp_path):
        corpus = Corpus(small_spec(), "test", ())
        path = tmp_path / "empty.corpus"
        write_corpus(corpus, path)
        loaded = read_corpus(path)
        assert len(loaded) == 0 and loaded.split == "test"

    def test_round_trip_with_subpixel_instances(self, tmp_path):
        corpus = make_corpus(small_spec(count_range=(2, 4)), 3)
        shrunk_items = []
        for item in corpus.items:
            # every other instance fell below one pixel: no mask, but still counted
            instances = tuple(
                SceneInstance(inst.category_id, None) if k % 2 else inst
                for k, inst in enumerate(item.sample.scene.instances)
            )
            sample = replace(item.sample, scene=replace(item.sample.scene, instances=instances))
            shrunk_items.append(replace(item, sample=sample))
        # the container must preserve the subpixel flags
        shrunk = Corpus(corpus.spec, "train", tuple(shrunk_items))
        path = tmp_path / "s.corpus"
        write_corpus(shrunk, path)
        assert corpora_equal(read_corpus(path), shrunk)

    def test_bad_magic_reports_position(self, tmp_path):
        path = tmp_path / "c.corpus"
        write_corpus(make_corpus(small_spec(), 2), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorpusError, match="byte 0"):
            read_corpus(path)

    def test_checksum_detects_flips(self, tmp_path):
        path = tmp_path / "c.corpus"
        write_corpus(make_corpus(small_spec(), 2), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorpusError, match="checksum"):
            read_corpus(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.corpus"
        write_corpus(make_corpus(small_spec(), 2), path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(CorpusError):
            read_corpus(path)

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda spec: spec.pop("seed"), "seed"),
            (lambda spec: spec.update(depth=3), "depth"),
            (lambda spec: spec.update(image_size="48"), "image_size"),
            (lambda spec: spec.update(background="0.1"), "background"),
            (lambda spec: spec.update(n_negative_points=True), "n_negative_points"),
            (lambda spec: spec.update(count_range=[1, 2, 3]), "count_range"),
            (lambda spec: spec.update(shape_kinds="disk"), "shape_kinds"),
            (lambda spec: spec.update(radius_range=[5.0, 2.0]), "radius_range"),
        ],
        ids=["missing", "unknown", "wrong-type", "float-as-string", "bool", "long-range", "not-a-list", "empty-range"],
    )
    def test_bad_spec_echo_names_the_field(self, tmp_path, edit, field):
        path = tmp_path / "c.corpus"
        write_corpus(make_corpus(small_spec(), 2), path)
        blob = path.read_bytes()
        body = blob[4:-4]
        n = int.from_bytes(body[2:6], "little")
        spec = json.loads(body[6 : 6 + n])
        edit(spec)
        text = json.dumps(spec, sort_keys=True).encode()
        body = body[:2] + len(text).to_bytes(4, "little") + text + body[6 + n :]
        path.write_bytes(blob[:4] + body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(CorpusError, match=field):
            read_corpus(path)

    def test_numeric_spec_fields_take_any_number(self, tmp_path):
        # the constructor accepts floats for integer fields and ints for float ones
        corpus = make_corpus(small_spec(count_range=(1.0, 3.0), radius_range=(2, 3), background=0), 2)
        path = tmp_path / "c.corpus"
        write_corpus(corpus, path)
        assert corpora_equal(read_corpus(path), corpus)

    def test_duplicate_ids_rejected(self):
        corpus = make_corpus(small_spec(), 2)
        with pytest.raises(ValueError):
            Corpus(corpus.spec, "train", (corpus.items[0], corpus.items[0]))
