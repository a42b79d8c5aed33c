"""End-to-end command-line runs against tiny corpora and models."""

import importlib
import os
import re
import shutil
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import countgrad
from countgrad.cli import _SECTION_KEYS, _load_config, _read, main
from countgrad.datagen import SceneSpec, corpora_equal, read_corpus
from countgrad.harness import GuidanceConfig, TrainConfig
from countgrad.losses import LossWeights
from countgrad.model import CountModel, ModelConfig, load_checkpoint

TINY_SCENE = """
    [scene]
    image_size = 16
    count_min = 1
    count_max = 3
    radius_min = 1.5
    radius_max = 2.5
    min_separation = 0.8
    n_negative_points = 4
    seed = 3
"""

TINY_MODEL = """
    [model]
    input_size = 16
    channels = 2,3,4
    fused_channels = 4
    embed_dim = 3
    seed = 2
"""


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def gen_corpus(tmp_path, subdir, n=8, split="train", first_id=0, extra=""):
    cfg = write_config(
        tmp_path,
        f"gen_{subdir}.ini",
        TINY_SCENE + f"""
    [corpus]
    n = {n}
    split = {split}
    first_id = {first_id}
    """ + extra,
    )
    out = tmp_path / subdir
    assert main(["gen-data", cfg, "--out", str(out)]) == 0
    return str(out / "corpus.bin")


class TestGenData:
    def test_writes_readable_corpus(self, tmp_path):
        path = gen_corpus(tmp_path, "c1", n=5)
        corpus = read_corpus(path)
        assert len(corpus) == 5
        assert corpus.split == "train"
        summary = (tmp_path / "c1" / "summary.txt").read_text()
        assert "scenes: 5" in summary

    def test_seed_override_changes_content(self, tmp_path):
        cfg = write_config(tmp_path, "g.ini", TINY_SCENE + "\n[corpus]\nn = 3\n")
        assert main(["gen-data", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["gen-data", cfg, "--seed", "99", "--out", str(tmp_path / "b")]) == 0
        a = read_corpus(str(tmp_path / "a" / "corpus.bin"))
        b = read_corpus(str(tmp_path / "b" / "corpus.bin"))
        assert not corpora_equal(a, b)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.ini", "[scene]\nimage_sz = 16\n")
        assert main(["gen-data", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad2.ini", "[scenery]\nimage_size = 16\n")
        assert main(["gen-data", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown config section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nimage_size = 16\nepochs = 3\n", "[DEFAULT]\nimage_size = 16\n[corpus]\nn = 2\n"],
        ids=["alone", "with-section"],
    )
    def test_default_section_keys_rejected(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, "d.ini", text)
        out = tmp_path / "o"
        assert main(["gen-data", cfg, "--out", str(out)]) == 1
        assert "keys under [DEFAULT] are not accepted: " in capsys.readouterr().err
        assert not (out / "corpus.bin").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["gen-data", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_zero_scenes_rejected_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g0.ini", TINY_SCENE + "\n[corpus]\nn = 0\n")
        out = tmp_path / "o"
        assert main(["gen-data", cfg, "--out", str(out)]) == 1
        assert "[corpus] n must be at least 1" in capsys.readouterr().err
        assert not (out / "corpus.bin").exists()

    def test_negative_first_id_rejected_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gneg.ini", TINY_SCENE + "\n[corpus]\nn = 2\nfirst_id = -3\n")
        out = tmp_path / "o"
        assert main(["gen-data", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: first_id must be non-negative, got -3\n"
        assert not (out / "corpus.bin").exists()


TRAINING = """
    lr_heads = 2e-3
    lr_trunk = 3e-4
    epochs = 3
    batch_size = 8
    patience = 2
    seed = 4
    target = density
    sigma = 1.5
"""
WEIGHTS = LossWeights(alpha1=0.5, beta1=0.2, alpha2=0.7, beta2=0.3, gamma=0.1)
TRAINED = dict(
    lr_heads=2e-3, lr_trunk=3e-4, epochs=3, batch_size=8, patience=2, seed=4,
    target="density", sigma=1.5,
)
# Keys a command reads itself rather than into the section's dataclass.
COMMAND_KEYS = {
    "model": {"init_checkpoint"},
    "train": {"stage", "train_corpus", "val_corpus", "strong_mix_corpus"},
    "guide": {"checkpoint", "category", "n_slots", "n_on", "seed"},
}


class TestTypedSections:
    @pytest.mark.parametrize(
        "section, text, cls, fixed, expected",
        [
            ("scene", """
    image_size = 32
    shape_kinds = square, disk
    count_min = 2
    count_max = 9
    radius_min = 1.5
    radius_max = 3.25
    min_separation = 0.7
    background = 0.2
    intensity_min = 0.6
    intensity_max = 0.95
    noise_amplitude = 0.03
    n_negative_points = 7
    distractor_min = 1
    distractor_max = 3
    seed = 5
    """, SceneSpec, {}, SceneSpec(
                image_size=32, shape_kinds=("square", "disk"), count_range=(2, 9),
                radius_range=(1.5, 3.25), min_separation=0.7, background=0.2,
                intensity_range=(0.6, 0.95), noise_amplitude=0.03, n_negative_points=7,
                distractor_range=(1, 3), seed=5,
            )),
            ("model", """
    input_size = 32
    channels = 4, 5,6
    fused_channels = 7
    embed_dim = 3
    num_categories = 3
    seed = 9
    """, ModelConfig, {}, ModelConfig(
                input_size=32, channels=(4, 5, 6), fused_channels=7, embed_dim=3,
                num_categories=3, seed=9,
            )),
            ("loss", """
    alpha1 = 0.5
    beta1 = 0.2
    alpha2 = 0.7
    beta2 = 0.3
    gamma = 0.1
    """, LossWeights, {}, WEIGHTS),
            ("train", TRAINING, TrainConfig, {"stage": "weak", "weights": WEIGHTS},
             TrainConfig(stage="weak", weights=WEIGHTS, **TRAINED)),
            ("strong-train", TRAINING, TrainConfig, {"stage": "strong", "weights": WEIGHTS},
             TrainConfig(stage="strong", weights=WEIGHTS, **TRAINED)),
            ("weak-train", TRAINING, TrainConfig, {"stage": "weak", "weights": WEIGHTS},
             TrainConfig(stage="weak", weights=WEIGHTS, **TRAINED)),
            ("guide", """
    q_req = 7.5
    max_steps = 40
    plateau_patience = 6
    """, GuidanceConfig, {"q_req": 7.5}, GuidanceConfig(
                q_req=7.5, max_steps=40, plateau_patience=6,
            )),
        ],
        ids=["scene", "model", "loss", "train", "strong-train", "weak-train", "guide"],
    )
    def test_every_key_reads_into_its_field(self, tmp_path, section, text, cls, fixed, expected):
        cfg = _load_config(write_config(tmp_path, "all.ini", f"[{section}]" + text))
        assert set(cfg[section]) == _SECTION_KEYS[section] - COMMAND_KEYS.get(section, set())
        assert expected != cls(**fixed)  # every value differs from its default
        assert _read(cfg, section, cls, **fixed) == expected
        if hasattr(expected, "seed"):
            assert _read(cfg, section, cls, **fixed, seed=11) == replace(expected, seed=11)

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("train", "[train]\nepochs = 2.5\n", "error: [train] epochs: invalid literal for int()"),
            ("gen-data", "[scene]\ncount_max = many\n", "error: [scene] count_max: invalid literal"),
            ("gen-data", "[corpus]\nn = 1e3\n", "error: [corpus] n: invalid literal for int()"),
            ("guide", "[guide]\nq_req = 3\nmax_steps = 2.5\n",
             "error: [guide] max_steps: invalid literal for int()"),
        ],
        ids=["derived", "derived-range", "not-derived", "guide"],
    )
    def test_ill_typed_value_names_section_and_key(self, tmp_path, capsys, command, text, message):
        cfg = write_config(tmp_path, "bad.ini", text)
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("gen-data", "[scene]\nradius_max = nan\n", "error: [scene] radius_max: 'nan' is not"),
            ("gen-data", "[scene]\nnoise_amplitude = inf\n",
             "error: [scene] noise_amplitude: 'inf' is not"),
            ("train", "[train]\nlr_heads = nan\n", "error: [train] lr_heads: 'nan' is not"),
            ("guide", "[guide]\nq_req = nan\n", "error: [guide] q_req: 'nan' is not"),
        ],
        ids=["range", "scene", "train", "guide"],
    )
    def test_non_finite_value_names_section_and_key(self, tmp_path, capsys, command, text, message):
        cfg = write_config(tmp_path, "bad.ini", text)
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(message + " a finite number")


def readme_config_sections():
    """{section: documented keys} from the README's "Config sections and keys".

    Each paragraph there opens with one or more `[section]` names, then a
    colon, then the keys in backticks. Parenthesized asides (values,
    defaults, other sections) are dropped first; tokens with dots, commas
    or bars (file names, value lists) are not keys.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    part = text.split("### Config sections and keys", 1)[1].split("Minimal example:", 1)[0]
    documented = {}
    for para in part.split("\n\n"):
        if not para.startswith("`["):
            continue
        head, _, body = re.sub(r"\([^()]*\)", "", para).partition(":")
        keys = set(re.findall(r"`([a-z][a-z0-9_]*)`", body))
        for name in re.findall(r"`\[([a-z-]+)\]`", head):
            documented[name] = keys
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0], documented


class TestReadmeConfigKeys:
    def test_every_named_section_is_accepted(self):
        cli_text, documented = readme_config_sections()
        named = set(re.findall(r"`\[([a-z-]+)\]`", cli_text))
        assert named, "no sections found in the README"
        assert named <= set(_SECTION_KEYS)
        assert set(documented) == set(_SECTION_KEYS)

    @pytest.mark.parametrize("section", sorted(_SECTION_KEYS))
    def test_documented_keys_equal_accepted_keys(self, section):
        _, documented = readme_config_sections()
        keys = documented.get(section, set())
        assert keys - _SECTION_KEYS[section] == set(), "documented but rejected"
        assert _SECTION_KEYS[section] - keys == set(), "accepted but undocumented"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny gen-data + train run shared by the downstream command tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    train_corpus = gen_corpus(tmp_path, "train_c", n=8)
    val_corpus = gen_corpus(tmp_path, "val_c", n=4, split="val", first_id=9000)
    cfg = write_config(
        tmp_path,
        "train.ini",
        TINY_MODEL + f"""
    [train]
    stage = strong
    train_corpus = {train_corpus}
    val_corpus = {val_corpus}
    epochs = 2
    batch_size = 4
    seed = 0
    """,
    )
    out = tmp_path / "run"
    assert main(["train", cfg, "--out", str(out)]) == 0
    return tmp_path, str(out / "model.ckpt"), train_corpus, val_corpus


class TestTrain:
    def test_artifacts(self, trained):
        tmp_path, ckpt, _, _ = trained
        out = tmp_path / "run"
        model = load_checkpoint(ckpt)
        assert model.config.input_size == 16
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("epoch,loss_cnt")
        assert len(log) == 3  # header + 2 epochs
        assert "best val MAE" in (out / "summary.txt").read_text()

    def test_init_checkpoint_resume(self, trained, tmp_path):
        _, ckpt, train_corpus, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "resume.ini",
            f"""
    [model]
    init_checkpoint = {ckpt}
    [train]
    stage = strong
    train_corpus = {train_corpus}
    val_corpus = {val_corpus}
    epochs = 1
    batch_size = 4
    """,
        )
        out = tmp_path / "resumed"
        assert main(["train", cfg, "--out", str(out)]) == 0
        resumed = load_checkpoint(str(out / "model.ckpt"))
        assert resumed.config.input_size == 16

    def test_zero_fused_channels_rejected(self, trained, tmp_path, capsys):
        _, _, train_corpus, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "fc0.ini",
            TINY_MODEL.replace("fused_channels = 4", "fused_channels = 0") + f"""
    [train]
    stage = strong
    train_corpus = {train_corpus}
    val_corpus = {val_corpus}
    epochs = 1
    batch_size = 4
    """,
        )
        out = tmp_path / "fc0"
        assert main(["train", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fused_channels must be positive, got 0")
        assert not (out / "model.ckpt").exists()

    def test_missing_corpus_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "t.ini",
            TINY_MODEL + """
    [train]
    train_corpus = /nonexistent/corpus.bin
    val_corpus = /nonexistent/corpus.bin
    """,
        )
        assert main(["train", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "not found" in capsys.readouterr().err


class TestEval:
    def test_per_image_and_summary(self, trained, tmp_path):
        _, ckpt, _, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "eval.ini",
            f"""
    [eval]
    checkpoint = {ckpt}
    corpus = {val_corpus}
    kappa = 0.2
    """,
        )
        out = tmp_path / "ev"
        assert main(["eval", cfg, "--out", str(out)]) == 0
        rows = (out / "per_image.csv").read_text().splitlines()
        assert rows[0] == "scene_id,truth,pred,error"
        assert len(rows) == 5  # header + 4 val images
        assert "MAE" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("image_size", [16, 32])
    def test_outputs_match_per_image_counts_byte_for_byte(self, trained, tmp_path, image_size):
        # 6 scenes leave a partial last chunk of batched forwards; the files
        # must be exactly what one model.counts call per image gives, in the
        # established CSV and summary format. Images larger than the model
        # input (32 px against 16) are tiled at its size, unasked.
        _, ckpt, _, _ = trained
        gen = write_config(
            tmp_path,
            "gen6.ini",
            TINY_SCENE.replace("image_size = 16", f"image_size = {image_size}")
            + "\n[corpus]\nn = 6\nsplit = test\n",
        )
        assert main(["gen-data", gen, "--out", str(tmp_path / "c6")]) == 0
        corpus_path = tmp_path / "c6" / "corpus.bin"
        cfg = write_config(
            tmp_path,
            "eval6.ini",
            f"[eval]\ncheckpoint = {ckpt}\ncorpus = {corpus_path}\nkappa = 0.2\n",
        )
        out = tmp_path / "ev6"
        assert main(["eval", cfg, "--out", str(out)]) == 0

        model = load_checkpoint(ckpt)
        corpus = read_corpus(str(corpus_path))
        assert {it.sample.category_id for it in corpus.items} == {0, 1}
        lines, errs = ["scene_id,truth,pred,error"], []
        for item in corpus.items:
            s = item.sample
            truth = s.scene.count(s.category_id)
            pred = model.counts([s.scene.image], s.category_id, (0.2,))[0][0]
            lines.append(f"{item.scene_id},{truth},{pred!r},{pred - truth!r}")
            errs.append(pred - truth)
        err = np.array(errs)
        summary = (
            f"images: 6\nkappa: 0.2\nMAE: {np.abs(err).mean():.4f}\n"
            f"RMSE: {np.sqrt((err**2).mean()):.4f}\n"
        )
        assert (out / "per_image.csv").read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
        assert (out / "summary.txt").read_bytes() == summary.encode()

    def test_missing_required_key(self, trained, tmp_path, capsys):
        _, _, _, val_corpus = trained
        cfg = write_config(tmp_path, "e.ini", f"[eval]\ncorpus = {val_corpus}\n")
        assert main(["eval", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_images_smaller_than_input_rejected(self, trained, tmp_path, capsys):
        _, ckpt, _, _ = trained
        gen = write_config(
            tmp_path,
            "gen8.ini",
            TINY_SCENE.replace("image_size = 16", "image_size = 8") + "\n[corpus]\nn = 2\n",
        )
        assert main(["gen-data", gen, "--out", str(tmp_path / "c8")]) == 0
        corpus_path = tmp_path / "c8" / "corpus.bin"
        cfg = write_config(tmp_path, "e8.ini", f"[eval]\ncheckpoint = {ckpt}\ncorpus = {corpus_path}\n")
        assert main(["eval", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "image shape (8, 8) does not match input size 16" in capsys.readouterr().err


class TestExperimentCommands:
    def test_size_bias(self, trained, tmp_path):
        _, ckpt, _, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "sb.ini",
            f"""
    [size-bias]
    checkpoints = a={ckpt}, b={ckpt}
    corpus = {val_corpus}
    ratios = 1.0,2.0
    by_size_class = true
    """,
        )
        out = tmp_path / "sb"
        assert main(["size-bias", cfg, "--out", str(out)]) == 0
        rows = (out / "size_bias.csv").read_text().splitlines()
        assert len(rows) == 5  # header + 2 models x 2 ratios
        assert (out / "size_class_drift.csv").exists()

    @pytest.mark.parametrize(
        "entries, bad",
        [
            ("a={ckpt}, a={ckpt}", "'a={ckpt}' repeats the model name 'a'"),
            ("a={ckpt}, ={ckpt}", "must be name=path, got '={ckpt}'"),
        ],
        ids=["repeated", "empty"],
    )
    def test_size_bias_rejects_bad_model_names(self, trained, tmp_path, capsys, entries, bad):
        _, ckpt, _, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "sb_bad.ini",
            f"[size-bias]\ncheckpoints = {entries.format(ckpt=ckpt)}\ncorpus = {val_corpus}\n",
        )
        out = tmp_path / "sb_bad"
        assert main(["size-bias", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoints entr") and bad.format(ckpt=ckpt) in err
        assert not (out / "size_bias.csv").exists()

    def test_size_bias_by_class_predicts_once(self, trained, tmp_path, monkeypatch):
        # 14 scenes run as 4 network evaluations (4+4+4+2) at each of ratios
        # 1, 2 and 3; every evaluation, on a tape or not, is one _network call
        _, ckpt, _, _ = trained
        corpus = gen_corpus(tmp_path, "sb14", n=14, split="test")
        calls = []
        network = CountModel._network

        def counted(self, *args, **kwargs):
            calls.append(1)
            return network(self, *args, **kwargs)

        monkeypatch.setattr(CountModel, "_network", counted)
        cfg = write_config(
            tmp_path,
            "sb14.ini",
            f"[size-bias]\ncheckpoints = a={ckpt}\ncorpus = {corpus}\nratios = 1,2,3\nby_size_class = true\n",
        )
        assert main(["size-bias", cfg, "--out", str(tmp_path / "sb14_out")]) == 0
        assert len(calls) == 12
        assert len((tmp_path / "sb14_out" / "size_class_drift.csv").read_text().splitlines()) > 1

    def test_threshold_sweep(self, trained, tmp_path):
        _, ckpt, _, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "ts.ini",
            f"""
    [threshold-sweep]
    checkpoint = {ckpt}
    corpus = {val_corpus}
    kappas = 0.0,0.3,0.6
    """,
        )
        out = tmp_path / "ts"
        assert main(["threshold-sweep", cfg, "--out", str(out)]) == 0
        rows = (out / "threshold_sweep.csv").read_text().splitlines()
        assert len(rows) == 4
        assert "best kappa by MAE" in (out / "summary.txt").read_text()

    def test_guide(self, trained, tmp_path):
        _, ckpt, _, _ = trained
        cfg = write_config(
            tmp_path,
            "gd.ini",
            f"""
    [guide]
    checkpoint = {ckpt}
    q_req = 2
    n_slots = 4
    n_on = 2
    max_steps = 6
    """,
        )
        out = tmp_path / "gd"
        assert main(["guide", cfg, "--seed", "1", "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "step,loss,count"
        assert 2 <= len(rows) <= 7
        summary = (out / "summary.txt").read_text()
        assert "requested count: 2" in summary
        assert "connected components" in summary

    def test_guide_zero_slots_rejected(self, trained, tmp_path, capsys):
        _, ckpt, _, _ = trained
        cfg = write_config(
            tmp_path, "gd0.ini", f"[guide]\ncheckpoint = {ckpt}\nq_req = 2\nn_slots = 0\n"
        )
        assert main(["guide", cfg, "--out", str(tmp_path / "gd0")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_slots" in err
        assert "Traceback" not in err

    def test_ablate(self, trained, tmp_path):
        _, _, train_corpus, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "ab.ini",
            TINY_MODEL + f"""
    [ablate]
    variants = no-weak
    strong_train_corpus = {train_corpus}
    strong_val_corpus = {val_corpus}
    weak_train_corpus = {train_corpus}
    weak_val_corpus = {val_corpus}
    eval_corpus = {val_corpus}

    [loss]
    gamma = 0.0

    [strong-train]
    epochs = 1
    batch_size = 4

    [weak-train]
    epochs = 1
    batch_size = 4
    """,
        )
        out = tmp_path / "ab"
        assert main(["ablate", cfg, "--out", str(out)]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("no-weak,")

    def test_init_checkpoint_rejected(self, trained, tmp_path, capsys):
        _, ckpt, train_corpus, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "ab3.ini",
            TINY_MODEL + f"""
    init_checkpoint = {ckpt}

    [ablate]
    variants = no-weak
    strong_train_corpus = {train_corpus}
    strong_val_corpus = {val_corpus}
    weak_train_corpus = {train_corpus}
    weak_val_corpus = {val_corpus}
    eval_corpus = {val_corpus}
    """,
        )
        out = tmp_path / "ab3"
        assert main(["ablate", cfg, "--out", str(out)]) == 1
        assert "init_checkpoint" in capsys.readouterr().err
        assert not (out / "ablation.csv").exists()

    def test_unknown_variant_fails(self, trained, tmp_path, capsys):
        _, _, train_corpus, val_corpus = trained
        cfg = write_config(
            tmp_path,
            "ab2.ini",
            TINY_MODEL + f"""
    [ablate]
    variants = no-such-thing
    strong_train_corpus = {train_corpus}
    strong_val_corpus = {val_corpus}
    weak_train_corpus = {train_corpus}
    weak_val_corpus = {val_corpus}
    eval_corpus = {val_corpus}
    """,
        )
        assert main(["ablate", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown variant" in capsys.readouterr().err


# One config per command that reads a checkpoint; train reads [model] init_checkpoint.
MISSING_CHECKPOINT = {
    "eval": "[eval]\ncheckpoint = {ckpt}\ncorpus = {corpus}\n",
    "threshold-sweep": "[threshold-sweep]\ncheckpoint = {ckpt}\ncorpus = {corpus}\n",
    "guide": "[guide]\ncheckpoint = {ckpt}\nq_req = 2\n",
    "size-bias": "[size-bias]\ncheckpoints = a={ckpt}\ncorpus = {corpus}\n",
    "train": "[model]\ninit_checkpoint = {ckpt}\n[train]\ntrain_corpus = {corpus}\nval_corpus = {corpus}\n",
}


@pytest.mark.parametrize("command", sorted(MISSING_CHECKPOINT))
def test_missing_checkpoint_is_reported_by_name(command, trained, tmp_path, capsys):
    _, _, _, val_corpus = trained
    ckpt = str(tmp_path / "nope.ckpt")
    cfg = write_config(tmp_path, "c.ini", MISSING_CHECKPOINT[command].format(ckpt=ckpt, corpus=val_corpus))
    out = tmp_path / "o"
    assert main([command, cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: checkpoint not found: {ckpt}\n"
    assert os.listdir(out) == []


def test_console_entry_point(tmp_path):
    # the script pyproject.toml declares resolves to a callable; run its module
    # as that script would run, and the installed script too where there is one
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    module, _, attr = project["project"]["scripts"]["countgrad"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    src = str(Path(countgrad.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    commands = [[sys.executable, "-m", module]]
    if shutil.which("countgrad") is not None:
        commands.append(["countgrad"])
    cfg = tmp_path / "gen.ini"
    cfg.write_text(textwrap.dedent(TINY_SCENE) + "\n[corpus]\nn = 2\n")
    for i, command in enumerate(commands):
        out = tmp_path / f"out{i}"
        proc = subprocess.run(
            [*command, "gen-data", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        assert read_corpus(str(out / "corpus.bin")).split == "train"
