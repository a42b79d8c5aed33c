"""Command-line front end: data generation, training, evaluation, experiments.

Every subcommand reads an INI config (sections of flat key=value pairs),
takes ``--seed`` and ``--out``, writes its artifacts into the output
directory, and exits 0 only when every declared artifact was produced.
The key set per section is documented in the README.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from .datagen import Corpus, SceneSpec, make_corpus, read_corpus, write_corpus
from .harness import (
    ABLATION_VARIANTS,
    SIZE_BIAS_RATIOS,
    GuidanceConfig,
    StageData,
    TrainConfig,
    compute_metrics,
    guide_optimize,
    init_blob_params,
    predict_counts,
    render_blob_scene,
    run_ablation,
    size_bias_tables,
    threshold_sweep,
    train_stage,
)
from .losses import LossWeights
from .model import CountModel, ModelConfig, load_checkpoint, save_checkpoint
from .raster import ORACLE_THRESHOLD, oracle_count_components


class ConfigError(ValueError):
    """Raised for missing, unknown, or ill-typed config keys."""


def _field_keys(f) -> tuple[str, ...]:
    """The INI keys of dataclass field ``f``: a ``<x>_range`` pair has ``<x>_min`` and ``<x>_max``."""
    stem = f.name.removesuffix("_range")
    return (f"{stem}_min", f"{stem}_max") if stem != f.name else (f.name,)


def _keys(cls, *fixed) -> set[str]:
    """The keys of a section read into ``cls`` by ``_read``, less the ``fixed`` fields."""
    return {k for f in fields(cls) if f.name not in fixed for k in _field_keys(f)}


# Hyperparameters of one training stage: [train] and ablate's [strong-train]
# and [weak-train] all read them into a TrainConfig; the command sets the rest.
_TRAINING_KEYS = _keys(TrainConfig, "stage", "weights")

_SECTION_KEYS = {
    "scene": _keys(SceneSpec),
    "corpus": {"n", "split", "first_id"},
    "model": _keys(ModelConfig) | {"init_checkpoint"},
    "train": _TRAINING_KEYS | {"stage", "train_corpus", "val_corpus", "strong_mix_corpus"},
    "loss": _keys(LossWeights),
    "eval": {"checkpoint", "corpus", "kappa"},
    "size-bias": {"checkpoints", "corpus", "ratios", "by_size_class"},
    "threshold-sweep": {"checkpoint", "corpus", "kappas"},
    "guide": _keys(GuidanceConfig)
    | {"checkpoint", "category", "n_slots", "n_on", "seed"},
    "ablate": {
        "variants", "strong_train_corpus", "strong_val_corpus",
        "weak_train_corpus", "weak_val_corpus", "strong_mix_corpus",
        "eval_corpus",
    },
    "strong-train": _TRAINING_KEYS,
    "weak-train": _TRAINING_KEYS,
}


def _load_config(path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # configparser would copy these keys into every section, unchecked
    if cfg.defaults():
        raise ConfigError(f"keys under [DEFAULT] are not accepted: {sorted(cfg.defaults())}")
    for section in cfg.sections():
        allowed = _SECTION_KEYS.get(section)
        if allowed is None:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(cfg[section]) - allowed
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
    return cfg


def _section(cfg, name, required=False):
    if cfg.has_section(name):
        return cfg[name]
    if required:
        raise ConfigError(f"missing required section [{name}]")
    return cfg["DEFAULT"]  # empty; getters fall back to defaults


def _require(section, key, like=""):
    """``section[key]``, typed like ``like`` by ``_get``; a missing key is an error."""
    if section.get(key) is None:
        raise ConfigError(f"missing required key {key!r} in [{section.name}]")
    return _get(section, key, like)


def _get(section, key, default):
    """``section[key]`` typed like ``default``; ``default`` when the key is absent.

    A tuple default reads a comma list typed like its first item, the None
    default (``sigma``) a float with an empty value staying None, and a bool
    default configparser's boolean words. An ill-typed value, or a float
    that is not finite (``nan``, ``inf``), raises a ConfigError naming the
    section and key.
    """
    text = section.get(key)
    if text is None:
        return default
    try:
        if isinstance(default, bool):
            return section.getboolean(key)
        if isinstance(default, tuple):
            value = tuple(type(default[0])(v.strip()) for v in text.split(","))
        elif default is None:
            value = float(text) if text else None
        else:
            value = type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from None
    items = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"[{section.name}] {key}: {text!r} is not a finite number")
    return value


def _read(cfg, name, cls, **fixed):
    """Section ``name`` as the dataclass ``cls``, each field read by ``_get``
    like its default and a ``<x>_range`` pair from its two keys. ``fixed``
    fields are set, not read, unless None (``seed`` without ``--seed``)."""
    s = _section(cfg, name)
    values = {k: v for k, v in fixed.items() if v is not None}
    for f in fields(cls):
        if f.name not in values:
            keys = _field_keys(f)
            if len(keys) == 1:
                values[f.name] = _get(s, f.name, f.default)
            else:
                values[f.name] = tuple(_get(s, k, d) for k, d in zip(keys, f.default))
    return cls(**values)


def _read_corpus_at(section, key) -> Corpus:
    path = _require(section, key)
    if not os.path.exists(path):
        raise ConfigError(f"corpus file not found: {path}")
    return read_corpus(path)


def _checkpoint_at(path) -> CountModel:
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_summary(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(cfg, seed, outdir):
    spec = _read(cfg, "scene", SceneSpec, seed=seed)
    c = _section(cfg, "corpus")
    n = _get(c, "n", 100)
    if n < 1:
        raise ConfigError(f"[corpus] n must be at least 1, got {n}")
    split = c.get("split", "train")
    first_id = _get(c, "first_id", 0)
    corpus = make_corpus(spec, n, split=split, first_id=first_id)

    corpus_path = os.path.join(outdir, "corpus.bin")
    write_corpus(corpus, corpus_path)
    counts = [s.scene.count(s.category_id) for s in corpus.samples()]
    _write_summary(
        os.path.join(outdir, "summary.txt"),
        [
            f"scenes: {n}",
            f"split: {split}",
            f"scene ids: {first_id}..{first_id + n - 1}",
            f"counts: min {min(counts)} max {max(counts)} mean {np.mean(counts):.2f}",
            f"spec: {spec.to_json()}",
        ],
    )
    return [corpus_path, os.path.join(outdir, "summary.txt")]


def _load_model(cfg):
    s = _section(cfg, "model")
    init = s.get("init_checkpoint")
    if init:
        return _checkpoint_at(init)
    return CountModel.create(_read(cfg, "model", ModelConfig))


def cmd_train(cfg, seed, outdir):
    t = _section(cfg, "train", required=True)
    stage = t.get("stage", "strong")
    weights = _read(cfg, "loss", LossWeights)
    config = _read(cfg, "train", TrainConfig, stage=stage, weights=weights, seed=seed)

    train = _read_corpus_at(t, "train_corpus")
    val = _read_corpus_at(t, "val_corpus")
    mix = _read_corpus_at(t, "strong_mix_corpus") if t.get("strong_mix_corpus") else None
    data = StageData(train, val, strong_mix=mix)

    model = _load_model(cfg)
    model, log = train_stage(model, data, config)

    ckpt_path = os.path.join(outdir, "model.ckpt")
    save_checkpoint(model, ckpt_path)
    log_path = os.path.join(outdir, "train_log.csv")
    _write_csv(log_path, list(log[0]), [list(r.values()) for r in log])
    best = min(r["val_mae"] for r in log)
    summary_path = os.path.join(outdir, "summary.txt")
    _write_summary(
        summary_path,
        [
            f"stage: {stage}",
            f"epochs run: {len(log)} of {config.epochs}",
            f"best val MAE: {best:.4f} (checkpoint restored to this epoch)",
            f"final val RMSE: {log[-1]['val_rmse']:.4f}",
        ],
    )
    return [ckpt_path, log_path, summary_path]


def cmd_eval(cfg, seed, outdir):
    s = _section(cfg, "eval", required=True)
    model = _checkpoint_at(_require(s, "checkpoint"))
    corpus = _read_corpus_at(s, "corpus")
    kappa = _get(s, "kappa", 0.0)

    preds = predict_counts(model, corpus, kappa)
    truths = [item.sample.scene.count(item.sample.category_id) for item in corpus.items]
    rows = [[item.scene_id, t, p, p - t] for item, t, p in zip(corpus.items, truths, preds)]
    m = compute_metrics(preds, truths)

    per_image = os.path.join(outdir, "per_image.csv")
    _write_csv(per_image, ["scene_id", "truth", "pred", "error"], rows)
    summary_path = os.path.join(outdir, "summary.txt")
    _write_summary(
        summary_path,
        [f"images: {m.n}", f"kappa: {kappa}", f"MAE: {m.mae:.4f}", f"RMSE: {m.rmse:.4f}"],
    )
    return [per_image, summary_path]


def _named_checkpoints(value) -> dict[str, str]:
    pairs = {}
    for entry in (e.strip() for e in value.split(",")):
        name, _, path = entry.partition("=")
        if not name or not path:
            raise ConfigError(f"checkpoints entries must be name=path, got {entry!r}")
        if name in pairs:
            raise ConfigError(f"checkpoints entry {entry!r} repeats the model name {name!r}")
        pairs[name] = path
    return pairs


def cmd_size_bias(cfg, seed, outdir):
    s = _section(cfg, "size-bias", required=True)
    corpus = _read_corpus_at(s, "corpus")
    ratios = _get(s, "ratios", SIZE_BIAS_RATIOS)
    by_size_class = _get(s, "by_size_class", False)
    models = {
        name: _checkpoint_at(path)
        for name, path in _named_checkpoints(_require(s, "checkpoints")).items()
    }

    rows, cls_rows = size_bias_tables(models, corpus, ratios, by_size_class)
    table_path = os.path.join(outdir, "size_bias.csv")
    _write_csv(
        table_path,
        ["model", "ratio", "mean_drift", "mean_abs_drift", "mae"],
        [[r.model, r.ratio, r.mean_drift, r.mean_abs_drift, r.mae] for r in rows],
    )
    artifacts = [table_path]

    lines = ["model,ratio -> mean drift (objects)"]
    for r in rows:
        lines.append(f"  {r.model} @ {r.ratio}: drift {r.mean_drift:+.3f}, MAE {r.mae:.3f}")

    if by_size_class:
        cls_path = os.path.join(outdir, "size_class_drift.csv")
        _write_csv(
            cls_path,
            ["model", "ratio", "size_class", "mean_drift", "n"],
            [[r.model, r.ratio, r.size_class, r.mean_drift, r.n] for r in cls_rows],
        )
        artifacts.append(cls_path)
        lines.append("size-class breakdown written to size_class_drift.csv")

    summary_path = os.path.join(outdir, "summary.txt")
    _write_summary(summary_path, lines)
    return artifacts + [summary_path]


def cmd_threshold_sweep(cfg, seed, outdir):
    s = _section(cfg, "threshold-sweep", required=True)
    model = _checkpoint_at(_require(s, "checkpoint"))
    corpus = _read_corpus_at(s, "corpus")
    kappas = _get(s, "kappas", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))

    rows, best = threshold_sweep(model, corpus, kappas)
    table_path = os.path.join(outdir, "threshold_sweep.csv")
    _write_csv(table_path, ["kappa", "mae", "rmse"], [[r.kappa, r.mae, r.rmse] for r in rows])
    summary_path = os.path.join(outdir, "summary.txt")
    _write_summary(
        summary_path,
        [f"kappa {r.kappa:.2f}: MAE {r.mae:.4f} RMSE {r.rmse:.4f}" for r in rows]
        + [f"best kappa by MAE: {best}"],
    )
    return [table_path, summary_path]


def cmd_guide(cfg, seed, outdir):
    s = _section(cfg, "guide", required=True)
    q_req = _require(s, "q_req", 0.0)
    gcfg = _read(cfg, "guide", GuidanceConfig, q_req=q_req)
    model = _checkpoint_at(_require(s, "checkpoint"))
    rng_seed = seed if seed is not None else _get(s, "seed", 0)
    rng = np.random.default_rng(rng_seed)
    # Default start: two blobs short of the request. The counter's
    # gradient cannot reach blobs that start far outside the visible
    # range, so guidance works best closing a small gap from below.
    n_on = _get(s, "n_on", max(0, int(round(q_req)) - 2))
    params = init_blob_params(
        rng,
        n_slots=_get(s, "n_slots", max(12, n_on + 3)),
        n_on=n_on,
        canvas=model.config.input_size,
    )
    category = _get(s, "category", 0)
    best, trajectory = guide_optimize(model, params, gcfg, category_id=category)

    image = render_blob_scene(ad.Tape(), best, best.as_dict())  # constants: nothing recorded
    components = oracle_count_components(image, ORACLE_THRESHOLD)
    final_pred = model.predict_count(image, category)

    traj_path = os.path.join(outdir, "trajectory.csv")
    _write_csv(
        traj_path, ["step", "loss", "count"], [[r.step, r.loss, r.count] for r in trajectory]
    )
    summary_path = os.path.join(outdir, "summary.txt")
    _write_summary(
        summary_path,
        [
            f"requested count: {q_req}",
            f"steps used: {len(trajectory)} of {gcfg.max_steps}",
            f"final predicted count: {final_pred:.3f}",
            f"connected components at threshold {ORACLE_THRESHOLD}: {components}",
            "component count stands in for a human count of the rendered scene",
        ],
    )
    return [traj_path, summary_path]


def cmd_ablate(cfg, seed, outdir):
    s = _section(cfg, "ablate", required=True)
    if _section(cfg, "model").get("init_checkpoint"):
        raise ConfigError("[model] init_checkpoint is read by train only; ablate trains from scratch")
    variants = _get(s, "variants", ABLATION_VARIANTS)

    weights = _read(cfg, "loss", LossWeights)
    strong_cfg = _read(cfg, "strong-train", TrainConfig, stage="strong", weights=weights, seed=seed)
    weak_cfg = _read(cfg, "weak-train", TrainConfig, stage="weak", weights=weights, seed=seed)

    strong_data = StageData(
        _read_corpus_at(s, "strong_train_corpus"), _read_corpus_at(s, "strong_val_corpus")
    )
    mix = (
        _read_corpus_at(s, "strong_mix_corpus")
        if s.get("strong_mix_corpus")
        else strong_data.train
    )
    weak_data = StageData(
        _read_corpus_at(s, "weak_train_corpus"),
        _read_corpus_at(s, "weak_val_corpus"),
        strong_mix=mix,
    )
    eval_corpus = _read_corpus_at(s, "eval_corpus")

    model_cfg = _read(cfg, "model", ModelConfig)
    rows = run_ablation(variants, model_cfg, strong_data, weak_data, eval_corpus, strong_cfg, weak_cfg)
    table_path = os.path.join(outdir, "ablation.csv")
    _write_csv(
        table_path,
        ["variant", "mae", "rmse", "alpha1", "beta1", "alpha2", "beta2", "gamma"],
        [
            [r.variant, r.mae, r.rmse, r.weights.alpha1, r.weights.beta1,
             r.weights.alpha2, r.weights.beta2, r.weights.gamma]
            for r in rows
        ],
    )
    summary_path = os.path.join(outdir, "summary.txt")
    _write_summary(
        summary_path,
        [f"{r.variant}: MAE {r.mae:.4f} RMSE {r.rmse:.4f}" for r in rows],
    )
    return [table_path, summary_path]


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "size-bias": cmd_size_bias,
    "threshold-sweep": cmd_threshold_sweep,
    "guide": cmd_guide,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="countgrad",
        description="Cardinality-map counting: data, training, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory for artifacts")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        artifacts = _COMMANDS[args.command](cfg, args.seed, args.out)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [p for p in artifacts if not (os.path.exists(p) and os.path.getsize(p) > 0)]
    for p in artifacts:
        print(f"wrote {p}")
    if missing:
        print(f"error: missing artifacts: {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
