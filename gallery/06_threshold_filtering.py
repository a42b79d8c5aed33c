"""Filtering the count with the classification threshold kappa.

At a threshold kappa, CountModel.counts sums cardinality mass only over
cells whose predicted class probability exceeds kappa. On a corpus where
every visible object belongs to the target category, any filtering can
only remove true mass, so kappa = 0 is optimal. On a corpus with
distractor objects of another category, mid-range kappa suppresses mass
the count head leaks onto distractor cells, and the best threshold moves
off zero.
"""

from countgrad.datagen import SceneSpec, make_corpus
from countgrad.harness import StageData, TrainConfig, threshold_sweep, train_stage
from countgrad.model import CountModel, ModelConfig

# Same geometry, two worlds: one clean, one with square distractors mixed
# into disk scenes (and vice versa).
clean_spec = SceneSpec(count_range=(2, 8), seed=23)
mixed_spec = SceneSpec(count_range=(2, 8), distractor_range=(3, 6), seed=23)

train = make_corpus(mixed_spec, 800)
val = make_corpus(mixed_spec, 80, split="val", first_id=10_000)
clean_eval = make_corpus(clean_spec, 80, split="eval", first_id=20_000)
mixed_eval = make_corpus(mixed_spec, 80, split="eval", first_id=20_000)

cfg = TrainConfig(stage="strong", epochs=10, batch_size=16, patience=8, seed=0)
model = CountModel.create(ModelConfig(seed=0))
model, _ = train_stage(model, StageData(train, val), cfg)

kappas = tuple(k / 10 for k in range(10))
for label, corpus in (("clean", clean_eval), ("with distractors", mixed_eval)):
    rows, best = threshold_sweep(model, corpus, kappas)
    print(f"\n{label} corpus:")
    for r in rows:
        marker = " <- best" if r.kappa == best else ""
        print(f"  kappa {r.kappa:.1f}: MAE {r.mae:.3f}{marker}")
