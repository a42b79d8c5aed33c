"""Steering a differentiable scene toward a requested object count.

The trained counter is frozen and a blob-scene latent (per-slot presence
logits, centers, radii, intensities) is optimized by gradient descent on
|predicted count - Q_req|. Gradients flow through the model into the
renderer; the model itself never changes. This is the desk-scale analog
of steering a text-to-image generator with a counting loss.

The start matters: the counter's gradient only reaches blobs that are
at least faintly visible, so guidance reliably closes a small gap from
below rather than conjuring many objects from nothing. We start two
blobs short of the request, the way a prompt-conditioned generator
starts near, but not at, the requested count.
"""

import numpy as np

from countgrad import autodiff as ad
from countgrad.datagen import SceneSpec, make_corpus
from countgrad.harness import (
    GuidanceConfig,
    StageData,
    TrainConfig,
    guide_optimize,
    init_blob_params,
    render_blob_scene,
    train_stage,
)
from countgrad.model import CountModel, ModelConfig
from countgrad.raster import ORACLE_THRESHOLD, oracle_count_components

# A quickly trained counter is enough to demonstrate control.
spec = SceneSpec(count_range=(1, 10), seed=5)
model = CountModel.create(ModelConfig(seed=0))
model, _ = train_stage(
    model,
    StageData(make_corpus(spec, 800), make_corpus(spec, 80, split="val", first_id=10_000)),
    TrainConfig(stage="strong", epochs=10, batch_size=16, patience=8, seed=0),
)

q_req = 8.0
rng = np.random.default_rng(1)
params = init_blob_params(rng, n_slots=12, n_on=6)

start_img = render_blob_scene(ad.Tape(), params, params.as_dict())
print(f"start: model sees {model.predict_count(start_img, 0):.2f} blobs, "
      f"oracle sees {oracle_count_components(start_img, ORACLE_THRESHOLD)}")

best, trajectory = guide_optimize(model, params, GuidanceConfig(q_req=q_req), category_id=0)

print(f"\noptimizing toward Q_req = {q_req:.0f}:")
for rec in trajectory[:: max(1, len(trajectory) // 10)]:
    print(f"  step {rec.step:3d}: loss {rec.loss:7.3f}, predicted count {rec.count:.2f}")

final_img = render_blob_scene(ad.Tape(), best, best.as_dict())
pred = model.predict_count(final_img, 0)
comps = oracle_count_components(final_img, ORACLE_THRESHOLD)
print(f"\nfinal: {len(trajectory)} steps, predicted {pred:.2f}, "
      f"connected components {comps} (requested {q_req:.0f})")

# ASCII rendering of the final scene, one character per 2x2 pixel block.
shades = " .:-=+*#"
small = final_img.reshape(32, 2, 32, 2).mean(axis=(1, 3))
lo, hi = small.min(), small.max()
for row in (np.clip((small - lo) / (hi - lo + 1e-12), 0, 1) * (len(shades) - 1)).astype(int):
    print("".join(shades[v] for v in row))
