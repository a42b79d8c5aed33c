"""Checking analytic gradients against central finite differences.

Every differentiable operation ships with a hand-derived adjoint, and
grad_check probes them numerically: perturb one input coordinate by
plus/minus h, difference the outputs, compare with the tape's gradient.
The checker also understands kinks. Operations like l1_diff, clamp and
conv2d's rectifier record which side of their kink each element
evaluated on, and coordinates whose probe stencil straddles a kink are
excluded rather than allowed to produce a false alarm.
"""

import numpy as np

from countgrad import autodiff as ad

rng = np.random.default_rng(3)

# A single primitive: convolution, checked at a random point.
x = rng.normal(size=(6, 6, 2))
kernel = rng.normal(size=(3, 3, 2, 3))


def conv_loss(v):
    k = ad.new_param(v.tape, kernel)
    return ad.reduce_sum(ad.conv2d(v, k, stride=1, padding=1))


res = ad.grad_check(conv_loss, x)
print(f"conv2d wrt input : max relative error {res.max_rel_error:.2e}")


def conv_loss_k(v):
    xx = ad.new_param(v.tape, x)
    return ad.reduce_sum(ad.conv2d(xx, v, stride=1, padding=1))


res = ad.grad_check(conv_loss_k, kernel)
print(f"conv2d wrt kernel: max relative error {res.max_rel_error:.2e}")


# A composite expression through several primitives at once. The kernel is
# drawn once: the function must be the same at every probe of the check.
w_composite = rng.normal(size=(4, 4, 1, 2))


def composite(v):
    w = ad.new_param(v.tape, w_composite)
    h = ad.conv2d(v, w, stride=2, padding=1, slope=0.1)  # leaky ReLU applied in place
    return ad.reduce_sum(ad.mul(ad.sigmoid(h), h))


y = rng.uniform(0.2, 0.8, size=(8, 8, 1))
res = ad.grad_check(composite, y)
print(
    f"composite        : max relative error {res.max_rel_error:.2e} over {y.size} coordinates, "
    f"{len(res.kink_coords)} kink coordinates"
)

# Kink handling: evaluate l1_diff (a sum of |v - target|) exactly at a zero
# residual and the result says so.
z = np.array([0.0, 1.0, -2.0])
res = ad.grad_check(lambda v: ad.l1_diff(v, np.zeros(3)), z)
print(f"l1_diff at a kink: at_kink={res.at_kink}, kink coords {res.kink_coords}")

# Near-kink coordinates are excluded when the probe stencil would straddle.
z2 = np.array([5e-6, 1.0, -2.0])
res = ad.grad_check(lambda v: ad.l1_diff(v, np.zeros(3)), z2, step=1e-5)
print(f"near-kink probe: excluded {res.kink_coords}, error elsewhere {res.max_rel_error:.2e}")
