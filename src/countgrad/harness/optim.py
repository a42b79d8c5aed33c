"""Adaptive-moment gradient descent over named parameter dictionaries."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]

_BETA1 = 0.9  # decay of the first-moment (mean) estimate
_BETA2 = 0.999  # decay of the second-moment (uncentred variance) estimate
# _EPS doubles as a gradient floor: coordinates whose gradient RMS falls
# below it move proportionally slower instead of at the full rate. An
# absolute-error objective keeps a constant-sign gradient on cells whose
# target is exactly zero, so without the floor those cells drag shared
# head weights downward at full speed forever.
_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction and a per-parameter learning rate.

    ``lr_map`` assigns each parameter name its step size, which is how the
    two-group policy (slow trunk, fast heads) is expressed.
    """

    def __init__(self, lr_map: dict[str, float]):
        if any(lr <= 0 for lr in lr_map.values()):
            raise ValueError("learning rates must be positive")
        self.lr = dict(lr_map)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, weights: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update ``weights`` in place from one gradient evaluation."""
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        for name, g in grads.items():
            if name not in self.lr:
                raise KeyError(f"no learning rate configured for {name}")
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(g, dtype=np.float64)
                self._v[name] = np.zeros_like(g, dtype=np.float64)
            v = self._v[name]
            m += (1.0 - _BETA1) * (g - m)
            v += (1.0 - _BETA2) * (g * g - v)
            weights[name] = weights[name] - self.lr[name] * (m / c1) / (np.sqrt(v / c2) + _EPS)

    def restart_momentum(self) -> None:
        """Zero every first-moment estimate; second moments and the step count stay."""
        for m in self._m.values():
            m.fill(0.0)
