"""First-order update operators shared by the state solver and the fitter.

All three are deterministic maps (x, g) -> x'. Momentum and the adaptive
update keep internal state, so each optimization run gets fresh instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PlainStep:
    lr: float

    def update(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        return x - self.lr * g


@dataclass
class MomentumStep:
    lr: float
    beta: float = 0.9
    _v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")

    def update(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self._v is None:
            self._v = np.zeros_like(g)
        self._v = self.beta * self._v + g
        return x - self.lr * self._v


@dataclass
class AdamStep:
    """Adam-style adaptive step with bias correction.

    Larger eps makes the late phase behave like plain descent with rate
    lr/eps, which is what lets it converge tightly on quadratic costs.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _k: int = field(default=0, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1/beta2 must be in [0, 1)")

    def update(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(g)
            self._v = np.zeros_like(g)
        self._k += 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * g
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * g**2
        m_hat = self._m / (1.0 - self.beta1**self._k)
        v_hat = self._v / (1.0 - self.beta2**self._k)
        return x - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_step_operator(kind: str, **kwargs):
    """Factory: "plain", "momentum" or "adam" with their keyword knobs."""
    table = {"plain": PlainStep, "momentum": MomentumStep, "adam": AdamStep}
    if kind not in table:
        raise ValueError(f"unknown step operator {kind!r}; "
                         f"choose from {sorted(table)}")
    return table[kind](**kwargs)
