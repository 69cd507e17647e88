"""SGD with Nesterov momentum and decoupled weight-decay selection."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from .autodiff import Tensor

__all__ = ["OptimState", "sgd_nesterov_step"]


class OptimState:
    """Optimizer hyperparameters plus per-parameter velocity buffers.

    Velocities are allocated lazily (zero-initialized) the first time a
    parameter is stepped. ``lr`` is mutable so a schedule can adjust it
    between epochs.
    """

    def __init__(self, lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocities: dict[Tensor, np.ndarray] = {}

    def velocity(self, param: Tensor) -> np.ndarray:
        v = self.velocities.get(param)
        if v is None:
            v = np.zeros_like(param.data)
            self.velocities[param] = v
        return v


def sgd_nesterov_step(params: Iterable[Tensor], grads: Mapping[Tensor, Tensor],
                      state: OptimState,
                      no_decay: Optional[Iterable[Tensor]] = None) -> None:
    """One Nesterov-momentum update, in place.

    For each parameter p with gradient g and velocity v:

        d = g + wd * p
        v = mu * v - lr * d
        p = p + mu * v - lr * d

    Parameters listed in ``no_decay`` skip the weight-decay term
    (batch-norm scales/shifts and biases, by convention of the caller).
    Parameters without a gradient entry are left untouched. Each gradient
    must have its parameter's shape and dtype, and lr, momentum and weight
    decay must be finite and non-negative (ValueError otherwise, before
    any parameter or velocity is written; checked per call, as ``lr`` may
    change).
    """
    for name in ("lr", "momentum", "weight_decay"):
        value = getattr(state, name)
        if not (np.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, "
                             f"got {value!r}")
    skip = set(no_decay) if no_decay is not None else ()
    steps = []   # (parameter, gradient array), every one checked first
    for p in params:
        g = grads.get(p)
        if g is None:
            continue
        gd = g.data if isinstance(g, Tensor) else np.asarray(g)
        if gd.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {gd.shape} does not match parameter "
                f"{p.data.shape}")
        if gd.dtype != p.data.dtype:
            # the in-place updates below would round it silently
            raise ValueError(
                f"gradient dtype {gd.dtype} does not match parameter "
                f"{p.data.dtype}")
        steps.append((p, gd))
    for p, gd in steps:
        d = gd if (state.weight_decay == 0.0 or p in skip) \
            else gd + state.weight_decay * p.data
        v = state.velocity(p)
        v *= state.momentum
        v -= state.lr * d
        p.data += state.momentum * v - state.lr * d
