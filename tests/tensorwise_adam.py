"""The per-tensor Adam step, kept as a test oracle for the flat one in
train.py.

It loops over the named parameters: per tensor a finiteness test, one dot
for the global norm, an out-of-place clip and one ``kernels.adam_update``
call on that tensor's own moments. From the same gradients both must give
bit-identical parameters and moments.
"""

import math

import numpy as np

from novabert import kernels
from novabert import train as TR


class TensorwiseAdam:
    """Adam with bias correction over a named parameter dict, tensor by
    tensor; m and v are name -> flat float64 moments."""

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros(p.data.size) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.size) for k, p in params.items()}

    def step(self, lr):
        cfg = self.cfg
        grads = {}
        sq = 0.0
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.reshape(-1)
            if not np.all(np.isfinite(g)):
                raise TR.TrainingDiverged(f"non-finite gradient in {name}")
            grads[name] = g
            sq += float(g @ g)
        norm = math.sqrt(sq)
        if cfg.clip_norm and norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
            grads = {name: g * scale for name, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - TR.ADAM_BETA1 ** self.t
        bc2 = 1.0 - TR.ADAM_BETA2 ** self.t
        for name, g in grads.items():
            kernels.adam_update(self.params[name].data.reshape(-1),
                                np.ascontiguousarray(g), self.m[name],
                                self.v[name], lr, TR.ADAM_BETA1,
                                TR.ADAM_BETA2, TR.ADAM_EPS, bc1, bc2)
