"""Finite-difference gradient checking for whole models.

The numeric side evaluates the loss with the parameters cast to
longdouble, so the difference quotient is not drowned by float64 rounding
of the loss value; the analytic side stays the float64 implementation
under test. A model of any other dtype is refused: its rounding, not its
gradients, would decide the comparison.
"""

import numpy as np

from novabert import tensor as T


def model_grad_check(model, batch, eps=1e-5, tol=1e-4, max_entries=None,
                     rng=None):
    """Compare analytic grads of model.loss(batch) against central FD.

    Checks every parameter tensor; when max_entries is set, a random subset
    of entries per tensor is probed instead of all of them. Returns the
    worst relative error seen. Raises ValueError unless the model is
    float64.
    """
    if np.dtype(model.dtype) != np.float64:
        raise ValueError(f"a gradient check needs a float64 model, got "
                         f"{np.dtype(model.dtype)}")
    model.zero_grads()
    loss = model.loss(batch)
    T.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in model.params.items()}

    saved = {name: p.data for name, p in model.params.items()}
    for p in model.params.values():
        p.data = p.data.astype(np.longdouble)
    epsl = np.longdouble(eps)

    def f():
        return model.loss(batch).data  # 0-d longdouble

    worst = 0.0
    try:
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            ana = analytic[name].reshape(-1)
            idxs = range(flat.size)
            if max_entries is not None and flat.size > max_entries:
                idxs = rng.choice(flat.size, size=max_entries, replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + epsl
                fp = f()
                flat[i] = orig - epsl
                fm = f()
                flat[i] = orig
                num = float((fp - fm) / (2 * epsl))
                rel = abs(float(ana[i]) - num) / (abs(num) + 1e-8)
                worst = max(worst, rel)
                assert rel < tol, (
                    f"{name}[{i}]: analytic {ana[i]:.3e} vs numeric {num:.3e} "
                    f"(rel {rel:.3e})")
    finally:
        for name, p in model.params.items():
            p.data = saved[name]
    return worst
