"""Central finite-difference gradient oracle shared across test modules."""

import numpy as np

from reallogic.tensor import Tensor, grad


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar-valued f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_store_grad(store, name, f, h=1e-5):
    """Central differences of scalar f() wrt one ParamStore slot."""
    base = store.get(name).data
    g = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = base[i]
        base[i] = old + h
        fp = f()
        base[i] = old - h
        fm = f()
        base[i] = old
        g[i] = (fp - fm) / (2.0 * h)
    return g


def check_grads(build, *arrays, rtol=1e-4, atol=1e-7, h=1e-5):
    """Compare autodiff grads of build(*tensors) against finite differences.

    build takes one Tensor per input array and returns a scalar Tensor.
    Asserts every input's gradient matches elementwise within
    max(atol, rtol * |fd|).
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    grads = grad(build(*tensors), tensors)
    for k, (got, a) in enumerate(zip(grads, arrays)):
        def f(x, k=k):
            args = [Tensor(arr) for arr in arrays]
            args[k] = Tensor(x)
            return float(build(*args).data)

        want = fd_grad(f, a, h=h)
        err = np.abs(got - want)
        tol = np.maximum(atol, rtol * np.abs(want))
        assert np.all(err <= tol), (
            f"grad mismatch on input {k}: max err {err.max():.3e}, "
            f"tol there {tol.ravel()[err.argmax()]:.3e}"
        )
