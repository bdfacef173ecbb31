"""Kesten root over whole arrays: the reference for theory.kesten_index.

This is the bisection as the package computed it before it moved to
slices: one draw of all mc_reps multipliers, np.mean of the whole
A^kappa array at each step and np.std(ddof=1) of it at the root. The
package's kesten_index must return the same kappa and f_stderr bit for
bit, and fail with the same message where this fails.
"""

import math

import numpy as np

from svextremes.theory import _KAPPA_BRACKET


def kesten_dense(problem, mc_reps, seed, tol=1e-4):
    """(kappa, f_stderr) of the whole-array bisection."""
    with np.errstate(divide="ignore"):
        la = np.sort(np.log(problem.draw_a(seed.generator(), mc_reps)))
    if not la[-1] > 0.0:
        raise ValueError("no finite tail index in bracket")

    def pow_a(kappa):
        with np.errstate(over="ignore"):
            return np.exp(kappa * la)

    def f(kappa):
        return float(np.mean(pow_a(kappa))) - 1.0

    lo, hi = _KAPPA_BRACKET
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 or not np.isfinite(f_lo) or f_hi < 0.0:
        raise ValueError("no finite tail index in bracket")
    kappa = lo
    for _ in range(200):
        kappa = 0.5 * (lo + hi)
        fk = f(kappa)
        if abs(fk) < tol:
            break
        if fk > 0.0:
            hi = kappa
        else:
            lo = kappa
    se = float(np.std(pow_a(kappa), ddof=1) / math.sqrt(mc_reps))
    return float(kappa), se
