"""Monte Carlo moments: the oracle for distributions.moment_abs.

moment_abs is analytic for every supported kind; the sample mean of
|V|^r over fresh draws checks each closed form to within its standard
error.
"""

import math

import numpy as np

from svextremes.distributions import sample_innovation


def moment_abs_mc(spec, r: float, mc_reps: int, seed) -> tuple[float, float]:
    """Monte Carlo E|V|^r with its standard error."""
    v = np.abs(sample_innovation(spec, mc_reps, seed)) ** r
    m = float(np.mean(v))
    se = float(np.std(v, ddof=1) / math.sqrt(mc_reps)) if mc_reps > 1 else 0.0
    return m, se
