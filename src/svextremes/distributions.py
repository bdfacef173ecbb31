"""Innovation distributions: samplers plus analytic tails and moments.

Five parametric families cover every noise source used by the models:
standard normal, standardized Student-t, centered Laplace, Pareto and a
point mass. They are deliberately simple so that tail probabilities and
absolute moments have closed forms; the estimators and theory routines
lean on those closed forms as oracles.

Conventions:
  * Laplace(rate) has density (rate/2) exp(-rate |x|), so
    P(V > x) = 0.5 exp(-rate x) for x >= 0 and P(e^V > x) = 0.5 x^(-rate).
  * Pareto(alpha) lives on [1, inf) with survival x^(-alpha).
  * StudentT(df, standardized=True) is t(df)/sqrt(df/(df-2)), unit variance.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import RngSeed

__all__ = [
    "InnovationSpec",
    "std_normal", "student_t", "laplace", "pareto", "constant",
    "sample_innovation", "draw", "tail_prob",
    "moment_abs", "moment_abs_mc", "moment_pos",
]

KINDS = ("std_normal", "student_t", "laplace", "pareto", "constant")


def finite_real(v) -> bool:
    """v is a real number, not a bool, that a float holds finitely."""
    # compared with the largest float, as math.isfinite overflows on a
    # huge int
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class InnovationSpec:
    """One innovation law. Unused parameter fields stay None.

    Serializes to {"kind": ..., <parameters>} with field names
    kind, df, standardized, rate, alpha, c.
    """

    kind: str
    df: Optional[float] = None
    standardized: Optional[bool] = None
    rate: Optional[float] = None
    alpha: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        for name in ("df", "rate", "alpha", "c"):
            value = getattr(self, name)
            if value is not None and not finite_real(value):
                raise ValueError(f"{self.kind} requires a finite {name}, "
                                 f"got {value!r}")
        if self.kind == "student_t":
            if self.df is None or not self.df > 0:
                raise ValueError("student_t requires df > 0")
            if self.standardized is None:
                object.__setattr__(self, "standardized", True)
            if self.standardized and not self.df > 2:
                raise ValueError("variance undefined")
        elif self.kind == "laplace":
            if self.rate is None or not self.rate > 0:
                raise ValueError("laplace requires rate > 0")
        elif self.kind == "pareto":
            if self.alpha is None or not self.alpha > 0:
                raise ValueError("pareto requires alpha > 0")
        elif self.kind == "constant":
            if self.c is None or not math.isfinite(self.c):
                raise ValueError("constant requires a finite c")

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "student_t":
            out["df"] = float(self.df)
            out["standardized"] = bool(self.standardized)
        elif self.kind == "laplace":
            out["rate"] = float(self.rate)
        elif self.kind == "pareto":
            out["alpha"] = float(self.alpha)
        elif self.kind == "constant":
            out["c"] = float(self.c)
        return out

    @staticmethod
    def from_json(obj: dict) -> "InnovationSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"innovation spec must be a JSON object, "
                             f"got {obj!r}")
        if "kind" not in obj:
            raise ValueError("missing field 'kind'")
        kind = obj["kind"]
        std = obj.get("standardized")
        if std is not None and not isinstance(std, bool):
            raise ValueError(f"field 'standardized' must be true or false, "
                             f"got {std!r}")
        kw = {k: obj[k] for k in ("df", "standardized", "rate", "alpha", "c") if k in obj}
        return InnovationSpec(kind, **kw)

    def _t_scale(self) -> float:
        # divisor turning t(df) into the standardized variant
        return math.sqrt(self.df / (self.df - 2.0)) if self.standardized else 1.0


def std_normal() -> InnovationSpec:
    return InnovationSpec("std_normal")


def student_t(df: float, standardized: bool = True) -> InnovationSpec:
    return InnovationSpec("student_t", df=df, standardized=standardized)


def laplace(rate: float) -> InnovationSpec:
    return InnovationSpec("laplace", rate=rate)


def pareto(alpha: float) -> InnovationSpec:
    return InnovationSpec("pareto", alpha=alpha)


def constant(c: float) -> InnovationSpec:
    return InnovationSpec("constant", c=c)


# -- sampling -------------------------------------------------------------

def draw(spec: InnovationSpec, g: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws from `spec` using an existing generator."""
    if spec.kind == "std_normal":
        return g.standard_normal(n)
    if spec.kind == "student_t":
        return g.standard_t(spec.df, n) / spec._t_scale()
    if spec.kind == "laplace":
        return g.laplace(0.0, 1.0 / spec.rate, n)
    if spec.kind == "pareto":
        # inverse transform; 1 - U in (0, 1] keeps the sample inside [1, inf)
        return (1.0 - g.random(n)) ** (-1.0 / spec.alpha)
    return np.full(n, float(spec.c))


def sample_innovation(spec: InnovationSpec, n: int, seed: RngSeed) -> np.ndarray:
    """Deterministic i.i.d. sample: identical (spec, n, seed) gives
    bit-identical output."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return draw(spec, seed.generator(), n)


# -- analytic tails and moments -------------------------------------------

def tail_prob(spec: InnovationSpec, x: float) -> float:
    """Exact P(V > x)."""
    # scipy.special, not scipy.stats: the same values bit for bit, and
    # importing the package stays free of scipy.stats
    from scipy.special import ndtr, stdtr

    x = float(x)
    if spec.kind == "std_normal":
        return float(ndtr(-x))
    if spec.kind == "student_t":
        return float(stdtr(spec.df, -x * spec._t_scale()))
    if spec.kind == "laplace":
        if x >= 0:
            return 0.5 * math.exp(-spec.rate * x)
        return 1.0 - 0.5 * math.exp(spec.rate * x)
    if spec.kind == "pareto":
        return 1.0 if x < 1.0 else x ** (-spec.alpha)
    return 1.0 if x < spec.c else 0.0


def moment_abs(spec: InnovationSpec, r: float) -> float:
    """E|V|^r in closed form.

    Raises ValueError("moment diverges") when the moment is infinite
    (Pareto with r >= alpha, Student-t with r >= df).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    r = float(r)
    if r == 0.0:
        return 1.0
    if spec.kind == "constant":
        return abs(spec.c) ** r
    if spec.kind == "std_normal":
        # E|N|^r = 2^(r/2) Gamma((r+1)/2) / sqrt(pi)
        return (math.exp(0.5 * r * math.log(2.0) + math.lgamma((r + 1) / 2.0))
                / math.sqrt(math.pi))
    if spec.kind == "laplace":
        return math.exp(math.lgamma(r + 1.0) - r * math.log(spec.rate))
    if spec.kind == "pareto":
        if r >= spec.alpha:
            raise ValueError("moment diverges")
        return spec.alpha / (spec.alpha - r)
    # student_t: E|T|^r = df^(r/2) Gamma((r+1)/2) Gamma((df-r)/2) / (sqrt(pi) Gamma(df/2))
    if r >= spec.df:
        raise ValueError("moment diverges")
    val = math.exp(0.5 * r * math.log(spec.df)
                   + math.lgamma((r + 1) / 2.0)
                   + math.lgamma((spec.df - r) / 2.0)
                   - math.lgamma(spec.df / 2.0)) / math.sqrt(math.pi)
    return val / spec._t_scale() ** r


def moment_abs_mc(spec: InnovationSpec, r: float, mc_reps: int,
                  seed: RngSeed) -> tuple[float, float]:
    """Monte Carlo E|V|^r with its standard error.

    Exists to cross-validate the closed forms; moment_abs itself is always
    analytic for the supported kinds.
    """
    v = np.abs(sample_innovation(spec, mc_reps, seed)) ** r
    m = float(np.mean(v))
    se = float(np.std(v, ddof=1) / math.sqrt(mc_reps)) if mc_reps > 1 else 0.0
    return m, se


def moment_pos(spec: InnovationSpec, r: float) -> float:
    """E(V_+)^r = E[V^r; V > 0]."""
    if spec.kind == "constant":
        if spec.c > 0:
            return spec.c ** r
        return 0.0
    if spec.kind == "pareto":
        return moment_abs(spec, r)  # all mass on [1, inf)
    # remaining kinds are symmetric about 0
    return 0.5 * moment_abs(spec, r)

