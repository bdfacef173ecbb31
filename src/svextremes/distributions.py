"""Innovation distributions: samplers plus analytic tails and moments,
and JsonFields, the one JSON form of the package's dataclasses.

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

Every config and result dataclass (InnovationSpec here, the seed,
model, experiment and result classes elsewhere) derives from
JsonFields: its JSON keys are its fields, written by to_json and read
back by from_json, which rejects an unknown key and checks each field
by its declared type. A config field may add a rule (at_least, number,
...) in its metadata; every field of a config is checked, type and rule,
when the instance is built, and the specs of experiments.SPECS are read
by the same rules.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import MISSING, dataclass, fields
from typing import (TYPE_CHECKING, Optional, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

if TYPE_CHECKING:  # rng imports this module
    from .rng import RngSeed

__all__ = [
    "InnovationSpec",
    "std_normal", "student_t", "laplace", "pareto", "constant",
    "sample_innovation", "tail_prob",
    "moment_abs", "moment_pos",
]

def finite_real(v) -> bool:
    """v is a real number, not a bool, that a float holds finitely."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the largest float
        return False


def check_int(name: str, value, low: int | None = None) -> int:
    """value as an int: an integer (numpy's too, a bool not) >= low."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


# -- rules ------------------------------------------------------------------
# A rule (name, value) returns the value read or raises a ValueError that
# starts with name; its type, choices or item (a list's rule) says what
# it reads.

def at_least(low: int):
    """A whole number >= low as an int; JSON may spell 10 as 10.0."""
    def rule(name: str, value) -> int:
        if isinstance(value, (float, np.floating)) and value.is_integer():
            value = int(value)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be a whole number, got {value!r}")
        return check_int(name, value, low)

    rule.type = int
    return rule


def number(text: str, ok):
    """A finite real v (not a bool) with ok(v) as a float; text says
    which, as in "in (0, 1)"."""
    def rule(name: str, value) -> float:
        if not (finite_real(value) and ok(value)):
            raise ValueError(f"{name} must be a finite number {text}, "
                             f"got {value!r}")
        return float(value)

    rule.type = float
    return rule


level = number("in (0, 1)", lambda v: 0.0 < v < 1.0)
positive = number("> 0", lambda v: v > 0.0)


def one_of(*choices: str):
    def rule(name: str, value) -> str:
        if not (isinstance(value, str) and value in choices):
            raise ValueError(f"{name} must be one of {', '.join(choices)}, "
                             f"got {value!r}")
        return value

    rule.choices = choices
    return rule


def list_of(rule):
    """A non-empty list or tuple, each item read by rule, as a list."""
    def read(name: str, value) -> list:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        if not value:
            raise ValueError(f"{name} must not be empty")
        return [rule(name, v) for v in value]

    read.item = rule
    return read


# -- JSON form of the dataclasses ------------------------------------------

# declared type -> (test, what a value must be, the value read); a
# tuple[T, ...] field is a list of T values
_SCALARS = {float: (finite_real, "a finite number", float),
            bool: (lambda v: isinstance(v, bool), "true or false", bool),
            str: (lambda v: isinstance(v, str), "a string", str),
            dict: (lambda v: isinstance(v, dict), "an object", dict)}


def _object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise ValueError(f"{what} must be a JSON object, got {v!r}")
    return v


def read_tagged(union, obj, name: str):
    """The member of a Union of tagged JsonFields classes that obj's tag
    names, read from obj; name is what the union is (model, pair)."""
    members = get_args(union)
    key = members[0].TAG[0]
    tag = _object(obj, f"{name} config").get(key)
    for cls in members:
        if cls.TAG[1] == tag:
            return cls.from_json(obj)
    raise ValueError(f"unknown {name} {key} {tag!r}")


def _classes(tp) -> tuple:
    """The JsonFields classes a field of declared type tp holds: the
    members of a tagged Union, or tp itself."""
    if get_origin(tp) is Union and hasattr(get_args(tp)[0], "TAG"):
        return get_args(tp)
    return (tp,) if hasattr(tp, "from_json") else ()


def _read(tp, value, name: str):
    """value read as a field of declared type tp under the JSON key name.
    An int or Optional field is passed as given: its rule or class
    checks it."""
    if _classes(tp):
        try:
            return (tp.from_json(value) if hasattr(tp, "from_json")
                    else read_tagged(tp, value, name))
        except ValueError as e:
            raise ValueError(f"field {name!r}: {e}") from None
    if get_origin(tp) is tuple:
        test, text, read = _SCALARS[get_args(tp)[0]]
        if not (isinstance(value, list) and all(map(test, value))):
            raise ValueError(f"field {name!r} must be a list, each item "
                             f"{text}, got {value!r}")
        return tuple(map(read, value))
    if tp in _SCALARS:
        test, text, read = _SCALARS[tp]
        if not test(value):
            raise ValueError(f"field {name!r} must be {text}, got {value!r}")
        return read(value)
    return value


@functools.cache
def _types(cls) -> dict:
    # resolved on first use: a Union alias such as ModelConfig is defined
    # after its member classes
    return get_type_hints(cls)


def _plain(v):
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    return {k: _plain(x) for k, x in v.items()} if isinstance(v, dict) else v


class JsonFields:
    """Base of the config and result dataclasses, whose JSON keys are
    their fields.

    to_json() writes the class TAG (key, value) first, if it has one,
    then every init field under its JSON name (metadata "json", else its
    name), leaving out a field still at a None default: a value by its
    own to_json(), an ndarray, tuple or list as a list, a numpy scalar
    as its Python value and a dict copied, each item the same way.
    from_json() reads that form back. The seed, model and experiment
    configs call check_fields() first thing in __post_init__: every field
    has one rule, checked when the instance is built, in Python or JSON.
    """

    TAG = None

    def to_json(self) -> dict:
        out = dict([self.TAG]) if self.TAG else {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.init and not (v is None and f.default is None):
                out[f.metadata.get("json", f.name)] = _plain(v)
        return out

    @classmethod
    def from_json(cls, obj):
        """The instance a to_json dict describes. A non-object, an
        unknown key, a missing required field or a field that its
        declared type does not read raises a ValueError naming it."""
        what = cls.TAG[1] if cls.TAG else \
            re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
        _object(obj, what)
        by_key = {f.metadata.get("json", f.name): f
                  for f in fields(cls) if f.init}
        for key in obj:
            if key not in by_key and not (cls.TAG and key == cls.TAG[0]):
                raise ValueError(f"{what} has no field {key!r}")
        kw = {}
        for key, f in by_key.items():
            if key in obj:
                kw[f.name] = _read(_types(cls)[f.name], obj[key], key)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"missing field {key!r}")
        return cls(**kw)

    def check_fields(self) -> None:
        """Read every init field as from_json does, by its declared type
        (a JsonFields class by isinstance) and then its metadata "rule",
        if any, and store the value read; a ValueError names the field."""
        types = _types(type(self))
        for f in fields(self):
            if not f.init:
                continue
            tp, v = types[f.name], getattr(self, f.name)
            key = f.metadata.get("json", f.name)
            classes = _classes(tp)
            if not classes:
                as_list = get_origin(tp) is tuple and isinstance(v, tuple)
                v = _read(tp, list(v) if as_list else v, key)
            elif not isinstance(v, classes):
                names = " or ".join(c.__name__ for c in classes)
                raise ValueError(f"field {key!r} must be {names}, got {v!r}")
            if "rule" in f.metadata:
                v = f.metadata["rule"](key, v)
            object.__setattr__(self, f.name, v)


# kind -> its parameter fields, each with its rule and default (...: the
# parameter is required), as experiments.SPECS holds an analysis's fields
PARAMETERS = {"std_normal": {},
              "student_t": {"df": (positive, ...), "standardized": (
                  lambda name, v: _read(bool, v, name), True)},
              "laplace": {"rate": (positive, ...)},
              "pareto": {"alpha": (positive, ...)},
              "constant": {"c": (lambda name, v: _read(float, v, name), ...)}}


@dataclass(frozen=True)
class InnovationSpec(JsonFields):
    """One innovation law. A parameter its kind does not use is rejected,
    and one it does is read by its rule in PARAMETERS.

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
        if not (isinstance(self.kind, str) and self.kind in PARAMETERS):
            raise ValueError(f"unknown kind {self.kind!r}, expected one of "
                             f"{tuple(PARAMETERS)}")
        rules = PARAMETERS[self.kind]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in rules:
                rule, default = rules[f.name]
                if value is None and default is ...:
                    raise ValueError(f"{self.kind} requires {f.name}")
                object.__setattr__(self, f.name, rule(
                    f.name, default if value is None else value))
            elif value is not None:
                raise ValueError(f"{self.kind} takes no {f.name}, "
                                 f"got {value!r}")
        if self.standardized and not self.df > 2:
            raise ValueError("variance undefined")

    def __str__(self) -> str:
        """The law as its constructor call, e.g. student_t(df=3.0,
        standardized=False), for error messages."""
        params = ", ".join(f"{k}={v!r}" for k, v in self.to_json().items()
                           if k != "kind")
        return f"{self.kind}({params})"

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
    from .rng import check_seed  # rng imports this module

    check_seed(seed)
    return draw(spec, seed.generator(), check_int("n", n, 1))


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
    (Pareto with r >= alpha, Student-t with r >= df), and a ValueError
    naming the law and r when it is finite but beyond the float range.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    r = float(r)
    if r == 0.0:
        return 1.0
    try:
        if spec.kind == "constant":
            return abs(spec.c) ** r
        if spec.kind == "std_normal":
            # E|N|^r = 2^(r/2) Gamma((r+1)/2) / sqrt(pi)
            return (math.exp(0.5 * r * math.log(2.0)
                             + math.lgamma((r + 1) / 2.0))
                    / math.sqrt(math.pi))
        if spec.kind == "laplace":
            return math.exp(math.lgamma(r + 1.0) - r * math.log(spec.rate))
        if spec.kind == "pareto":
            if r >= spec.alpha:
                raise ValueError("moment diverges")
            return spec.alpha / (spec.alpha - r)
        # student_t: E|T|^r = df^(r/2) Gamma((r+1)/2) Gamma((df-r)/2)
        #                     / (sqrt(pi) Gamma(df/2))
        if r >= spec.df:
            raise ValueError("moment diverges")
        val = math.exp(0.5 * r * math.log(spec.df)
                       + math.lgamma((r + 1) / 2.0)
                       + math.lgamma((spec.df - r) / 2.0)
                       - math.lgamma(spec.df / 2.0)) / math.sqrt(math.pi)
        return val / spec._t_scale() ** r
    except OverflowError:
        raise ValueError(f"E|V|^r of {spec} at r={r!r} exceeds the float "
                         "range") from None


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

