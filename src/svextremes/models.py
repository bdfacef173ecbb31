"""Path simulators for four stochastic volatility families.

Every family produces a paired series (sigma_t, X_t) with X_t = sigma_t Z_t
and Z_t i.i.d., independent of the volatility (the one deliberate exception
is the GARCH-returns variant of the SRE family, where the recursion noise
is reused as multiplicative noise for comparison runs).

Families:
  * ExpAR1:  sigma_t = exp(Y_t),  Y_t = phi Y_{t-1} + eta_t.
  * EGARCH:  log sigma_t^2 = alpha0 (1-phi)^{-1} + U_t,
             U_t = phi U_{t-1} + gamma0 Z_{t-1} + delta0 |Z_{t-1}|,
             with the same Z sequence multiplying the returns.
  * SRE-SV:  sigma_t^p = A_t sigma_{t-1}^p + B_t, either GARCH(1,1)
             multipliers A_t = alpha1 eta_{t-1}^2 + beta1, B_t = alpha0
             (with p = 2), or a generic non-negative (A, B) pair.
  * MA-SV:   sigma_t^p = |psi_0 eta_t + ... + psi_q eta_{t-q}|, simulated
             exactly in its stationary law (no burn-in needed).

Simulators are pure functions of (config, n, burn_in, seed); identical
arguments give bit-identical paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import InnovationSpec, draw, moment_abs
from .rng import RngSeed

__all__ = [
    "ExpAr1Config", "EgarchConfig", "Garch11Pair", "GenericPair",
    "SreSvConfig", "MaSvConfig", "ModelConfig", "Path",
    "simulate_exp_ar1", "simulate_egarch", "simulate_sre_sv",
    "simulate_ma_sv", "simulate",
    "config_to_json", "config_from_json", "path_to_csv",
    "DEFAULT_BURN_IN",
]

DEFAULT_BURN_IN = 10_000

# internal seed for the construction-time stationarity probe of SRE pairs;
# fixed so that config validation itself is deterministic
_CALIBRATION_SEED = RngSeed(0x5EED_CA1B, 0)
_CALIBRATION_DRAWS = 100_000


@dataclass(frozen=True)
class ExpAr1Config:
    phi: float
    eta: InnovationSpec
    z: InnovationSpec

    def __post_init__(self):
        if not -1.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (-1, 1)")


@dataclass(frozen=True)
class EgarchConfig:
    """EGARCH volatility with SV-style reuse of the recursion noise.

    Heavy-tailed sigma requires exp(c Z) regularly varying, which holds for
    Laplace Z. Normal Z gives a volatility with all moments; it is allowed
    only when light_tailed=True states that this is intentional. Student-t
    and Pareto Z are rejected (the exponential transform has no power tail
    or no moments at all).
    """

    alpha0: float
    gamma0: float
    delta0: float
    phi: float
    z: InnovationSpec
    light_tailed: bool = False

    def __post_init__(self):
        if not -1.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (-1, 1)")
        if not (self.gamma0 > 0 and self.delta0 > 0):
            raise ValueError("gamma0 and delta0 must be > 0")
        if self.z.kind == "std_normal" and not self.light_tailed:
            raise ValueError("normal Z makes the volatility light-tailed; "
                             "pass light_tailed=True to accept that regime")
        if self.z.kind in ("student_t", "pareto"):
            raise ValueError(f"unsupported EGARCH noise kind {self.z.kind!r}")


@dataclass(frozen=True)
class Garch11Pair:
    """GARCH(1,1) multipliers A_t = alpha1 eta_{t-1}^2 + beta1, B_t = alpha0."""

    alpha0: float
    alpha1: float
    beta1: float
    eta: InnovationSpec

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be > 0")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise ValueError("alpha1 and beta1 must be >= 0")

    def draw_a(self, g: np.random.Generator, size: int) -> np.ndarray:
        e = draw(self.eta, g, size)
        return self.alpha1 * e * e + self.beta1


@dataclass(frozen=True)
class GenericPair:
    """Generic non-negative (A, B) pair for the recurrence."""

    a: InnovationSpec
    b: InnovationSpec

    def __post_init__(self):
        for name, spec in (("a", self.a), ("b", self.b)):
            if spec.kind == "pareto":
                continue  # support [1, inf)
            if spec.kind == "constant" and spec.c >= 0:
                continue
            raise ValueError(f"{name} must be a non-negative distribution "
                             "(pareto or constant >= 0)")

    def draw_a(self, g: np.random.Generator, size: int) -> np.ndarray:
        return draw(self.a, g, size)


def _check_stationarity(pair) -> None:
    """Reject pairs whose multipliers fail E log A < 0.

    Monte Carlo with a fixed internal seed: require mean + 3 SE < 0.
    A == 0 draws contribute -inf, which is fine (they only help).
    """
    g = _CALIBRATION_SEED.generator()
    a = pair.draw_a(g, _CALIBRATION_DRAWS)
    with np.errstate(divide="ignore"):
        la = np.log(a)
    m = float(np.mean(la))
    if np.isneginf(m):
        return
    se = float(np.std(la, ddof=1) / np.sqrt(la.size))
    if not m + 3.0 * se < 0.0:
        raise ValueError("no stationary solution")


@dataclass(frozen=True)
class SreSvConfig:
    """Volatility from sigma_t^p = A_t sigma_{t-1}^p + B_t.

    garch_returns=True labels the comparison variant X_t = sigma_t eta_t
    (recursion noise reused), i.e. an actual GARCH return series rather
    than an SV model.
    """

    p: float
    pair_source: Union[Garch11Pair, GenericPair]
    z: InnovationSpec
    garch_returns: bool = False

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("p must be > 0")
        if isinstance(self.pair_source, Garch11Pair):
            if self.p != 2.0:
                raise ValueError("Garch11 multipliers require p = 2")
        elif isinstance(self.pair_source, GenericPair):
            if self.garch_returns:
                raise ValueError("garch_returns needs Garch11 multipliers")
        else:
            raise TypeError("pair_source must be Garch11Pair or GenericPair")
        _check_stationarity(self.pair_source)


@dataclass(frozen=True)
class MaSvConfig:
    """Finite moving-average volatility sigma_t^p = |sum_j psi_j eta_{t-j}|."""

    p: float
    psi: tuple
    eta: InnovationSpec
    z: InnovationSpec

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("p must be > 0")
        psi = tuple(float(v) for v in self.psi)
        if len(psi) == 0 or not any(v != 0.0 for v in psi):
            raise ValueError("psi needs at least one nonzero coefficient")
        object.__setattr__(self, "psi", psi)
        if self.eta.kind not in ("pareto", "student_t"):
            raise ValueError("eta must be a regularly varying kind "
                             "(pareto or student_t)")


ModelConfig = Union[ExpAr1Config, EgarchConfig, SreSvConfig, MaSvConfig]


@dataclass
class Path:
    """Simulated (sigma_t, X_t) series with its provenance."""

    sigma: np.ndarray
    x: np.ndarray
    config: ModelConfig
    seed: RngSeed
    burn_in: int

    @property
    def n(self) -> int:
        return self.sigma.size


# -- simulators -----------------------------------------------------------
# Stream layout per path seed: generator(0) drives the volatility noise,
# generator(1) the multiplicative noise Z, generator(2) the B sequence of a
# generic SRE pair.

def _check_length(n: int, burn_in: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")


def _ar1(phi: float, w: np.ndarray) -> np.ndarray:
    """Y_t = phi Y_{t-1} + w_t from Y_0 = 0."""
    # imported here because scipy.signal pulls in scipy.stats, which the
    # path-reading CLI commands never need
    from scipy.signal import lfilter

    return lfilter([1.0], [1.0, -phi], w)


def simulate_exp_ar1(cfg: ExpAr1Config, n: int, burn_in: int = DEFAULT_BURN_IN,
                     seed: RngSeed = RngSeed(0)) -> Path:
    _check_length(n, burn_in)
    eta = draw(cfg.eta, seed.generator(0), burn_in + n)
    y = _ar1(cfg.phi, eta)
    sigma = np.exp(y[burn_in:])
    z = draw(cfg.z, seed.generator(1), n)
    return Path(sigma, sigma * z, cfg, seed, burn_in)


def simulate_egarch(cfg: EgarchConfig, n: int, burn_in: int = DEFAULT_BURN_IN,
                    seed: RngSeed = RngSeed(0)) -> Path:
    _check_length(n, burn_in)
    # one shared Z stream: Z_{t-1} feeds the recursion, Z_t multiplies sigma_t
    z = draw(cfg.z, seed.generator(1), burn_in + n + 1)
    w = cfg.gamma0 * z + cfg.delta0 * np.abs(z)
    u = _ar1(cfg.phi, w[:-1])
    log_sig2 = cfg.alpha0 / (1.0 - cfg.phi) + u[burn_in:]
    sigma = np.exp(0.5 * log_sig2)
    return Path(sigma, sigma * z[burn_in + 1:], cfg, seed, burn_in)


def _sre_initial_state(cfg: SreSvConfig, b1: float) -> float:
    # stationary-mean start B_1 / (1 - EA) when EA < 1 is available,
    # otherwise the first B draw; clipped at 0 either way
    src = cfg.pair_source
    try:
        if isinstance(src, Garch11Pair):
            ea = src.alpha1 * moment_abs(src.eta, 2.0) + src.beta1
        else:
            ea = moment_abs(src.a, 1.0)
    except ValueError:
        ea = np.inf
    if np.isfinite(ea) and ea < 1.0:
        return max(b1 / (1.0 - ea), 0.0)
    return max(b1, 0.0)


_SRE_BLOCK = 8192


def simulate_sre_sv(cfg: SreSvConfig, n: int, burn_in: int = DEFAULT_BURN_IN,
                    seed: RngSeed = RngSeed(0)) -> Path:
    _check_length(n, burn_in)
    total = burn_in + n
    src = cfg.pair_source
    if isinstance(src, Garch11Pair):
        # eta_{-burn-1} .. eta_{n-1}; A_t uses eta_{t-1}
        eta = draw(src.eta, seed.generator(0), total + 1)
        a = src.alpha1 * eta[:-1] ** 2 + src.beta1
        b = np.full(total, float(src.alpha0))
        b1 = float(src.alpha0)
    else:
        a = src.draw_a(seed.generator(0), total)
        b = draw(src.b, seed.generator(2), total + 1)
        b1 = float(b[0])
        b = b[1:]
    if np.all(b == 0.0) and b1 == 0.0:
        warnings.warn("degenerate volatility: B == 0 yields the zero path")

    # the recursion runs over Python floats, one .tolist() block at a
    # time, which rounds exactly as numpy scalars do but runs faster; the
    # blocks keep the lists small next to the path
    v = float(_sre_initial_state(cfg, b1))
    state = np.empty(total)
    for i in range(0, total, _SRE_BLOCK):
        out = []
        for at, bt in zip(a[i:i + _SRE_BLOCK].tolist(),
                          b[i:i + _SRE_BLOCK].tolist()):
            v = at * v + bt
            out.append(v)
        state[i:i + len(out)] = out
    sigma = state[burn_in:] ** (1.0 / cfg.p)

    if cfg.garch_returns:
        noise = eta[burn_in + 1:]  # eta_t aligned with sigma_t
    else:
        noise = draw(cfg.z, seed.generator(1), n)
    return Path(sigma, sigma * noise, cfg, seed, burn_in)


def simulate_ma_sv(cfg: MaSvConfig, n: int, seed: RngSeed = RngSeed(0)) -> Path:
    """Exact stationary simulation; q extra innovations replace a burn-in."""
    _check_length(n, 0)
    q = len(cfg.psi) - 1
    eta = draw(cfg.eta, seed.generator(0), n + q)
    # valid-mode convolution gives Y_t = sum_j psi_j eta_{t-j} exactly
    y = np.convolve(eta, np.asarray(cfg.psi, dtype=float), mode="valid")
    sigma = np.abs(y) ** (1.0 / cfg.p)
    z = draw(cfg.z, seed.generator(1), n)
    return Path(sigma, sigma * z, cfg, seed, burn_in=0)


def simulate(cfg: ModelConfig, n: int, burn_in: int = DEFAULT_BURN_IN,
             seed: RngSeed = RngSeed(0)) -> Path:
    if isinstance(cfg, ExpAr1Config):
        return simulate_exp_ar1(cfg, n, burn_in, seed)
    if isinstance(cfg, EgarchConfig):
        return simulate_egarch(cfg, n, burn_in, seed)
    if isinstance(cfg, SreSvConfig):
        return simulate_sre_sv(cfg, n, burn_in, seed)
    if isinstance(cfg, MaSvConfig):
        _check_length(n, burn_in)  # burn_in is unused here, but still checked
        return simulate_ma_sv(cfg, n, seed)
    raise TypeError(f"not a model config: {cfg!r}")


# -- serialization --------------------------------------------------------

def config_to_json(cfg: ModelConfig) -> dict:
    if isinstance(cfg, ExpAr1Config):
        return {"family": "expar1", "phi": cfg.phi,
                "eta": cfg.eta.to_json(), "z": cfg.z.to_json()}
    if isinstance(cfg, EgarchConfig):
        return {"family": "egarch", "alpha0": cfg.alpha0, "gamma0": cfg.gamma0,
                "delta0": cfg.delta0, "phi": cfg.phi, "z": cfg.z.to_json(),
                "light_tailed": cfg.light_tailed}
    if isinstance(cfg, SreSvConfig):
        src = cfg.pair_source
        if isinstance(src, Garch11Pair):
            pair = {"type": "garch11", "alpha0": src.alpha0, "alpha1": src.alpha1,
                    "beta1": src.beta1, "eta": src.eta.to_json()}
        else:
            pair = {"type": "generic", "a": src.a.to_json(), "b": src.b.to_json()}
        return {"family": "sresv", "p": cfg.p, "pair": pair,
                "z": cfg.z.to_json(), "garch_returns": cfg.garch_returns}
    if isinstance(cfg, MaSvConfig):
        return {"family": "masv", "p": cfg.p, "psi": list(cfg.psi),
                "eta": cfg.eta.to_json(), "z": cfg.z.to_json()}
    raise TypeError(f"not a model config: {cfg!r}")


def config_from_json(obj: dict) -> ModelConfig:
    fam = obj.get("family")
    if fam == "expar1":
        return ExpAr1Config(float(obj["phi"]),
                            InnovationSpec.from_json(obj["eta"]),
                            InnovationSpec.from_json(obj["z"]))
    if fam == "egarch":
        return EgarchConfig(float(obj["alpha0"]), float(obj["gamma0"]),
                            float(obj["delta0"]), float(obj["phi"]),
                            InnovationSpec.from_json(obj["z"]),
                            bool(obj.get("light_tailed", False)))
    if fam == "sresv":
        pair = obj["pair"]
        if pair["type"] == "garch11":
            src = Garch11Pair(float(pair["alpha0"]), float(pair["alpha1"]),
                              float(pair["beta1"]),
                              InnovationSpec.from_json(pair["eta"]))
        elif pair["type"] == "generic":
            src = GenericPair(InnovationSpec.from_json(pair["a"]),
                              InnovationSpec.from_json(pair["b"]))
        else:
            raise ValueError(f"unknown pair type {pair.get('type')!r}")
        return SreSvConfig(float(obj["p"]), src,
                           InnovationSpec.from_json(obj["z"]),
                           bool(obj.get("garch_returns", False)))
    if fam == "masv":
        return MaSvConfig(float(obj["p"]), tuple(obj["psi"]),
                          InnovationSpec.from_json(obj["eta"]),
                          InnovationSpec.from_json(obj["z"]))
    raise ValueError(f"unknown model family {fam!r}")


# rows formatted per block: a block's floats come out of one .tolist(), and
# memory stays bounded by the block, not by the path length
_CSV_BLOCK = 8192


def write_csv_rows(fh, header: str, fmt: str, columns) -> None:
    """Write `header`, then row t of `columns` as `fmt % (t, *values)`."""
    fh.write(header)
    for i in range(0, len(columns[0]), _CSV_BLOCK):
        block = [c[i:i + _CSV_BLOCK].tolist() for c in columns]
        rows = zip(range(i, i + _CSV_BLOCK), *block)
        fh.write("".join([fmt % r for r in rows]))


def path_to_csv(path: Path, file) -> None:
    """Write `t,sigma,x` rows at full double precision."""
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        with open(file, "w") as fh:
            return path_to_csv(path, fh)
    write_csv_rows(file, "t,sigma,x\n", "%d,%.17g,%.17g\n",
                   (path.sigma, path.x))
