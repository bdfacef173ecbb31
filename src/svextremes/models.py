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
arguments give bit-identical paths, and a path of length n is a prefix
of the path of length n + k at the same seed and burn-in. ExpAR1, EGARCH
and SRE-SV follow one affine recursion y_t = a_t y_{t-1} + b_t, run by
one numpy scan (_ar1) blocked at fixed indices; its values agree with
the sequential recursion up to rounding. n and burn_in are integers
(numpy's too, a bool not).

A config's JSON form is its fields after its family tag (JsonFields):
config_to_json writes it and config_from_json reads it back.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Union

import numpy as np

from .distributions import (InnovationSpec, JsonFields, check_int, draw,
                            moment_abs, number, positive, read_tagged)
from .rng import RngSeed, check_seed

__all__ = [
    "ExpAr1Config", "EgarchConfig", "Garch11Pair", "GenericPair",
    "SreSvConfig", "MaSvConfig", "Path", "simulate", "config_to_json",
    "config_from_json", "path_to_csv", "read_path_csv", "DEFAULT_BURN_IN",
]

DEFAULT_BURN_IN = 10_000

# internal seed for the construction-time probe of multiplier laws; fixed
# so that validation itself is deterministic
_CALIBRATION_SEED = RngSeed(0x5EED_CA1B, 0)
_CALIBRATION_DRAWS = 100_000

# the rule of a stationary AR(1) coefficient
_PHI = number("in (-1, 1)", lambda v: -1.0 < v < 1.0)
_NON_NEGATIVE = number(">= 0", lambda v: v >= 0.0)


@dataclass(frozen=True)
class ExpAr1Config(JsonFields):
    TAG = ("family", "expar1")
    phi: float = field(metadata={"rule": _PHI})
    eta: InnovationSpec
    z: InnovationSpec

    def __post_init__(self):
        self.check_fields()
        if self.eta.kind in ("student_t", "pareto"):
            # exp of a power-tailed Y has no finite moment of any order
            raise ValueError(f"unsupported exp-AR(1) eta kind "
                             f"{self.eta.kind!r}")


@dataclass(frozen=True)
class EgarchConfig(JsonFields):
    """EGARCH volatility with SV-style reuse of the recursion noise.

    Heavy-tailed sigma requires exp(c Z) regularly varying, which holds for
    Laplace Z. Normal Z gives a volatility with all moments; it is allowed
    only when light_tailed=True states that this is intentional. Student-t
    and Pareto Z are rejected (the exponential transform has no power tail
    or no moments at all).
    """

    TAG = ("family", "egarch")
    alpha0: float
    gamma0: float = field(metadata={"rule": positive})
    delta0: float = field(metadata={"rule": positive})
    phi: float = field(metadata={"rule": _PHI})
    z: InnovationSpec
    light_tailed: bool = False

    def __post_init__(self):
        self.check_fields()
        if self.z.kind == "std_normal" and not self.light_tailed:
            raise ValueError("normal Z makes the volatility light-tailed; "
                             "pass light_tailed=True to accept that regime")
        if self.z.kind in ("student_t", "pareto"):
            raise ValueError(f"unsupported EGARCH noise kind {self.z.kind!r}")


@dataclass(frozen=True)
class Garch11Pair(JsonFields):
    """GARCH(1,1) multipliers A_t = alpha1 eta_{t-1}^2 + beta1, B_t = alpha0."""

    TAG = ("type", "garch11")
    alpha0: float = field(metadata={"rule": positive})
    alpha1: float = field(metadata={"rule": _NON_NEGATIVE})
    beta1: float = field(metadata={"rule": _NON_NEGATIVE})
    eta: InnovationSpec

    def __post_init__(self):
        self.check_fields()

    def draw_a(self, g: np.random.Generator, size: int) -> np.ndarray:
        return self._a_of(draw(self.eta, g, size))

    def _a_of(self, e: np.ndarray) -> np.ndarray:
        # alpha1 e^2 + beta1 in e's own buffer; the one law of A
        e *= e
        e *= self.alpha1
        e += self.beta1
        return e


@dataclass(frozen=True)
class GenericPair(JsonFields):
    """Generic non-negative (A, B) pair for the recurrence."""

    TAG = ("type", "generic")
    a: InnovationSpec
    b: InnovationSpec

    def __post_init__(self):
        self.check_fields()
        for name, spec in (("a", self.a), ("b", self.b)):
            if spec.kind == "pareto":
                continue  # support [1, inf)
            if spec.kind == "constant" and spec.c >= 0:
                continue
            raise ValueError(f"{name} must be a non-negative distribution "
                             "(pareto or constant >= 0)")

    def draw_a(self, g: np.random.Generator, size: int) -> np.ndarray:
        return draw(self.a, g, size)


def probe_multipliers(draw_a) -> np.ndarray:
    """Draws of A by draw_a(generator, size) on a fixed internal seed,
    rejected unless they are a one-dimensional array of exactly size
    values, free of NaN and non-negative, that passes E log A < 0 (mean
    + 3 SE < 0). A == 0 draws contribute -inf, which is fine (they only
    help).
    """
    a = np.asarray(draw_a(_CALIBRATION_SEED.generator(), _CALIBRATION_DRAWS))
    if a.ndim != 1:
        raise ValueError("draws of A must be one-dimensional, got shape "
                         f"{a.shape}")
    if a.size != _CALIBRATION_DRAWS:
        raise ValueError(f"asked for {_CALIBRATION_DRAWS} draws of A, got "
                         f"{a.size}")
    if np.isnan(a).any():
        raise ValueError("draws of A contain NaN")
    if a.min() < 0:
        raise ValueError("A must be non-negative, got negative values")
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(a)
        m = float(np.mean(la))
        se = float(np.std(la, ddof=1) / np.sqrt(la.size))
    if not (m == -np.inf or m + 3.0 * se < 0.0):
        raise ValueError("no stationary solution")
    return a


@dataclass(frozen=True)
class SreSvConfig(JsonFields):
    """Volatility from sigma_t^p = A_t sigma_{t-1}^p + B_t.

    garch_returns=True labels the comparison variant X_t = sigma_t eta_t
    (recursion noise reused), i.e. an actual GARCH return series rather
    than an SV model. Its returns have the one noise law eta, so z must
    equal the pair's eta. pair_source is the JSON key "pair".
    """

    TAG = ("family", "sresv")
    p: float = field(metadata={"rule": positive})
    pair_source: Union[Garch11Pair, GenericPair] = field(
        metadata={"json": "pair"})
    z: InnovationSpec
    garch_returns: bool = False

    def __post_init__(self):
        self.check_fields()
        if isinstance(self.pair_source, Garch11Pair):
            if self.p != 2.0:
                raise ValueError("Garch11 multipliers require p = 2")
            if self.garch_returns and self.z != self.pair_source.eta:
                raise ValueError(f"garch_returns multiplies sigma by the "
                                 f"pair's eta {self.pair_source.eta}, so z "
                                 f"must equal it, got z {self.z}")
        elif self.garch_returns:
            raise ValueError("garch_returns needs Garch11 multipliers")
        probe_multipliers(self.pair_source.draw_a)


@dataclass(frozen=True)
class MaSvConfig(JsonFields):
    """Finite moving-average volatility sigma_t^p = |sum_j psi_j eta_{t-j}|."""

    TAG = ("family", "masv")
    p: float = field(metadata={"rule": positive})
    psi: tuple[float, ...]
    eta: InnovationSpec
    z: InnovationSpec

    def __post_init__(self):
        self.check_fields()
        if not any(v != 0.0 for v in self.psi):
            raise ValueError("psi needs at least one nonzero coefficient")
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

_AR1_BLOCK = 64  # steps combined by doubling; a power of two
# blocks per tile: each tile and scratch array takes 32 KB, below the
# allocator's mmap threshold; the result does not depend on it
_AR1_TILE = 64


def _ar1(a, b, y0: float = 0.0) -> np.ndarray:
    """y_t = a_t y_{t-1} + b_t from y_{-1} = y0; a and b are each a float
    or an n-long array, and a float a gives the bytes of np.full(n, a).

    Numpy-only scan over blocks of _AR1_BLOCK steps at fixed indices. A
    tile of blocks is transposed so that step j of every block is one
    contiguous row, and so are the tile's gains, its values of a. By
    doubling, row j composes its (a, b) pair with that of row j-d (b_j +=
    a_j b_{j-d}, then a_j *= a_{j-d}) for d = 1, 2, 4, ..; the block
    carries are chained in index order, and row j gains a_j (by then the
    block's product of a up to j) times the block's carry. The result
    depends only on (a, b, y0), so a prefix of the input gives a prefix
    of the result.

    A term of y_t that has passed F factors of a takes at most
    65 F / 64 + 8 roundings. So for non-negative a, b and y0, y_t is
    within (8 y_t + 65 Z_t / 64) 2^-53 of exact, to first order, where
    Z_t = a_t (Z_{t-1} + y_{t-1}), Z_{-1} = 0: a relative error of
    (8 + 65 L_t / 64) 2^-53 at the mean number of factors L_t = Z_t / y_t.
    """
    n = np.broadcast(a, b).size
    a = np.broadcast_to(np.asarray(a, dtype=float), n)
    blocks = -(-n // _AR1_BLOCK)
    y = np.zeros(blocks * _AR1_BLOCK)
    y[:n] = b
    rows = y.reshape(blocks, _AR1_BLOCK)
    cols = min(_AR1_TILE, blocks)
    tile, tmp, gain = (np.empty((_AR1_BLOCK, cols)) for _ in range(3))
    carry = float(y0)
    for r in range(0, blocks, _AR1_TILE):
        rows_r = rows[r:r + _AR1_TILE]
        k = len(rows_r)
        s, t, g = tile[:, :k], tmp[:, :k], gain[:, :k]
        s[...] = rows_r.T
        # resize pads a last block that runs past the end with repeats,
        # which reach only the values past the end
        g[...] = np.resize(a[r * _AR1_BLOCK:(r + k) * _AR1_BLOCK],
                           (k, _AR1_BLOCK)).T
        d = 1
        while d < _AR1_BLOCK:
            np.multiply(g[d:], s[:-d], out=t[d:])
            s[d:] += t[d:]
            g[d:] *= g[:-d]  # numpy buffers the overlapping operands
            d *= 2
        carries = []
        for ga, sb in zip(g[-1].tolist(), s[-1].tolist()):
            carries.append(carry)
            carry = ga * carry + sb
        np.multiply(g, carries, out=t)
        s += t
        rows_r[...] = s.T
    return y[:n]


def simulate_exp_ar1(cfg: ExpAr1Config, n: int, burn_in: int = DEFAULT_BURN_IN,
                     seed: RngSeed = RngSeed(0)) -> Path:
    eta = draw(cfg.eta, seed.generator(0), burn_in + n)
    y = _ar1(cfg.phi, eta)
    sigma = np.exp(y[burn_in:])
    z = draw(cfg.z, seed.generator(1), n)
    return Path(sigma, sigma * z, cfg, seed, burn_in)


def simulate_egarch(cfg: EgarchConfig, n: int, burn_in: int = DEFAULT_BURN_IN,
                    seed: RngSeed = RngSeed(0)) -> Path:
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


def simulate_sre_sv(cfg: SreSvConfig, n: int, burn_in: int = DEFAULT_BURN_IN,
                    seed: RngSeed = RngSeed(0)) -> Path:
    total = burn_in + n
    src = cfg.pair_source
    if cfg.garch_returns:  # one eta draw: eta_t also multiplies sigma_t
        eta = draw(src.eta, seed.generator(0), total + 1)
        a = src._a_of(eta[:-1].copy())
    else:  # A_t from stream 0; a GARCH A_t uses eta_{t-1}, eta_{-burn-1} on
        a = src.draw_a(seed.generator(0), total)
    if isinstance(src, Garch11Pair):
        b = b1 = float(src.alpha0)
    else:
        b = draw(src.b, seed.generator(2), total + 1)
        b1 = float(b[0])
        b = b[1:]
    if np.all(b == 0.0) and b1 == 0.0:
        warnings.warn("degenerate volatility: B == 0 yields the zero path")

    sigma = _ar1(a, b, _sre_initial_state(cfg, b1))[burn_in:] ** (1.0 / cfg.p)

    noise = (eta[burn_in + 1:] if cfg.garch_returns
             else draw(cfg.z, seed.generator(1), n))
    return Path(sigma, sigma * noise, cfg, seed, burn_in)


def simulate_ma_sv(cfg: MaSvConfig, n: int, seed: RngSeed = RngSeed(0)) -> Path:
    """Exact stationary simulation; q extra innovations replace a burn-in."""
    q = len(cfg.psi) - 1
    eta = draw(cfg.eta, seed.generator(0), n + q)
    # valid-mode convolution gives Y_t = sum_j psi_j eta_{t-j} exactly
    y = np.convolve(eta, np.asarray(cfg.psi, dtype=float), mode="valid")
    sigma = np.abs(y) ** (1.0 / cfg.p)
    z = draw(cfg.z, seed.generator(1), n)
    return Path(sigma, sigma * z, cfg, seed, burn_in=0)


def simulate(cfg: ModelConfig, n: int, burn_in: int = DEFAULT_BURN_IN,
             seed: RngSeed = RngSeed(0)) -> Path:
    check_seed(seed)
    check_int("n", n, 1)
    check_int("burn_in", burn_in, 0)
    if isinstance(cfg, ExpAr1Config):
        return simulate_exp_ar1(cfg, n, burn_in, seed)
    if isinstance(cfg, EgarchConfig):
        return simulate_egarch(cfg, n, burn_in, seed)
    if isinstance(cfg, SreSvConfig):
        return simulate_sre_sv(cfg, n, burn_in, seed)
    if isinstance(cfg, MaSvConfig):
        return simulate_ma_sv(cfg, n, seed)
    raise ValueError(f"cfg must be a model config, got {cfg!r}")


# -- serialization --------------------------------------------------------

def config_to_json(cfg: ModelConfig) -> dict:
    return cfg.to_json()


def config_from_json(obj: dict) -> ModelConfig:
    """The model config a config_to_json dict describes."""
    return read_tagged(ModelConfig, obj, "model")


# -- CSV artifacts --------------------------------------------------------
# A block of rows is built as a matrix of 64-bit words that hold eight
# output bytes each, in little-endian order, next to a keep mask of the
# same shape with one 0/1 byte per output byte; the block's CSV text is
# the kept bytes in row order. Every step is a numpy operation over the
# rows of the block, and memory stays bounded by the block, not by the
# path length.
_CSV_BLOCK = 8192

# '%.17g' fast path. A double v in _G17_RANGE has the 17 significant
# digits N = round(|v| 10^(16-E)) in [10^16, 10^17), E its decimal
# exponent. 10^(16-E) is held as a double-double (hi, lo) and |v| hi is
# formed exactly with Dekker's two-product, so the computed N plus its
# fraction is within 1e-14 of the exact product, and rounding to N is
# exact unless the fraction lies within _G17_TIE of 1/2. Those values,
# and all values outside the range (0, NaN, inf, subnormals), go through
# Python's %.
_G17_RANGE = (1e-250, 1e250)
_G17_EMIN, _G17_EMAX = -252, 251  # E of the range, with room for a fix
_G17_TIE = 1e-9
_DEKKER_SPLIT = 134217729.0  # 2**27 + 1
_ONES = 0x0101010101010101
_CSV_WORD = np.dtype("<u8")  # the byte order the keep mask relies on


def _right_word(s: bytes) -> int:
    """The word that ends with the bytes s."""
    return int.from_bytes(s.rjust(8, b"\0"), "little")


def _byte_words(b) -> np.ndarray:
    """Rows of 8k bytes as k rows of little-endian words, one per column."""
    b = np.ascontiguousarray(b, dtype=np.uint8)
    return np.ascontiguousarray(b.view(_CSV_WORD).astype(np.uint64).T)


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """Tables of the '%.17g' kernel, indexed by E - _G17_EMIN; built on
    first use so that importing the package does not pay for them."""
    e = np.arange(_G17_EMIN, _G17_EMAX + 1)
    hi, lo = [], []
    for k in (16 - e).tolist():
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den  # int / int rounds correctly
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    split = hi * _DEKKER_SPLIT
    hi_head = split - (split - hi)

    # %g: fixed notation for -4 <= E < 17, else d.ddd e+dd; the digits
    # take the point after int_len of them, at byte `point` (18: none)
    fixed = (e >= -4) & (e < 17)
    int_len = np.where(fixed, np.maximum(e + 1, 0), 1)
    point = np.where(fixed & (e < 0), 18, int_len)[:, None]
    p = np.arange(24)
    zeros = [b"0." + b"0" * (-x - 1) if f and x < 0 else b""
             for f, x in zip(fixed.tolist(), e.tolist())]
    lead = [s for z in zeros for s in (z, b"-" + z)]
    exp = [b"" if f else b"e%+03d" % x
           for f, x in zip(fixed.tolist(), e.tolist())]

    quad = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return SimpleNamespace(
        hi=hi, lo=np.array(lo), hi_head=hi_head, hi_tail=hi - hi_head,
        int_len=int_len, point=point[:, 0],
        from_digit=_byte_words(((p < point) & (p < 17)) * 0xFF),
        from_shifted=_byte_words(((p > point) & (p < 18)) * 0xFF),
        at_point=_byte_words((p == point) * ord(".")),
        keep_digits=_byte_words(p < np.arange(19)[:, None]),
        # the sign and "0.0.." of E < 0 end word 0, at [2 (E - EMIN) + neg]
        lead=np.array([_right_word(s) for s in lead], np.uint64),
        keep_lead=np.array([_right_word(b"\1" * len(s)) for s in lead],
                           np.uint64),
        exp=np.array([int.from_bytes(b"\0\0" + s, "little") for s in exp],
                     np.uint64),
        keep_exp=np.array([int.from_bytes(b"\0\0" + b"\1" * len(s), "little")
                           for s in exp], np.uint64),
        # ASCII of 0000-9999 as words, and the place of the last nonzero
        # digit among the four
        quad=((48 + quad) << 8 * np.arange(4)).sum(axis=1).astype(np.uint64),
        quad_last=3 - np.argmax(quad[:, ::-1] != 0, axis=1),
        keep_suffix=np.array([_ONES << 8 * (8 - k) & 2 ** 64 - 1
                              for k in range(9)], np.uint64))


def _g17_digits(tb, a, eo):
    """N = round(a 10^(16-E)) for E = eo + _G17_EMIN, and the signed
    remainder a 10^(16-E) - N, correct to 1e-14."""
    hi, hi_head, hi_tail = tb.hi[eo], tb.hi_head[eo], tb.hi_tail[eo]
    p = a * hi
    split = a * _DEKKER_SPLIT
    a_head = split - (split - a)
    a_tail = a - a_head
    err = (((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head)
           + a_tail * hi_tail)  # a hi - p, exactly
    whole = np.floor(p)
    frac = (p - whole) + (err + a * tb.lo[eo])
    up = np.floor(frac + 0.5)
    return whole.astype(np.int64) + up.astype(np.int64), frac - up


def _g17_words(v: np.ndarray, sep: int, words, keep) -> np.ndarray:
    """Write '%.17g' % value and the byte `sep` into four words per value.

    Word 0 ends with the sign and the "0.0.." of fixed notation, bytes
    8-25 hold the 17 digits with the point inserted, 26-30 the exponent
    and 31 `sep`; `keep` selects the bytes of the %g layout. Returns the
    indices of the values that Python's % formatted instead.
    """
    tb = _g17_tables()
    a = np.abs(v)
    fast = (a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1])
    a[~fast] = 1.0
    eo = np.floor(np.log10(a)).astype(np.intp) - _G17_EMIN
    n17, rem = _g17_digits(tb, a, eo)
    # log10 can miss E by one next to a power of ten, and N can round up
    # to 10^17: E moves by one where the product, before rounding, leaves
    # [10^16, 10^17 - 1/2)
    low = (n17 < 10 ** 16) | ((n17 == 10 ** 16) & (rem < 0))
    off = (n17 >= 10 ** 17).astype(np.intp) - low
    fix = np.flatnonzero(off)
    if fix.size:
        eo[fix] += off[fix]
        n17[fix], rem[fix] = _g17_digits(tb, a[fix], eo[fix])
    slow = np.flatnonzero(~fast | (np.abs(rem) > 0.5 - _G17_TIE)
                          | (n17 < 10 ** 16) | (n17 >= 10 ** 17))
    n17[slow] = 10 ** 16  # keeps the digit tables in range

    # the digits as three words: 0-7, 8-15 and 16
    head = n17 // 10 ** 9
    mid = (n17 - head * 10 ** 9) // 10
    last = n17 - head * 10 ** 9 - mid * 10
    q0, q2 = head // 10000, mid // 10000
    q1, q3 = head - q0 * 10000, mid - q2 * 10000
    d = (tb.quad[q0] | tb.quad[q1] << 32, tb.quad[q2] | tb.quad[q3] << 32,
         (last + 48).astype(np.uint64))
    shifted = (d[0] << 8, d[1] << 8 | d[0] >> 56, d[2] << 8 | d[1] >> 56)
    # trailing zeros go, but not those before the point; only a value
    # whose 17th digit is 0 has any
    kept = np.full(n17.size, 16, np.intp)
    z = np.flatnonzero(last == 0)
    last_nz = tb.quad_last[q0[z]]
    for q, base in ((q1, 4), (q2, 8), (q3, 12)):
        q = q[z]
        np.copyto(last_nz, base + tb.quad_last[q], where=q != 0)
    kept[z] = np.maximum(last_nz, tb.int_len[eo[z]] - 1)
    kept_len = kept + 1 + (kept >= tb.point[eo])

    lead = 2 * eo + (v < 0)
    words[:, 0] = tb.lead[lead]
    keep[:, 0] = tb.keep_lead[lead]
    for i in range(3):
        words[:, i + 1] = (d[i] & tb.from_digit[i][eo]
                           | shifted[i] & tb.from_shifted[i][eo]
                           | tb.at_point[i][eo])
        keep[:, i + 1] = tb.keep_digits[i][kept_len]
    words[:, 3] |= tb.exp[eo] | sep << 56
    keep[:, 3] |= tb.keep_exp[eo] | 1 << 56

    if slow.size:
        text = [("%.17g" % x).encode("ascii") for x in v[slow].tolist()]
        words[slow] = np.frombuffer(b"".join(s.ljust(32, b"\0")
                                             for s in text),
                                    _CSV_WORD).reshape(-1, 4)
        words[slow, 3] |= sep << 56
        size = np.array([len(s) for s in text])[:, None]
        byte = np.arange(32)
        keep[slow] = ((byte < size) | (byte == 31)).astype(np.uint8).view(
            _CSV_WORD)
    return slow


def _index_words(start: int, words, keep) -> None:
    """Write '%d,' of each row index from `start` on, right-aligned in
    the words of each row."""
    tb = _g17_tables()
    rows, width = words.shape
    stop = start + rows
    t = np.arange(start, stop, dtype=np.int64)
    digits = np.ones(t.size, np.int64)
    power = 10
    while power < stop:
        digits += t >= power
        power *= 10
    # t 10 as 8 width digits with leading zeros; its last 0 becomes ','
    t10 = t * 10
    for w in range(width):
        below = width - 1 - w
        chunk = t10 // 10 ** (8 * below) % 10 ** 8
        hi4 = chunk // 10000
        words[:, w] = tb.quad[hi4] | tb.quad[chunk - hi4 * 10000] << 32
        keep[:, w] = tb.keep_suffix[np.clip(digits + 1 - 8 * below, 0, 8)]
    words[:, -1] ^= (ord("0") ^ ord(",")) << 56


def write_csv_rows(fh, header: str, columns) -> None:
    """Write `header`, then the row `t,<columns at t>` for each index t.

    Each column is float64 and written as '%.17g', so the text equals
    `fmt % (t, *values)` row by row, byte for byte, for every value. The
    rows are formatted by numpy, a block at a time; the floats it cannot
    prove exact (0, NaN, inf, subnormal and |v| outside [1e-250, 1e250],
    and values a hair from a rounding tie) are formatted by Python's %
    one by one.
    """
    for c in columns:
        if c.dtype != np.float64:
            raise TypeError(f"cannot write a {c.dtype} column")
    fh.write(header)
    n = len(columns[0])
    width = (len(str(max(n - 1, 0))) + 8) // 8
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    for i in range(0, n, _CSV_BLOCK):
        rows = min(_CSV_BLOCK, n - i)
        words = np.empty((rows, width + 4 * len(columns)), _CSV_WORD)
        keep = np.empty_like(words)
        _index_words(i, words[:, :width], keep[:, :width])
        for j, (c, sep) in enumerate(zip(columns, seps)):
            a = width + 4 * j
            _g17_words(c[i:i + rows], sep, words[:, a:a + 4],
                       keep[:, a:a + 4])
        fh.write(words.view(np.uint8)[keep.view(np.bool_)].tobytes()
                 .decode("ascii"))


# the columns of path.csv, as path_to_csv writes and read_path_csv reads
_PATH_COLUMNS = ("t", "sigma", "x")


def path_to_csv(path: Path, file) -> None:
    """Write `t,sigma,x` rows at full double precision."""
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        with open(file, "w") as fh:
            return path_to_csv(path, fh)
    write_csv_rows(file, ",".join(_PATH_COLUMNS) + "\n", (path.sigma, path.x))


def read_path_csv(file) -> tuple:
    """The sigma and x columns of a path.csv, found by their header names,
    and its t column, if it has one, checked the same way.

    Every row must hold a number other than NaN in each of these columns
    (+-inf included): an empty, malformed or NaN field, a short row or a
    file without data rows is a ValueError. There is no comment syntax: a
    '#' line is a short row or a malformed field, a '#' in a field too.
    The header is read first; np.loadtxt then reads the file by its path,
    past that line, which is faster than from an open file.
    """
    with open(file) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
    missing = [c for c in _PATH_COLUMNS[1:] if c not in header]
    if missing:
        raise ValueError(f"missing column {', '.join(missing)}")
    names = [c for c in _PATH_COLUMNS if c in header]
    with warnings.catch_warnings():
        # loadtxt warns on a file without data rows, rejected below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(file, delimiter=",", ndmin=2, comments=None,
                          skiprows=1, usecols=[header.index(c) for c in names])
    if data.shape[0] == 0:
        raise ValueError("no data rows")
    nan = np.argwhere(np.isnan(data))
    if nan.size:
        row, col = nan[0]
        raise ValueError(f"column {names[col]} holds NaN in data row "
                         f"{row + 1}")
    sigma, x = np.ascontiguousarray(data[:, -2:].T)
    return sigma, x
