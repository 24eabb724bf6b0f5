"""Time-domain wave traces via numerical inverse Laplace transformation.

The transform is inverted on a Bromwich line s = sigma + j*omega: it is
sampled on a uniform omega grid (bromwich_line), the spectrum is tapered
with a raised cosine on its top fraction, and an inverse real FFT plus
exp(sigma*t) weighting recovers the time series. Sampling the line with
spacing 2*pi/period aliases the weighted signal with period `period`; the
period is therefore held at 8x the requested horizon so the wraparound
images carry a factor exp(-sigma*period) ~ 1e-7 at the default
sigma = 2/T_final.

Step inputs ride along as an extra 1/s factor in the spectrum; the k = 0
sample sits at s = sigma on the line, so nothing is ever evaluated at the
origin pole. The wave spectra are formed on the line's arrays
(_line_spectra), BLOCK entries at a time, from waves.wave_sweep with the
same reflection_from_sample and round_trip as a single sample. A spectrum
entry that is not finite is refused with NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonDecaying, NumericalError
from .platoon import SimConfig, Topology, build_network, default_dt, simulate
from .tf import AgentDynamics
from .waves import WaveSweep, reflection_from_sample, round_trip, wave_sweep

PERIOD_FACTOR = 8           # FFT period as a multiple of the requested horizon
TAIL_FRACTION = 0.1         # spectrum tail inspected by the decay guard
TAIL_THRESHOLD = 0.02       # mean tail magnitude above this fraction of the peak fails
BLOCK = 2048                # line entries per block: bounds the temporaries of a long line


@dataclass(frozen=True)
class InverseLaplaceConfig:
    """Sampling plan for one inversion.

    samples is the time-grid length over the full FFT period (power of two,
    at least 1024); the returned trace covers [0, T_final], i.e. the first
    1/PERIOD_FACTOR of the period. sigma defaults to 2/T_final.
    """

    T_final: float
    samples: int = 4096
    sigma: Optional[float] = None
    window: float = 0.1

    def __post_init__(self):
        for name, value in (("T_final", self.T_final), ("sigma", self.sigma)):
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.T_final <= 0:
            raise ValueError("T_final must be positive")
        if self.samples < 1024 or self.samples & (self.samples - 1):
            raise ValueError("samples must be a power of two, at least 1024")
        if not 0.0 <= self.window < 1.0:
            raise ValueError("window fraction must be in [0, 1)")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def abscissa(self) -> float:
        return self.sigma if self.sigma is not None else 2.0 / self.T_final

    @property
    def period(self) -> float:
        return PERIOD_FACTOR * self.T_final


def bromwich_line(cfg: InverseLaplaceConfig) -> np.ndarray:
    """Sample points s_k = sigma + j*k*2*pi/period, k = 0..samples/2."""
    omegas = 2.0 * np.pi / cfg.period * np.arange(cfg.samples // 2 + 1)
    return cfg.abscissa + 1j * omegas


def inverse_laplace(
    spectrum: np.ndarray,
    cfg: InverseLaplaceConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert a spectrum, entry k at bromwich_line(cfg)[k] (ascending
    frequency), to (times, values) on [0, cfg.T_final].

    Raises NonDecaying when the spectrum has not rolled off by the top of
    the band, which means the band is too narrow (or the transform has a
    direct feedthrough term with no decaying inverse).
    """
    n = cfg.samples
    m = n // 2
    dt = cfg.period / n
    times = np.arange(n) * dt
    keep = times <= cfg.T_final
    times = times[keep]

    mags = np.abs(spectrum)
    peak = float(np.max(mags))
    if peak == 0.0:
        return times, np.zeros(len(times))
    tail = mags[int((1.0 - TAIL_FRACTION) * m):]
    if float(np.mean(tail)) > TAIL_THRESHOLD * peak:
        raise NonDecaying(
            f"spectrum tail mean {float(np.mean(tail)):.3g} vs peak {peak:.3g}; "
            "widen the band (more samples) or the transform does not decay"
        )

    weights = np.ones(m + 1)
    if cfg.window > 0.0:
        k0 = int((1.0 - cfg.window) * m)
        ramp = np.arange(m + 1 - k0)
        weights[k0:] = 0.5 * (1.0 + np.cos(np.pi * ramp / (m - k0)))

    g = np.fft.irfft(spectrum * weights, n=n) / dt
    return times, g[keep] * np.exp(cfg.abscissa * times)


@dataclass(frozen=True)
class WaveComponents:
    """Forward wave a, backward wave b and their sum x for one agent."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray


def _line_spectra(d: AgentDynamics, cfg: InverseLaplaceConfig,
                  spectra: Callable[[WaveSweep], np.ndarray]) -> np.ndarray:
    """The rows of spectra(sweep) on bromwich_line(cfg), ascending frequency.

    spectra(sweep) gives one row per spectrum and one column per entry,
    under a local errstate that ignores everything. The line is taken in
    blocks of BLOCK entries, from the top block down, so an error names
    the top block that holds a bad entry. Within it, wave_sweep raises at
    its bad entry of largest |s|, then spectra may raise
    (ReflectionSingular from reflection_from_sample), and last a column
    that is not finite is refused with NumericalError, the one of largest
    |s| named.
    """
    line = bromwich_line(cfg)
    parts = []
    for lo in reversed(range(0, len(line), BLOCK)):
        sweep = wave_sweep(d, line[lo:lo + BLOCK])
        with np.errstate(all="ignore"):
            rows = spectra(sweep)
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=0))
        if bad.size:
            s = complex(sweep.s[bad[-1]])
            raise NumericalError(f"the wave spectrum is non-finite at s={s}")
        parts.append(rows)
    return np.concatenate(parts[::-1], axis=1)


def _wave_spectra(
    d: AgentDynamics,
    N: int,
    n: int,
    cfg: InverseLaplaceConfig,
    step_amplitude: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (A_n, B_n) of a step-driven N-agent path on the Bromwich line.

    One walk of the line produces both, so the two inversions see identical
    branch choices.
    """
    def both(ws: WaveSweep) -> np.ndarray:
        refl = reflection_from_sample(ws)
        x0 = step_amplitude / ws.s / round_trip(ws, refl, N)
        return np.stack([ws.g_plus**n * x0, ws.g_minus ** (N - n) * refl.tN * ws.g_plus**N * x0])

    a, b = _line_spectra(d, cfg, both)
    return a, b


def wave_components(
    d: AgentDynamics,
    N: int,
    n: int,
    cfg: InverseLaplaceConfig,
    step_amplitude: float = 1.0,
) -> WaveComponents:
    """Travelling-wave decomposition of agent n's step response on a path of N.

    Frequency-domain assembly with both boundary reflections folded in:

      A_n = g_plus**n * X0 / (1 - t1*tN*(g_plus*g_minus)**(N-1))
      B_n = g_minus**(N-n) * tN * g_plus**N * X0 / (same denominator)

    and x_n = a_n + b_n after inversion.
    """
    if not 1 <= n <= N:
        raise ValueError(f"agent index n={n} outside 1..{N}")
    a_spectrum, b_spectrum = _wave_spectra(d, N, n, cfg, step_amplitude)
    times, a_t = inverse_laplace(a_spectrum, cfg)
    _, b_t = inverse_laplace(b_spectrum, cfg)
    return WaveComponents(times=times, a=a_t, b=b_t, x=a_t + b_t)


def early_time_check(
    d: AgentDynamics,
    n: int,
    horizon: float,
    N: int = 25,
    cfg: Optional[InverseLaplaceConfig] = None,
    dt: Optional[float] = None,
) -> float:
    """Max gap between the simulated x_n and the pure forward wave g_plus**n.

    Before the wave has reached the far boundary and returned, the forward
    component alone is the exact response, so this deviation stays at
    inversion accuracy for horizons below the round-trip time. N sizes the
    simulated path; its round trip 2N - n must exceed the horizon for the
    comparison to mean anything.
    """
    if n == 0:
        return 0.0
    if not 1 <= n <= N:
        raise ValueError(f"agent index n={n} outside 1..{N}")
    cfg = cfg or InverseLaplaceConfig(T_final=horizon)
    (spectrum,) = _line_spectra(d, cfg, lambda ws: (ws.g_plus**n / ws.s)[None])
    times, wave = inverse_laplace(spectrum, cfg)

    net = build_network(Topology.path(N), d)
    sim_cfg = SimConfig(dt=dt or default_dt(d), T_final=horizon)
    traj = simulate(net, sim_cfg, agents=(n,))
    sim_on_wave_grid = np.interp(times, traj.times, traj.agent(n))
    return float(np.max(np.abs(sim_on_wave_grid - wave)))
