"""Time-domain wave traces via numerical inverse Laplace transformation.

The transform is inverted on a Bromwich line s = sigma + j*omega: the
evaluator is sampled on a uniform omega grid, the spectrum is tapered with a
raised cosine on its top fraction, and an inverse real FFT plus exp(sigma*t)
weighting recovers the time series. Sampling the line with spacing
2*pi/period aliases the weighted signal with period `period`; the period is
therefore held at 8x the requested horizon so the wraparound images carry a
factor exp(-sigma*period) ~ 1e-7 at the default sigma = 2/T_final.

Step inputs ride along as an extra 1/s factor in the evaluator; the k = 0
sample sits at s = sigma on the line, so nothing is ever evaluated at the
origin pole.

Evaluators are called in descending-frequency order, once per sample, so
wave evaluators can chain branch-continuity hints (waves.wave_chain). The
travelling-wave spectra of wave_components take the line's couplings from
the array core (waves.array_blocks) in place of the per-sample call, bit
for bit equal to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .errors import NonDecaying
from .platoon import SimConfig, Topology, build_network, default_dt, simulate
from .tf import AgentDynamics
from .waves import WaveSample, array_blocks, reflection_from_sample, wave_chain

PERIOD_FACTOR = 8           # FFT period as a multiple of the requested horizon
TAIL_FRACTION = 0.1         # spectrum tail inspected by the decay guard
TAIL_THRESHOLD = 0.02       # mean tail magnitude above this fraction of the peak fails


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


def sample_line(
    F: Callable[[complex], Any],
    cfg: InverseLaplaceConfig,
) -> np.ndarray:
    """F at each point of bromwich_line(cfg), called once per point in
    descending-frequency order so hint chains seed at large |s|.

    Entry k holds F(s_k); an F returning a tuple gives one column per item.
    """
    line = bromwich_line(cfg)
    return np.array([F(s) for s in line[::-1]], dtype=complex)[::-1]


def invert_spectrum(
    spectrum: np.ndarray,
    cfg: InverseLaplaceConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert a sample_line spectrum to (times, values) on [0, cfg.T_final].

    Raises NonDecaying when the spectrum has not rolled off by the top of
    the band, which means the band is too narrow (or the transform has a
    direct feedthrough term with no decaying inverse).
    """
    sigma = cfg.abscissa
    period = cfg.period
    n = cfg.samples
    m = n // 2

    mags = np.abs(spectrum)
    peak = float(np.max(mags))
    if peak == 0.0:
        times = np.arange(n) * (period / n)
        keep = times <= cfg.T_final
        return times[keep], np.zeros(int(np.count_nonzero(keep)))
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

    dt = period / n
    g = np.fft.irfft(spectrum * weights, n=n) / dt
    times = np.arange(n) * dt
    keep = times <= cfg.T_final
    times = times[keep]
    values = g[keep] * np.exp(sigma * times)
    return times, values


def inverse_laplace(
    F: Callable[[complex], complex],
    cfg: InverseLaplaceConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert F to (times, values) on [0, cfg.T_final].

    F must be analytic for Re(s) >= sigma. Raises NonDecaying as
    invert_spectrum does.
    """
    return invert_spectrum(sample_line(F, cfg), cfg)


@dataclass(frozen=True)
class WaveComponents:
    """Forward wave a, backward wave b and their sum x for one agent."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray


def _wave_spectra(
    d: AgentDynamics,
    N: int,
    n: int,
    cfg: InverseLaplaceConfig,
    step_amplitude: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectra (A_n, B_n) of a step-driven N-agent path on the Bromwich line.

    One hint-chained pass, in descending frequency, produces both so the two
    inversions see identical branch choices. The couplings come from the
    array core (waves.array_blocks), and the scalar chain from the first
    sample that the core cannot settle; the spectra are formed per sample,
    in chain order, so results and errors are those of sample_line.
    """
    def both(s: complex, ws: WaveSample) -> tuple[complex, complex]:
        refl = reflection_from_sample(ws)
        gp, gm = ws.g_plus, ws.g_minus
        loop = refl.t1 * refl.tN * (gp * gm) ** (N - 1)
        x0 = step_amplitude / s
        return (gp**n * x0 / (1.0 - loop),
                gm ** (N - n) * refl.tN * gp**N * x0 / (1.0 - loop))

    line = bromwich_line(cfg)[::-1]
    ab = np.empty((len(line), 2), dtype=complex)
    for lo, seed, block, exact in array_blocks(d, line):
        for k, ws in zip(range(lo, lo + exact), block):
            ab[k] = both(line[k], ws)
        if exact < len(block):
            chain = wave_chain(d, block[exact - 1] if exact else seed)
            for k in range(lo + exact, len(line)):
                ab[k] = both(line[k], chain(line[k]))
            break
    a, b = ab[::-1].T
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
    times, a_t = invert_spectrum(a_spectrum, cfg)
    _, b_t = invert_spectrum(b_spectrum, cfg)
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
    chain = wave_chain(d)
    times, wave = inverse_laplace(lambda s: chain(s).g_plus**n / s, cfg)

    net = build_network(Topology.path(N), d)
    sim_cfg = SimConfig(dt=dt or default_dt(d), T_final=horizon)
    traj = simulate(net, sim_cfg)
    sim_on_wave_grid = np.interp(times, traj.times, traj.agent(n))
    return float(np.max(np.abs(sim_on_wave_grid - wave)))
