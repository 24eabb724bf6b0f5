"""In-memory span recorder that wraps wavestring functions from the outside.

Nothing in the library is instrumented. While `Tracer.installed()` is
active, each traced function is replaced by a wrapper under every name it is
bound to in the wavestring modules (e.g. `cli.simulate` and
`waveresponse.simulate` both point at the wrapper of `platoon.simulate`), so
calls through any module are seen. On exit the original bindings return.

A span is (name, start, end, parent index); counted functions record only a
call count, because they run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("cli", "platoon", "stability", "waves", "waveresponse", "tf", "poly")

SPANNED = (
    "cli.main", "cli.cmd_analyze", "cli.cmd_simulate", "cli.cmd_waves",
    "cli.cmd_sweep", "cli.load_config", "cli._write_atomic",
    "platoon.build_network", "platoon.simulate", "platoon.overshoot_metrics",
    "stability.local_string_verdict", "stability.nyquist_axis_test",
    "stability.awtf_norm_estimates", "stability.hinf_estimate",
    "waves.awtf_axis_sweep",
    "waveresponse.wave_components", "waveresponse.inverse_laplace",
)
COUNTED = ("waves.awtf_eval", "waves.t_g_eval", "tf.tf_eval")


def _on_simulate(tracer, args, kwargs, traj):
    net = args[0]
    steps = len(traj.times) - 1
    n_z = net.state_dim
    tracer.work["platoon.rk4_steps"] += steps
    tracer.work["platoon.agent_steps"] += steps * net.num_agents
    # Computed, not measured: 4 dense matvecs of A per RK4 step.
    tracer.work["platoon.flops"] += steps * 8 * n_z * n_z
    tracer.work["platoon.matrix_bytes"] += steps * 4 * n_z * n_z * 8
    tracer.work["platoon.state_dim"] = max(tracer.work["platoon.state_dim"], n_z)


def _on_write(tracer, args, kwargs, result):
    tracer.work["cli.bytes_written"] += os.path.getsize(args[0])


def _on_axis_sweep(tracer, args, kwargs, samples):
    tracer.work["waves.axis_samples"] += len(samples)


def _on_inverse_laplace(tracer, args, kwargs, result):
    tracer.work["waveresponse.spectrum_samples"] += args[1].samples // 2 + 1


ON_RETURN = {
    "platoon.simulate": _on_simulate,
    "cli._write_atomic": _on_write,
    "waves.awtf_axis_sweep": _on_axis_sweep,
    "waveresponse.inverse_laplace": _on_inverse_laplace,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, fn):
        hook = ON_RETURN.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self, package):
        """Bind the wrappers in every module of `package`, restore on exit."""
        mods = {m: getattr(package, m) for m in MODULES}
        patched = []
        try:
            for names, make in ((SPANNED, self._span), (COUNTED, self._count)):
                for name in names:
                    home, attr = name.split(".")
                    original = getattr(mods[home], attr)
                    wrapper = make(name, original)
                    for mod in mods.values():
                        if getattr(mod, attr, None) is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per name: total duration, self duration and span count."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        count: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            count[name] += 1
        return total, own, count
