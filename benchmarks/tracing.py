"""Spans around covlab's public functions, installed from outside the package.

Every traced function is replaced in each covlab module namespace that binds
it (``experiments.spectral_norm``, ``estimators.sample_cov``, ``cli.*`` ...),
so calls made inside the package are seen where the caller looks them up.
Spans are kept in memory per thread.  A span's self time is its duration
minus the durations of the traced spans it directly caused; its inclusive
time is counted only for the outermost call of a function on a thread, so
recursion (``discretize`` of a permuted kernel) is not counted twice.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# module -> public functions timed in the traced run
TRACED = {
    "grid_kernel": ("discretize", "taper_weight_matrix", "fisher_yates_permutation"),
    "sampling": ("cholesky_psd", "draw_paths", "sample_cov"),
    "estimators": ("taper_estimate", "adaptive_threshold", "threshold_estimate"),
    "diagnostics": (
        "spectral_norm", "operator_quantities", "gamma1", "gamma2", "m_star", "kl_gaussian",
    ),
    "experiments": ("run_trial", "emit_csv", "summarize"),
    "minimax": ("certify_banded_membership", "certify_sparse_membership", "assouad_terms"),
    "matrixio": ("dump_matrix",),
    "svgplot": ("emit_svg",),
}


@dataclass
class FnStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Wraps the functions in TRACED and accumulates per-function totals."""

    def __init__(self) -> None:
        self.stats = {}
        self.trial_ends = {}  # (kernel, repr(lambda), trial) -> perf_counter at return
        self.bytes_written = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]  # name, time covered by child spans
            reentrant = any(f[0] == name for f in stack)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                with tracer._lock:
                    st = tracer.stats.setdefault(name, FnStats())
                    st.calls += 1
                    st.self_s += dur - frame[1]
                    if not reentrant:
                        st.inclusive_s += dur
                        st.durations.append(dur)
                    if name == "experiments.run_trial":
                        template, lam, _cfg, trial = args[:4]
                        tracer.trial_ends[(template.name, repr(lam), trial)] = end
                    elif name == "matrixio.dump_matrix":
                        tracer.bytes_written += os.path.getsize(args[1])

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function inside covlab."""
        targets = {}
        for mod_name, fns in TRACED.items():
            module = sys.modules[f"covlab.{mod_name}"]
            for fn_name in fns:
                fn = getattr(module, fn_name)
                targets[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "covlab" and not mod_name.startswith("covlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


class StampedStream:
    """Text sink that records when each sweep progress line was written.

    ``covlab sweep`` prints one ``trial kernel=... lambda=... trial=... ok``
    line per finished trial to stderr.  Matching it with the trial's return
    time gives the progress lag.
    """

    def __init__(self) -> None:
        self.parts = []
        self.progress = {}  # (kernel, repr(lambda), trial) -> perf_counter

    def write(self, text: str) -> int:
        if text.startswith("trial kernel="):
            fields = dict(tok.split("=", 1) for tok in text.split()[1:4])
            self.progress[(fields["kernel"], fields["lambda"], int(fields["trial"]))] = (
                time.perf_counter()
            )
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)
