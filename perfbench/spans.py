"""Span timers and counters wrapped around hypoflow's public functions.

`Tracer.install()` replaces every public function defined in a hypoflow
module by a wrapper that records a span named `<module>.<function>`, and
rebinds every attribute of every loaded `hypoflow*` module that refers to
the original (so `build_report` is traced whether it is called through
`functionals`, `verifier`, `cli` or the package root). `uninstall()` puts
the originals back. The program itself is not modified.

Per span the tracer keeps the call count, inclusive seconds (outermost calls
only, so recursion is not counted twice) and self seconds (inclusive minus
the direct child spans). A span's own bookkeeping falls into its caller's
self time; run.py reports the total as tracing overhead. A few functions
also feed counters computed from their arguments or results, outside the
timed span.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time

MODULES = ("phase_space", "operators", "integrator", "functionals", "kernels",
           "certificate", "verifier", "initial", "cli")

# Counters fed by the hooks at the end of this file.
COUNTERS = ("phase_space.floor_immaterial.repairs", "phase_space.save_state.bytes",
            "phase_space.load_state.bytes",
            "certificate.estimate_functional_constant.iterations",
            "verifier.run_suite.reports", "verifier.run_suite.states")


def _arg(fn_sig, args, kwargs, name):
    bound = fn_sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Span:
    """Totals of one traced function."""

    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.calls, self.incl, self.self_s, self.depth = 0, 0.0, 0.0, 0


class Tracer:
    def __init__(self):
        self.originals: dict[str, object] = {}
        self.wrappers: dict[str, object] = {}
        self.spans: dict[str, Span] = {}
        self._stack: list[list[float]] = []   # child seconds of each open span
        self._rebound: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every total; call between passes, with no span open."""
        for span in self.spans.values():
            span.clear()
        self._stack.clear()
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.report_states: set[bytes] = set()

    # --- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        pre, post = _HOOKS.get(name, (None, None))
        sig = inspect.signature(fn) if (pre or post) else None
        span = self.spans[name] = Span()
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(self, sig, args, kwargs) if pre else None
            children = [0.0]
            stack.append(children)
            span.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += dur - children[0]
                if not span.depth:
                    span.incl += dur
                if stack:
                    stack[-1][0] += dur
            if post:
                post(self, sig, args, kwargs, result, token)
            return result

        return wrapper

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every hypoflow module in MODULES."""
        for mod_name in MODULES:
            mod = importlib.import_module(f"hypoflow.{mod_name}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{mod_name}.{attr}"
                    self.originals[name] = obj
                    self.wrappers[name] = self._wrap(name, obj)
        by_id = {id(fn): name for name, fn in self.originals.items()}
        for mod in _hypoflow_modules():
            for attr, obj in list(vars(mod).items()):
                name = by_id.get(id(obj))
                if name is not None:
                    setattr(mod, attr, self.wrappers[name])
                    self._rebound.append((mod, attr, obj))
        stale = self.unwrapped_bindings()
        if stale:
            raise RuntimeError(f"tracer left originals bound at {stale}")

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Attributes of hypoflow modules still bound to an unwrapped original."""
        ids = {id(fn) for fn in self.originals.values()}
        return [f"{mod.__name__}.{attr}" for mod in _hypoflow_modules()
                for attr, obj in vars(mod).items() if id(obj) in ids]


def _hypoflow_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hypoflow" or n.startswith("hypoflow."))]


# --- counters ------------------------------------------------------------------
# Each hook pair runs outside the span it belongs to: pre(tracer, signature,
# args, kwargs) returns a token that post(..., result, token) receives.

def _floor_post(tr, sig, args, kwargs, result, token):
    # floor_immaterial returns its input unchanged unless it repaired a value
    if result is not _arg(sig, args, kwargs, "h"):
        tr.counts["phase_space.floor_immaterial.repairs"] += 1


def _file_bytes(key, param):
    def post(tr, sig, args, kwargs, result, token):
        tr.counts[key] += os.path.getsize(_arg(sig, args, kwargs, param))
    return post


def _report_post(tr, sig, args, kwargs, result, token):
    h = _arg(sig, args, kwargs, "state").h
    tr.report_states.add(hashlib.blake2b(h.tobytes(), digest_size=16).digest())


def _iterations_post(tr, sig, args, kwargs, result, token):
    tr.counts["certificate.estimate_functional_constant.iterations"] += result.iterations


def _suite_pre(tr, sig, args, kwargs):
    return tr.spans["functionals.build_report"].calls


def _suite_post(tr, sig, args, kwargs, result, token):
    tr.counts["verifier.run_suite.reports"] += tr.spans["functionals.build_report"].calls - token
    tr.counts["verifier.run_suite.states"] += _arg(sig, args, kwargs, "n_states")


_HOOKS = {
    "phase_space.floor_immaterial": (None, _floor_post),
    "phase_space.save_state": (None, _file_bytes("phase_space.save_state.bytes", "path")),
    "phase_space.load_state": (None, _file_bytes("phase_space.load_state.bytes", "path")),
    "functionals.build_report": (None, _report_post),
    "certificate.estimate_functional_constant": (None, _iterations_post),
    "verifier.run_suite": (_suite_pre, _suite_post),
}
