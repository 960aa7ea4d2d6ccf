"""Spans around the calls into logsens's layers, recorded from outside.

``Recorder.install`` replaces every public function of the five layer
modules (``cli``, ``classical``, ``quantum``, ``matexp``, ``sensan``) with a
timing wrapper at *every* module binding, so names brought in with
``from ... import`` (``cli.trace``, ``cli.eig_decompose``,
``sensan.eig_decompose``, ``expm`` in both ``matexp`` and ``sensan``) are
wrapped too.  Nothing under ``src/`` changes; ``uninstall`` restores the
original bindings.

A span records its name, start, end, parent span and operation id.  Spans
exist only while an operation is open (``begin``/``end``), so reference
computations of the harness never show up.  A call that re-enters the
function of the innermost open span (``cli._dump_json`` recursing into
itself) is not split into nested spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

LAYERS = ("cli", "classical", "quantum", "matexp", "sensan")

# Private helpers that carry a layer's own work: the report writer and the
# oracle spot check inside ``run``.
PRIVATE = {"cli": ("_dump_json", "_atomic_write", "_oracle_spot_check")}

# ``cli.main`` is the operation itself, timed by the harness.
OP_ENTRY = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    tag: object = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _tag_expm(args, kwargs, out):
    a = np.asarray(args[0])
    return a.shape[0] if a.ndim == 3 else 1


def _tag_eig(args, kwargs, out):
    a = np.ascontiguousarray(args[0])
    return hashlib.sha1(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _tag_trace(args, kwargs, out):
    sys_ = args[0]
    method = _arg(args, kwargs, 2, "method", "analytic")
    spectrum = _arg(args, kwargs, 3, "spectrum")
    samples = len(out)
    # The analytic path materialises an (n, n, T) complex128 tensor unless
    # the spectrum carries Jordan blocks; 16 bytes per entry.
    defective = spectrum is not None and spectrum.is_defective
    phi = 16 * sys_.n ** 2 * samples if method == "analytic" and not defective else 0
    return {"method": method, "samples": samples,
            "masked": int(np.count_nonzero(out.spike_mask)), "phi_bytes": phi}


def _tag_csv(args, kwargs, out):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


def _tag_len(args, kwargs, out):
    return len(out)


TAGS = {
    "matexp.expm": _tag_expm,
    "matexp.eig_decompose": _tag_eig,
    "sensan.trace": _tag_trace,
    "cli.write_trace_csv": _tag_csv,
    "sensan.detect_spikes": _tag_len,
}


class Recorder:
    """In-memory span store plus the bindings it patched."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple] = []

    # -- operations --------------------------------------------------------

    def begin(self, op_id: int):
        self._op = op_id
        self._stack.clear()

    def end(self):
        self._op = None

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "logsens"):
        import importlib

        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        targets = {id(scipy.linalg.expm): "matexp.expm"}
        for mod, short in zip(modules, LAYERS):
            for attr, val in vars(mod).items():
                if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                name = f"{short}.{attr}"
                if name != OP_ENTRY:
                    targets[id(val)] = name
        wrappers = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                name = targets.get(id(val))
                if name is None:
                    continue
                if id(val) not in wrappers:
                    wrappers[id(val)] = self._wrap(val, name, TAGS.get(name))
                self._patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[id(val)])

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, fn, name, tag):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack
            if rec._op is None or (stack and rec.spans[stack[-1]].name == name):
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, rec._op)
            stack.append(len(rec.spans))
            rec.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if tag is not None:
                span.tag = tag(args, kwargs, out)
            return out

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]
