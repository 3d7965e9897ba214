"""In-memory spans around calls into the eigenball layers.

The benchmark measures each layer from outside.  ``Tracer.install`` replaces
public names at the module attributes their callers look up (for example
``eigenball.solver.derivative_arrays``, which ``_Driver.residual`` calls)
with wrappers that record one span per call: name, start, end, parent span,
operation id and a work count.  ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

Span names are ``<layer>.<function>``, where the layer is the module that
defines the function, whichever module the call goes through.
"""

from __future__ import annotations

import functools
import importlib
from pathlib import Path
from time import perf_counter

import numpy as np


def iterations(args, result):
    """Work count of a call that returns a report with ``iterations``."""
    return result.iterations


def _values_size(args, result):
    return args[0].size  # derivative_arrays(values, h)


# (module, attribute, span name, work count) wrapped in the traced run
TRACED = (
    ("eigenball.eigen", "monotone_iteration", "solver.monotone_iteration", iterations),
    ("eigenball.eigen", "residual", "solver.residual", None),
    ("eigenball.solver", "derivative_arrays", "grid.derivative_arrays", _values_size),
    ("eigenball.solver", "signed_power", "operators.signed_power", None),
    ("eigenball.eigen", "signed_power", "operators.signed_power", None),
    ("eigenball.solver", "gradient_floor", "operators.gradient_floor", None),
    ("eigenball.solver", "sample_profile", "operators.sample_profile", None),
    ("eigenball.eigen", "sample_profile", "operators.sample_profile", None),
    ("eigenball.cli", "lambda_up", "eigen.lambda_up", None),
    ("eigenball.cli", "lambda_down", "eigen.lambda_down", None),
    ("eigenball.cli", "check_homogeneity", "operators.check_homogeneity", None),
    ("eigenball.cli", "check_ellipticity", "operators.check_ellipticity", None),
    ("eigenball.cli", "verify", "certify.verify", None),
    ("eigenball.cli", "build_params", "certify.build_params", None),
    ("eigenball.cli", "build_supersolution", "certify.build_supersolution", None),
    ("eigenball.cli", "default_c_band", "certify.default_c_band", None),
)
# the untraced run keeps only this one, for the probe and outer-step
# counts: about 15 calls per eigen estimate, each thousands of steps long
COUNTED = TRACED[:1]

FIELDS = (
    ("sid", np.int64),
    ("parent", np.int64),
    ("name", np.int32),
    ("op", np.int32),
    ("start", np.float64),
    ("end", np.float64),
    ("work", np.int64),
)
PACK_EVERY = 1 << 16


class Tracer:
    """Records spans of the wrapped calls; one per benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = -1
        self.tracing = False
        self._stack: list[int] = []
        self._saved: list = []
        self._next_sid = 0
        self._rows: list[tuple] = []  # closed spans, packed into chunks
        self._chunks: list[dict] = []

    def _pack(self):
        if self._rows:
            cols = zip(*self._rows)
            self._chunks.append(
                {key: np.array(col, dtype=dtype) for (key, dtype), col in zip(FIELDS, cols)}
            )
            self._rows = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, work):
        name_id = self._name_id(name)
        clock = perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                count = work(args, result) if work is not None and result is not None else 0
                rows = self._rows
                rows.append((sid, parent, name_id, self.op, t0, t1, count))
                if len(rows) >= PACK_EVERY:
                    self._pack()

        return traced

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """Run fn(*args, **kwargs), inside a span when tracing."""
        if not self.tracing:
            return fn(*args, **kwargs)
        return self._wrap(fn, name, work)(*args, **kwargs)

    def install(self, traced: bool) -> None:
        """Wrap every name in TRACED, or only COUNTED when not tracing."""
        self.tracing = traced
        for module_name, attr, name, work in TRACED if traced else COUNTED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self.tracing = False

    def arrays(self) -> dict:
        """All spans recorded so far, one array per field."""
        self._pack()
        return {
            key: np.concatenate([c[key] for c in self._chunks] + [np.empty(0, dtype)])
            for key, dtype in FIELDS
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    All spans come from one thread, so children run one after another and
    their durations add up.
    """
    dur = spans["end"] - spans["start"]
    if not len(dur):
        return dur
    order = np.argsort(spans["sid"])
    pos = np.searchsorted(spans["sid"], spans["parent"], sorter=order)
    parent_row = order[np.clip(pos, 0, len(order) - 1)]
    found = (spans["parent"] >= 0) & (spans["sid"][parent_row] == spans["parent"])
    covered = np.bincount(parent_row[found], weights=dur[found], minlength=len(dur))
    return dur - covered


def select(spans: dict, ops) -> dict:
    """The spans of the given operation ids."""
    keep = np.isin(spans["op"], np.asarray(list(ops), dtype=np.int32))
    return {key: col[keep] for key, col in spans.items()}
