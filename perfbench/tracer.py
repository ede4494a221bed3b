"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every function defined in one of the package's
layer modules, in every module of the package that binds it (modules
import each other's functions by name, so patching only the defining
module would miss most calls), plus the methods of classes defined
there. Each call records a span (name, start, end, parent) in flat
arrays kept in memory. numpy's eigen-solvers get no span, so LAPACK
time stays in the self time of the layer that called it.

`EigenCounter` counts the matrices those solvers decompose. It is
installed on its own, in a pass that is not timed, so the cost of
counting never lands in a span.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "states", "channels", "measurement", "bounds", "cli")
EIGEN_SOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
SPECTRUM_DECIMALS = 12


def spectrum_keys(a) -> tuple:
    """(matrices, identities of the distinct ones) for one matrix or a
    stack. A matrix is identified by its entries rounded to 1e-12, with
    negative zeros folded into positive ones."""
    m = np.asarray(a, dtype=complex)
    rows = (np.round(m, SPECTRUM_DECIMALS) + 0.0).reshape(-1, m.shape[-2] * m.shape[-1])
    whole = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return len(rows), {key.tobytes() for key in np.unique(whole)}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    the time they cover is the sum of their durations. `parent` is the
    index of the enclosing span, or -1 for a root.
    """
    start = np.asarray(start, dtype=np.int64)
    duration = np.asarray(end, dtype=np.int64) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class EigenCounter(Patcher):
    """Counts the matrices numpy's eigen-solvers decompose, and the
    distinct ones among them, while installed."""

    def __init__(self):
        super().__init__()
        self.matrices = 0
        self.distinct = 0
        self._seen = set()

    def start_operation(self):
        """Begin a new operation: a matrix counts as distinct once per operation."""
        self._seen = set()

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            matrices, keys = spectrum_keys(a)
            self.matrices += matrices
            self.distinct += len(keys - self._seen)
            self._seen |= keys
            return fn(a, *args, **kwargs)

        return counted

    def install(self):
        for solver in EIGEN_SOLVERS:
            self._patch(np.linalg, solver, self._count(getattr(np.linalg, solver)))


class Tracer(Patcher):
    """Records spans while installed."""

    def __init__(self):
        super().__init__()
        self.names = []
        self._name_ids = {}
        self.reset()

    def reset(self):
        """Drop recorded spans; installed wrappers stay."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []

    def _wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1

        return traced

    def install(self, package: str):
        """Wrap the layer functions of `package` wherever they are bound."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, fn in list(vars(obj).items()):
                        # dataclass-generated methods have no source file
                        if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                            self._patch(obj, attr, self._wrap(fn, f"{layer}.{name}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, name, wrapped[obj])

    def layer_totals(self) -> dict:
        """{layer: (calls, self_ns)} over the recorded spans, plus
        {function name: (calls, self_ns)} under the key "functions"."""
        ids = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        own = self_times(self.start, self.end, self.parent)
        calls = np.bincount(ids, minlength=len(self.names))
        self_ns = np.bincount(ids, weights=own, minlength=len(self.names))
        totals = {layer: [0, 0.0] for layer in LAYERS}
        functions = {}
        for k, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            totals[layer][0] += int(calls[k])
            totals[layer][1] += float(self_ns[k])
            functions[name] = (int(calls[k]), float(self_ns[k]))
        totals["functions"] = functions
        return totals

    def spans(self) -> dict:
        """The recorded spans as columns, ready for JSON."""
        return {
            "names": list(self.names),
            "name": self.name_id.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
