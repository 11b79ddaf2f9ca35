"""In-memory spans around the homsim layers, recorded from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
modules, plus ``PauliOp.to_matrix`` and ``PauliOp.is_hermitian``, with a
wrapper that records a span (name, start, end, parent, op id) and the layer
counters below; ``Tracer.restore`` puts the originals back. Nothing inside
the package is edited, and a function added to a traced module later is
traced without a change here.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("pauli", "gray", "beamsplitter", "circuit", "statevector", "experiments")

# Span name -> (class in homsim.pauli, method). The pauli module has no
# public functions; its dense realization and Hermiticity test are methods.
METHODS = {
    "pauli.to_matrix": ("PauliOp", "to_matrix"),
    "pauli.is_hermitian": ("PauliOp", "is_hermitian"),
}

# Span name -> (counter, work done by one call, from its arguments and result).
COUNTERS = {
    "pauli.to_matrix": ("pauli.to_matrix.terms", lambda args, out: len(args[0].terms)),
    "beamsplitter.interaction": (
        "beamsplitter.interaction.terms",
        lambda args, out: len(out.op),
    ),
    "circuit.synthesize": ("circuit.gates_emitted", lambda args, out: len(out.gates)),
    "statevector.apply_circuit": (
        "statevector.gates_applied",
        lambda args, out: len(args[1].gates),
    ),
}

ROOT_SPAN = "op"


def replace_everywhere(package: str, old, new) -> list[tuple]:
    """Rebind every name in the package's loaded modules that refers to ``old``.

    A ``from .x import f`` copies the binding into the importing module, so
    replacing ``f`` in its own module alone would miss those callers.
    Returns the undo list for ``restore``.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


def public_functions(package: str) -> dict:
    """``layer.name`` -> function, for each public function a traced layer defines."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                found[f"{layer}.{attr}"] = obj
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Spans (name, start, end, parent index or -1, op id or -1) plus per-op counters.

    Span fields live in flat arrays, which the garbage collector does not
    scan: a list per span would make every collection during the run, and
    so the traced ops, slower as the trace grows.
    """

    def __init__(self):
        self._names: list[str] = []
        self._fields = {
            key: array(code)
            for key, code in (("start", "d"), ("end", "d"), ("parent", "q"), ("op", "q"))
        }
        self.counts: dict[tuple, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @property
    def spans(self) -> list[tuple]:
        f = self._fields
        return list(zip(self._names, f["start"], f["end"], f["parent"], f["op"]))

    def _open(self, name: str) -> int:
        f = self._fields
        index = len(self._names)
        self._names.append(name)
        f["parent"].append(self._stack[-1] if self._stack else -1)
        f["op"].append(-1 if self.op is None else self.op)
        f["end"].append(0.0)
        self._stack.append(index)
        f["start"].append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._fields["end"][index] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts[(self.op, counter[0])] += counter[1](args, out)
            return out

        return traced

    @contextmanager
    def op_span(self, op_id):
        """Root span of one op; every span opened inside it carries ``op_id``."""
        self.op = op_id
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self.op = None

    def install(self, package: str = "homsim") -> None:
        for name, fn in public_functions(package).items():
            self._undo += replace_everywhere(package, fn, self._wrap(name, fn))
        pauli = importlib.import_module(f"{package}.pauli")
        for name, (cls_name, method) in METHODS.items():
            cls = getattr(pauli, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(name, original))
            self._undo.append((cls, method, original))

    def restore(self) -> None:
        restore(self._undo)
        self._undo = []

    def per_op(self) -> dict:
        """op id -> {"<span>.self_s", "<span>.span_s", "<span>.calls", counters}."""
        ops: dict = defaultdict(lambda: defaultdict(float))
        spans = self.spans
        for (name, start, end, _, op), own in zip(spans, self_times(spans)):
            if op < 0:
                continue
            m = ops[op]
            m[f"{name}.self_s"] += own
            m[f"{name}.span_s"] += end - start
            m[f"{name}.calls"] += 1
        for (op, key), value in self.counts.items():
            if op is not None:
                ops[op][key] += value
        return ops
