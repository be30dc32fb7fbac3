"""Timing spans around ajclab's public functions, installed from outside.

The traced run replaces each function named in :data:`TARGETS` with a
wrapper that records one :class:`Span` per call: name, start, end, parent
span and operation id, plus bytes moved and peak traced memory where they
apply.  Every alias another ajclab module imported by name (for example
``cohomlab.anti_invariant_frame``) is replaced by the same wrapper.  A
target that no longer exists is reported as absent, so later refactors do
not break the traced run, and every replaced attribute is restored when the
:func:`installed` block exits, also after an exception.

Spans are kept in memory; :func:`layer_metrics` turns them into the
per-layer numbers after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


def _values_arg_bytes(args, kwargs, result):
    """Bytes a field constructor ``(self, grid, values)`` copies as float64."""
    return 8 * int(getattr(args[2], "size", 0))


def _field_arg_bytes(args, kwargs, result):
    return int(args[0].values.nbytes)


def _field_result_bytes(args, kwargs, result):
    return int(result.values.nbytes)


_SC = ("self_s", "calls")
_SB = ("self_s", "bytes")

#: (span name, owner, attribute, bytes measure, reported metrics).  The owner
#: is a module path, or ``module:Class`` for a method.  The layer is the
#: first part of the name.
TARGETS = (
    ("pointlin.acs_defect", "ajclab.pointlin", "acs_defect", None, _SC),
    ("pointlin.deform_pair", "ajclab.pointlin", "deform_pair", None, _SC),
    ("pointlin.split_j", "ajclab.pointlin", "split_j", None, _SC),
    ("pointlin.fundamental_form", "ajclab.pointlin", "fundamental_form", None, _SC),
    ("pointlin.acs_from_sd_form", "ajclab.pointlin", "acs_from_sd_form", None, _SC),
    ("pointlin.wedge_norm_sq", "ajclab.pointlin", "wedge_norm_sq", None, _SC),
    ("hermitian.AcsField.init", "ajclab.hermitian:AcsField", "__init__", None, _SC),
    ("hermitian.HermitianTriple.validate", "ajclab.hermitian:HermitianTriple", "__post_init__",
     None, _SC),
    ("hermitian.standard_acs", "ajclab.hermitian", "standard_acs", None, _SC),
    ("hermitian.random_compatible_acs", "ajclab.hermitian", "random_compatible_acs", None, _SC),
    ("hermitian.deform_field", "ajclab.hermitian", "deform_field", None, _SC),
    ("hermitian.anti_invariant_frame", "ajclab.hermitian", "anti_invariant_frame", None, _SC),
    ("hermitian.one_bump_deform", "ajclab.hermitian", "one_bump_deform", None, _SC),
    ("hermitian.two_stage_deform", "ajclab.hermitian", "two_stage_deform", None, _SC),
    ("hermitian.triple_from_form_field", "ajclab.hermitian", "triple_from_form_field", None, _SC),
    ("hermitian.save_triple", "ajclab.hermitian", "save_triple", None, _SC),
    ("hermitian.load_triple", "ajclab.hermitian", "load_triple", None, _SC),
    ("cohomlab.gram_matrix", "ajclab.cohomlab", "gram_matrix", None, _SC),
    ("cohomlab.delta_j_estimate", "ajclab.cohomlab", "delta_j_estimate", None, ("self_s",)),
    ("cohomlab.f_omega", "ajclab.cohomlab", "f_omega", None, ("self_s",)),
    ("cohomlab.v_measure", "ajclab.cohomlab", "v_measure", None, ("calls",)),
    ("cohomlab.elliptic_kernel_dim", "ajclab.cohomlab", "elliptic_kernel_dim", None, ("self_s",)),
    # the dense eigensolve inside the oracle; reported as ``.eigensolve_s``
    ("cohomlab.elliptic_kernel_dim.eigensolve", "numpy.linalg", "eigvalsh", None, ()),
    ("torusfield.field_init", "ajclab.torusfield:_FieldBase", "__init__", _values_arg_bytes, _SB),
    ("torusfield.d_oneform", "ajclab.torusfield", "d_oneform", None, _SC),
    ("torusfield.d_twoform", "ajclab.torusfield", "d_twoform", None, _SC),
    ("torusfield.codiff_twoform", "ajclab.torusfield", "codiff_twoform", None, _SC),
    ("torusfield.bump_cutoff", "ajclab.torusfield", "bump_cutoff", None, _SC),
    ("fieldio.serialize_field", "ajclab.fieldio", "serialize_field", _field_arg_bytes, _SB),
    ("fieldio.deserialize_field", "ajclab.fieldio", "deserialize_field", _field_result_bytes, _SB),
    ("battery.run_calculus_battery", "ajclab.battery", "run_calculus_battery", None, ("self_s",)),
)

#: layers whose exceptions are counted as ``<layer>.errors``
LAYERS = ("pointlin", "hermitian", "cohomlab", "torusfield", "fieldio", "battery")

GRAM = "cohomlab.gram_matrix"
ORACLE = "cohomlab.elliptic_kernel_dim"

#: spans whose peak traced memory is reported as ``<name>.peak_mb``
MEMORY_SPANS = ("hermitian.deform_field", "hermitian.two_stage_deform", GRAM,
                "cohomlab.delta_j_estimate")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1      # index of the enclosing span, -1 at top level
    op: int = -1          # operation id
    nbytes: int = 0       # bytes moved, computed from array sizes
    mem_base: int = 0     # traced memory at entry
    mem_peak: int = 0     # peak traced memory above mem_base
    structure: int = -1   # which structure a Gram span decided
    error: bool = False


class Tracer:
    """In-memory span recorder for one thread.

    Peak memory is recorded only while :mod:`tracemalloc` is tracing.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.errors: dict[str, list[BaseException]] = {}
        self._stack: list[int] = []
        self._structures: dict[int, tuple[weakref.ref, int]] = {}
        self._structure_count = 0

    def structure_id(self, obj) -> int:
        """A number per distinct object seen; an object that died and whose
        id was reused gets a new number."""
        entry = self._structures.get(id(obj))
        if entry is None or entry[0]() is not obj:
            self._structure_count += 1
            entry = (weakref.ref(obj), self._structure_count)
            self._structures[id(obj)] = entry
        return entry[1]

    def _fold_memory(self) -> int:
        """Charge the peak since the last span boundary to every open span."""
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for idx in self._stack:
            span = self.spans[idx]
            span.mem_peak = max(span.mem_peak, peak - span.mem_base)
        tracemalloc.reset_peak()
        return current

    def enter(self, name: str) -> int:
        current = self._fold_memory()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent=parent, op=self.op, mem_base=current))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        self._fold_memory()
        self._stack.pop()
        if error is not None:
            span.error = True
            seen = self.errors.setdefault(span.name.split(".")[0], [])
            if not any(e is error for e in seen):
                seen.append(error)


def _wrap(tracer: Tracer, name: str, fn, measure):
    decides_structure = name == GRAM

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(name)
        if decides_structure and args:
            tracer.spans[idx].structure = tracer.structure_id(args[0])
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(idx, exc)
            raise
        tracer.exit(idx)
        if measure is not None:
            tracer.spans[idx].nbytes = measure(args, kwargs, result)
        return result

    return traced


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def _ajclab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ajclab" or name.startswith("ajclab."))]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS, alias_modules=None):
    """Replace every target and its by-name aliases with a tracing wrapper.

    Yields the names of the targets that do not exist.  ``alias_modules``
    are searched for aliases; by default every loaded ajclab module.
    """
    if alias_modules is None:
        alias_modules = _ajclab_modules()
    absent = []
    replaced = []  # (holder, attribute, original)
    try:
        for name, owner, attr, measure, _ in targets:
            holder = _resolve(owner)
            # a method must be defined on the class itself, not inherited
            if holder is None or attr not in vars(holder):
                absent.append(name)
                continue
            original = vars(holder)[attr]
            wrapper = _wrap(tracer, name, original, measure)
            setattr(holder, attr, wrapper)
            replaced.append((holder, attr, original))
            for module in alias_modules:
                if module is holder:
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)
                        replaced.append((module, alias, original))
        yield absent
    finally:
        for holder, attr, original in reversed(replaced):
            setattr(holder, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in children.get(idx, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def op_self_totals(spans: list[Span]) -> dict[int, float]:
    """Sum of the self times of all spans of each operation."""
    totals: dict[int, float] = {}
    for span, s in zip(spans, self_times(spans)):
        totals[span.op] = totals.get(span.op, 0.0) + s
    return totals


def inclusive_per_call(spans: list[Span]) -> dict[str, float]:
    """Mean duration of one call of each span name, children included."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        count[span.name] = count.get(span.name, 0) + 1
    return {name: total[name] / count[name] for name in total}


def _under(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}`` from ``ops`` traced
    operations.  ``.calls`` and ``.errors`` are totals over them; every other
    count and time is per operation."""
    spans = tracer.spans
    selfs = self_times(spans)
    per_op = 1.0 / max(ops, 1)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    peak: dict[str, int] = {}
    for span, s in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + s
        nbytes[span.name] = nbytes.get(span.name, 0) + span.nbytes
        peak[span.name] = max(peak.get(span.name, 0), span.mem_peak)

    out: dict[str, tuple[float, str]] = {}
    for name, _, _, _, kinds in TARGETS:
        if "self_s" in kinds:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) * per_op, "s")
        if "calls" in kinds:
            out[f"{name}.calls"] = (float(calls.get(name, 0)), "count")
        if "bytes" in kinds:
            out[f"{name}.bytes"] = (nbytes.get(name, 0) * per_op, "bytes")

    validate = calls.get("hermitian.HermitianTriple.validate", 0)
    out["hermitian.validate_per_op"] = (validate * per_op, "count")
    gram_calls = calls.get(GRAM, 0)
    distinct = len({(s.op, s.structure) for s in spans if s.name == GRAM})
    out[f"{GRAM}.calls_per_op"] = (gram_calls * per_op, "count")
    out[f"{GRAM}.unique_ratio"] = (distinct / gram_calls if gram_calls else 0.0, "ratio")

    eigensolve = sum(s for idx, (span, s) in enumerate(zip(spans, selfs))
                     if span.name == f"{ORACLE}.eigensolve" and _under(spans, idx, ORACLE))
    applies = sum(1 for idx, span in enumerate(spans)
                  if span.name == "torusfield.codiff_twoform" and _under(spans, idx, ORACLE))
    out[f"{ORACLE}.eigensolve_s"] = (eigensolve * per_op, "s")
    out[f"{ORACLE}.operator_applies"] = (applies * per_op, "count")

    for name in MEMORY_SPANS:
        out[f"{name}.peak_mb"] = (peak.get(name, 0) / 2**20, "MB")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(len(tracer.errors.get(layer, ()))), "count")
    return out
