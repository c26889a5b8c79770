"""Per-layer spans and counts for the traced run, recorded from outside src/.

Spans: every public function named in LAYERS is rebound, in every module
of the locaut package (and in the benchmark's own modules) whose namespace
holds it, to a wrapper that records name, start, end, parent span, verdict
id and phase.  Methods are rebound on their class.  A name that can no
longer be found, or that has no binding left to patch, raises LayerMissing,
so a refactor cannot drop a layer from the trace unnoticed.

Counts of Q(i) scalar operations come from a separate counting pass
(ScalarCounter), because wrapping every scalar operation would inflate the
span self times.
"""

from __future__ import annotations

import gzip
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# metric prefix -> (module, attribute path)
LAYERS = {
    "sln.matrix": ("locaut.sln", "SlnModel.matrix"),
    "sln.coords": ("locaut.sln", "SlnModel.coords"),
    "linalg.intertwiner_space": ("locaut.linalg", "intertwiner_space"),
    "linalg.kernel": ("locaut.linalg", "kernel"),
    "linalg.inverse": ("locaut.linalg", "inverse"),
    "linalg.solve_linear": ("locaut.linalg", "solve_linear"),
    "linalg.matmul": ("locaut.linalg", "Matrix.__matmul__"),
    "linalg.invertible_element": ("locaut.linalg", "invertible_element"),
    "linalg.det": ("locaut.linalg", "det"),
    "linalg.similarity_witness": ("locaut.linalg", "similarity_witness"),
    "linalg.invariant_factors": ("locaut.linalg", "invariant_factors"),
    "linalg.charpoly": ("locaut.linalg", "charpoly"),
    "algebra.bracket": ("locaut.algebra", "StructureAlgebra.bracket"),
    "classify.classify_sln": ("locaut.classify", "classify_sln"),
    "classify.fit_shape_family": ("locaut.classify", "fit_shape_family"),
    "classify.pointwise_witness": ("locaut.classify", "pointwise_witness"),
    "leibniz.decide_local_aut": ("locaut.leibniz", "decide_local_aut"),
    "leibniz.is_automorphism": ("locaut.leibniz", "is_automorphism"),
    "leibniz.weight_decomposition": ("locaut.leibniz", "weight_decomposition"),
    "leibniz.extend_automorphism": ("locaut.leibniz", "extend_automorphism"),
    "leibniz.module_isomorphism": ("locaut.leibniz", "module_isomorphism"),
    "leibniz.build_semidirect": ("locaut.leibniz", "build_semidirect"),
    "filiform.map_is_automorphism": ("locaut.filiform", "map_is_automorphism"),
    "filiform.filiform_local_witness": ("locaut.filiform", "filiform_local_witness"),
    "filiform.counterexample_demo": ("locaut.filiform", "counterexample_demo"),
    "filiform.model_filiform": ("locaut.filiform", "model_filiform"),
    "recheck.recheck_sln_verdict": ("locaut.recheck", "recheck_sln_verdict"),
    "recheck.recheck_witness_at": ("locaut.recheck", "recheck_witness_at"),
    "recheck.recheck_leibniz_verdict": ("locaut.recheck", "recheck_leibniz_verdict"),
    "recheck.cofactor_det": ("locaut.recheck", "cofactor_det"),
    "recheck.adjugate_inverse": ("locaut.recheck", "adjugate_inverse"),
    "recheck.charpoly_via_cofactor": ("locaut.recheck", "charpoly_via_cofactor"),
}

# Layers that only run while the workload is set up; they report total_ms.
SETUP_LAYERS = ("leibniz.build_semidirect", "filiform.model_filiform")

DECIDED_BY = (
    "not_injective",
    "square_zero_broken",
    "lambda_not_unit",
    "no_shape_fits",
    "family_p1_identity",
    "family_p1_transpose",
    "family_m1_identity",
    "family_m1_transpose",
)

# exact.<name> -> (class, method names); aliases such as __radd__ = __add__
# are the same function object and get the same wrapper.
SCALAR_OPS = {
    "mul": ("GaussianRational", ("__mul__",)),
    "add": ("GaussianRational", ("__add__", "__sub__", "__rsub__")),
    "inverse": ("GaussianRational", ("inverse",)),
    "poly_divmod": ("Polynomial", ("__divmod__",)),
}


class LayerMissing(Exception):
    """A layer named in LAYERS no longer exists or has no binding to patch."""


def _per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    stats = {
        "sln.matrix": ("calls", "self_ms", "repeat_share"),
        "linalg.invertible_element": ("calls", "self_ms", "hit_rate"),
        "classify.fit_shape_family": ("calls", "self_ms", "hit_rate"),
        "leibniz.weight_decomposition": ("calls", "self_ms", "repeat_share"),
        "recheck.recheck_sln_verdict": ("self_ms",),
        "recheck.recheck_witness_at": ("self_ms",),
        "recheck.recheck_leibniz_verdict": ("self_ms",),
        "recheck.adjugate_inverse": ("self_ms",),
    }
    units = {
        "calls": ("count", "lower"),
        "self_ms": ("ms", "lower"),
        "repeat_share": ("fraction", "lower"),
        "hit_rate": ("fraction", "higher"),
        "total_ms": ("ms", "lower"),
    }
    for layer in LAYERS:
        for stat in ("total_ms",) if layer in SETUP_LAYERS else stats.get(layer, ("calls", "self_ms")):
            spec.append((f"{layer}.{stat}", *units[stat]))
        if layer == "linalg.det":
            spec.append(("linalg.det.per_invertible_element", "count", "lower"))
        if layer == "classify.pointwise_witness":
            spec.extend((f"classify.decided_by.{k}", "count", "lower") for k in DECIDED_BY)
    spec.extend((f"exact.{op}.calls", "count", "lower") for op in SCALAR_OPS)
    spec.append(("exact.max_bits", "bits", "lower"))
    spec.append(("trace.overhead", "ratio", "lower"))
    return spec


PER_LAYER = _per_layer_spec()


def _resolve(module_name: str, path: str):
    mod = sys.modules.get(module_name)
    if mod is None:
        raise LayerMissing(f"module {module_name} is not loaded")
    owner, _, attr = path.rpartition(".")
    holder = getattr(mod, owner, None) if owner else mod
    if holder is None or attr not in vars(holder):
        raise LayerMissing(f"{module_name}.{path} no longer exists")
    return holder, attr, vars(holder)[attr]


def _bindings(holder, original):
    """Every (namespace object, attribute) that holds the original object:
    the class for a method, else every locaut module and the benchmark's
    workloads module."""
    if isinstance(holder, type):
        return [(holder, k) for k, v in vars(holder).items() if v is original]
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "locaut" or name.startswith("locaut.") or name == "workloads"):
            continue
        found.extend((mod, k) for k, v in vars(mod).items() if v is original)
    return found


class Patches:
    """Rebinds names and restores every original on undo()."""

    def __init__(self):
        self._undo = []

    @contextmanager
    def applied(self, install):
        try:
            install()
            yield
        finally:
            self.undo()

    def rebind(self, name, holder, original, wrapper):
        where = _bindings(holder, original)
        if not where:
            raise LayerMissing(f"{name} has no binding left to patch")
        for obj, attr in where:
            setattr(obj, attr, wrapper)
            self._undo.append((obj, attr, original))

    def undo(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)


class Tracer:
    """Span recorder; spans are only taken while installed()."""

    def __init__(self):
        self.names = list(LAYERS)
        self.verdict = -1
        self.phase = "setup"
        self.stack = []
        self.patches = Patches()
        self.reset()

    def installed(self):
        return self.patches.applied(self._install)

    def _install(self):
        for idx, (name, (module, path)) in enumerate(LAYERS.items()):
            holder, _, original = _resolve(module, path)
            self.patches.rebind(name, holder, original, self._wrap(idx, original, _HOOKS.get(name)))

    def reset(self):
        """Forget the spans and counts taken so far."""
        self.spans = []
        self.hits = {}
        self.seen = set()
        self.repeats = {}
        self.decided = {k: 0 for k in DECIDED_BY}

    def _wrap(self, idx, original, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            spans = tracer.spans
            parent = stack[-1][0] if stack else -1
            slot = len(spans)
            spans.append(None)
            frame = [slot, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[slot] = (idx, t0, t1, dur - frame[1], parent, tracer.verdict, tracer.phase)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- aggregation -----------------------------------------------------

    def metrics(self):
        """Per-layer values over the decide and recheck phases (set-up layers
        report their total time in the set-up phase instead)."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        setup_s = [0.0] * n
        spans = self.spans
        inv_idx = self.names.index("linalg.invertible_element")
        det_idx = self.names.index("linalg.det")
        det_in_search = 0
        for idx, t0, t1, own, parent, _, phase in spans:
            if phase == "setup":
                setup_s[idx] += t1 - t0
                continue
            calls[idx] += 1
            self_s[idx] += own
            if idx == det_idx:
                p = parent
                while p >= 0 and spans[p][0] != inv_idx:
                    p = spans[p][4]
                det_in_search += p >= 0
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_ms"] = self_s[i] * 1e3
            out[f"{name}.total_ms"] = setup_s[i] * 1e3
        for name in ("linalg.invertible_element", "classify.fit_shape_family"):
            out[f"{name}.hit_rate"] = _ratio(self.hits.get(name, 0), calls[self.names.index(name)])
        for name in ("sln.matrix", "leibniz.weight_decomposition"):
            out[f"{name}.repeat_share"] = _ratio(self.repeats.get(name, 0), calls[self.names.index(name)])
        out["linalg.det.per_invertible_element"] = _ratio(det_in_search, calls[inv_idx])
        for k, v in self.decided.items():
            out[f"classify.decided_by.{k}"] = v
        return out

    def dump(self, path, meta):
        """Write the spans (kept in memory during the run) as gzipped JSON."""
        payload = {
            "meta": meta,
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "self_s", "parent", "verdict", "phase"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def _count_hit(name, ok):
    def hook(tracer, args, result):
        if ok(result):
            tracer.hits[name] = tracer.hits.get(name, 0) + 1

    return hook


def _count_repeat(name, key):
    def hook(tracer, args, result):
        k = (name, tracer.verdict, tracer.phase, key(args))
        if k in tracer.seen:
            tracer.repeats[name] = tracer.repeats.get(name, 0) + 1
        else:
            tracer.seen.add(k)

    return hook


def _decided_by(tracer, args, verdict):
    if verdict.obstruction is not None:
        key = verdict.obstruction.kind
    else:
        key = f"family_{'p' if verdict.shape.epsilon == 1 else 'm'}1_{verdict.shape.sigma}"
    tracer.decided[key] = tracer.decided.get(key, 0) + 1


_HOOKS = {
    "linalg.invertible_element": _count_hit("linalg.invertible_element", lambda r: r is not None),
    "classify.fit_shape_family": _count_hit("classify.fit_shape_family", lambda r: r[1] is not None),
    "sln.matrix": _count_repeat("sln.matrix", lambda args: tuple(args[1])),
    "leibniz.weight_decomposition": _count_repeat("leibniz.weight_decomposition", lambda args: id(args[0])),
    "classify.classify_sln": _decided_by,
}


class ScalarCounter:
    """Counts Q(i) scalar operations and the widest numerator or denominator
    produced, by rebinding the scalar methods on their classes."""

    def __init__(self):
        self.counts = {op: 0 for op in SCALAR_OPS}
        self.max_bits = 0
        self.patches = Patches()

    def installed(self):
        return self.patches.applied(self._install)

    def _install(self):
        for op, (cls_name, methods) in SCALAR_OPS.items():
            for method in methods:
                holder, _, original = _resolve("locaut.exact", f"{cls_name}.{method}")
                self.patches.rebind(f"exact.{op}", holder, original, self._wrap(op, original))

    def _wrap(self, op, original):
        counter = self

        def wrapper(*args):
            result = original(*args)
            counter.counts[op] += 1
            num = getattr(result, "a", None)
            if num is not None:
                bits = max(num.bit_length(), result.b.bit_length(), result.d.bit_length())
                if bits > counter.max_bits:
                    counter.max_bits = bits
            return result

        return wrapper

    def metrics(self):
        out = {f"exact.{op}.calls": c for op, c in self.counts.items()}
        out["exact.max_bits"] = self.max_bits
        return out
