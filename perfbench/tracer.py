"""Per-layer tracing of `sl2ext verify` from outside the package.

`install()` wraps the public boundaries of every layer module under
`src/sl2ext/` (module functions, methods, the arithmetic operators of the
value classes, and the raw field/tower ops other layers call directly).
Each wrapped call is counted.  When a call crosses into a different layer
it opens a frame on a stack, so that each layer's self time is its frames'
duration minus the time of the frames it called into.  Calls inside the
same layer are only counted, which keeps the cost on hot operators low.

A few coarse boundaries (checks, solvers, closures, certificates, builds)
are also recorded as spans (name, start, end, parent) held in memory and
written out at the end with `Tracer.dump`.  Their inclusive time is summed
over outermost occurrences only, so recursion is not counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("polyutil", "coeff", "tower", "grp", "charmod", "indmod", "linalg",
          "towerext", "cohom", "verify", "cli")

# Operators of the value classes that do arithmetic work.  __hash__,
# __bool__ and __repr__ are left unwrapped: they are cheap and the wrapper
# would dominate them.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__"}
# Raw ops that other layers call directly on a field or tower.
RAW_OPS = {"_add", "_sub", "_mul", "_inv", "_neg"}
# Classes whose construction is real work (tables, searches, matrices).
COSTLY_INIT = {"Tower", "RationalField", "CyclotomicField", "PrimeField",
            "TorusCharacter", "InducedModule", "DirectSystem", "GroupTable",
            "FiniteRep", "Context"}

# Boundaries recorded as spans, by qualified name -> span name.
SPANS = {
    "Tower.__init__": "tower.build",
    "InducedModule.span_closure": "indmod.span_closure",
    "nullspace": "linalg.nullspace",
    "DirectSystem.check_injective": "towerext.connect",
    "DirectSystem.check_equivariance": "towerext.connect",
    "nonsplit_certificate": "towerext.certificate",
    "ext1_bfs": "cohom.ext1_bfs",
    "ext1_unreduced": "cohom.ext1_unreduced",
    "hom_space": "cohom.hom_space",
    "FiniteRep.__init__": "cohom.rep_build",
    "FiniteRep.trivial": "cohom.rep_build",
    "FiniteRep.from_induced": "cohom.rep_build",
    "FiniteRep.steinberg": "cohom.rep_build",
    "GroupTable.__init__": "cohom.group_table",
    "run_lemma": None,  # named per check, see _span_name
    "cmd_verify": "cli.verify",
}

MODES = {"CyclotomicField": "cyclo", "PrimeField": "fp", "RationalField": "rat"}
TOWER_OPS = {
    # __rsub__ and __truediv__ are left out: they call __sub__ and inverse
    "add": ("__add__", "__radd__", "__sub__", "__neg__"),
    "mul": ("__mul__", "__rmul__"),
    "inv": ("inverse",),
}


def _span_name(qualname, args):
    if qualname == "run_lemma":
        return f"verify.check.{args[1].lemma_id}"
    return SPANS[qualname]


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)       # boundary qualname -> calls
        self.extra = defaultdict(int)        # derived counters (rows, elements, ...)
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.inclusive_s = defaultdict(float)  # span name -> outermost seconds
        self.spans = []                      # [name, start, end, parent index]
        self._frames = [["bench", time.perf_counter(), 0.0]]  # [layer, start, child s]
        self._open = []                      # indices into self.spans
        self._depth = defaultdict(int)
        self.boundaries = set()

    # -- frames ----------------------------------------------------------

    def _enter(self, layer):
        frame = [layer, time.perf_counter(), 0.0]
        self._frames.append(frame)
        return frame

    def _leave(self, frame):
        self._frames.pop()
        dur = time.perf_counter() - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        self._frames[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name, layer="bench"):
        """A span opened by the benchmark itself."""
        frame = self._enter(layer)
        idx = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(idx)
            self._leave(frame)

    def _open_span(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        self._depth[name] += 1
        return len(self.spans) - 1

    def _close_span(self, idx):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        self._open.pop()
        self._depth[rec[0]] -= 1
        if self._depth[rec[0]] == 0:
            self.inclusive_s[rec[0]] += rec[2] - rec[1]

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        counts, frames = self.counts, self._frames
        enter, leave = self._enter, self._leave
        hook = _HOOKS.get(qualname)
        extra = self.extra

        if qualname in SPANS:
            def spanned(*args, **kwargs):
                counts[qualname] += 1
                frame = enter(layer)
                idx = self._open_span(_span_name(qualname, args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close_span(idx)
                    leave(frame)
                if hook:
                    hook(extra, args, result)
                return result
            return spanned

        if hook:
            def hooked(*args, **kwargs):
                counts[qualname] += 1
                frame = enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                hook(extra, args, result)
                return result
            return hooked

        def counted(*args, **kwargs):
            counts[qualname] += 1
            if frames[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return counted

    def install(self, package="sl2ext"):
        """Wrap every layer boundary of the imported package."""
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        everywhere = list(modules.values()) + [importlib.import_module(package)]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(obj, layer)
                elif (inspect.isfunction(obj) and not name.startswith("_")
                      and not inspect.isgeneratorfunction(obj)):
                    if name in self.boundaries:
                        raise RuntimeError(f"two layers define {name}()")
                    wrapped = self._wrap(obj, layer, name)
                    self.boundaries.add(name)
                    # rebind every `from .x import name` copy as well
                    for other in everywhere:
                        if vars(other).get(name) is obj:
                            setattr(other, name, wrapped)
        missing = (set(SPANS) | set(_HOOKS)) - self.boundaries
        if missing:
            raise RuntimeError(f"boundaries not found in {package}: {sorted(missing)}")

    def _install_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            wanted = (name in OPERATORS or name in RAW_OPS
                      or (name == "__init__" and cls.__name__ in COSTLY_INIT)
                      or not name.startswith("_"))
            if not wanted:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                setattr(cls, name, type(raw)(self._wrap(fn, layer, qualname)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, name, self._wrap(raw, layer, qualname))
            else:
                continue
            self.boundaries.add(qualname)

    # -- results ---------------------------------------------------------

    def calls(self, qualname) -> int:
        """Calls of one boundary; an unknown name is an error, not a zero."""
        if qualname not in self.boundaries:
            raise KeyError(f"{qualname} is not a traced boundary")
        return self.counts[qualname]

    def metrics(self, check_ids) -> dict:
        """The named per-layer metrics, as plain numbers."""
        c, x, incl = self.calls, self.extra, self.inclusive_s
        out = {}
        for cls, mode in MODES.items():
            out[f"coeff.{mode}.mul.calls"] = c(f"{cls}._mul")
            out[f"coeff.{mode}.add.calls"] = c(f"{cls}._add") + c(f"{cls}._sub")
            out[f"coeff.{mode}.inv.calls"] = c(f"{cls}._inv")
        for op, names in TOWER_OPS.items():
            out[f"tower.{op}.calls"] = sum(c(f"TowerElem.{n}") for n in names)
        out["tower.build_s"] = incl["tower.build"]
        out["grp.mul.calls"] = c("GroupElement.__mul__")
        out["grp.enumerated.elements"] = x["grp.enumerated.elements"]
        out["charmod.eval.calls"] = c("TorusCharacter.eval")
        out["indmod.act.calls"] = c("InducedModule.act")
        out["indmod.span_closure.calls"] = c("InducedModule.span_closure")
        out["indmod.span_closure.s"] = incl["indmod.span_closure"]
        inserts = c("SparseSpan.insert")
        out["linalg.insert.calls"] = inserts
        out["linalg.insert.useful_ratio"] = x["linalg.insert.useful"] / inserts if inserts else 0.0
        out["linalg.reduce.calls"] = c("SparseSpan.reduce")
        out["linalg.nullspace.rows"] = x["linalg.nullspace.rows"]
        out["linalg.nullspace.s"] = incl["linalg.nullspace"]
        out["towerext.connect.s"] = incl["towerext.connect"]
        out["towerext.certificate.s"] = incl["towerext.certificate"]
        for name in ("ext1_bfs", "ext1_unreduced", "rep_build", "hom_space"):
            out[f"cohom.{name}.s"] = incl[f"cohom.{name}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        for lemma_id in check_ids:
            out[f"verify.check.{lemma_id}.s"] = incl[f"verify.check.{lemma_id}"]
        out["verify.instances"] = c("run_lemma")
        return out

    def dump(self, path, check_ids):
        doc = {
            "metrics": self.metrics(check_ids),
            "counts": dict(sorted(self.counts.items())),
            "extra": dict(sorted(self.extra.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "inclusive_s": dict(sorted(self.inclusive_s.items())),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return doc


def _count_useful(extra, args, result):
    if result:
        extra["linalg.insert.useful"] += 1


def _count_rows(extra, args, result):
    extra["linalg.nullspace.rows"] += len(args[0])


def _count_elements(extra, args, result):
    extra["grp.enumerated.elements"] += len(result)


_HOOKS = {
    "SparseSpan.insert": _count_useful,
    "nullspace": _count_rows,
    "enumerate_subgroup": _count_elements,
}

