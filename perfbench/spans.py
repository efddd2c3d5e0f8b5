"""Span recorder for the traced run, kept in the benchmark's own files.

`Recorder.install` replaces the public functions and methods listed in
`TARGETS` by timing wrappers.  A module that bound a function with
`from .x import y` holds its own reference, so every module attribute
that is the original function is replaced, not only the defining one;
otherwise inner calls would go untimed.  Methods are replaced on their
class.  `sigma.point_key` is only counted, because it is called
millions of times, and the `lru_cache` functions are read through
`cache_info()` instead of being wrapped.

Spans (name, start, end, parent, tag) are kept in flat arrays while the
traced operations run; self time and the per-name aggregates are
computed once at the end, and `write` dumps the spans to a file.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

LAYERS = ("cli", "documents", "iset", "mset", "sigma", "injections", "opalg")

# modules whose globals may hold a reference to a traced function
BINDING_MODULES = LAYERS + ("generators", "selftest")


def _tag_level_arg(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("n", -1)


def _tag_next_level(args, kwargs, result):
    return args[0].N + 1


def _tag_levels_added(args, kwargs, result):
    return result.N - args[0].N


def _tag_result_level(args, kwargs, result):
    return result.N


def _tag_points(args, kwargs, result):
    return len(args[0].points)


def _tag_len_arg(args, kwargs, result):
    return len(args[0])


def _tag_len_result(args, kwargs, result):
    return len(result)


_MODES = {"latching": 0, "direct": 1, "both": 2}


def _tag_mode(args, kwargs, result):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "latching")
    return _MODES.get(mode, -1)


# (module, attribute path, tag function); the span name is
# "<module>.<attribute path>" with "__init__" written as "init"
TARGETS = [
    ("cli", "main", None),
    ("documents", "parse_document", _tag_len_arg),
    ("documents", "serialize_document", _tag_len_result),
    ("iset", "TruncatedISet.__init__", None),
    ("iset", "OmegaColimit.__init__", None),
    ("iset", "ISetMorphism.__init__", None),
    ("iset", "canonicalize", None),
    ("iset", "flat_replacement", None),
    ("iset", "n_iso_check", None),
    ("iset", "is_flat", _tag_mode),
    ("iset", "latching", _tag_level_arg),
    ("iset", "lan_extend", _tag_next_level),
    ("iset", "faithful_extension", _tag_levels_added),
    ("iset", "day_convolution", _tag_result_level),
    ("iset", "support_filtration", None),
    ("mset", "CanonicalTameMSet.elements_up_to", None),
    ("mset", "decompose_table", None),
    ("mset", "box", None),
    ("mset", "mset_iso_equal", None),
    ("sigma", "SigmaSet.__init__", _tag_points),
    ("sigma", "SigmaSet.iso_type", None),
    ("sigma", "SigmaSet.orbits", None),
    ("sigma", "induce", None),
    ("injections", "QuasiAffineInjection.__init__", None),
    ("injections", "QuasiAffineInjection.compose", None),
    ("injections", "OperadElement.__init__", None),
    ("injections", "OperadElement.precompose", None),
    ("opalg", "CommMonoidPresentation.__init__", None),
    ("opalg", "CommMonoidPresentation.add", None),
    ("opalg", "monoid_to_algebra", None),
    ("opalg", "algebra_to_monoid", None),
    ("opalg", "infinite_symmetric_product", None),
    ("opalg", "wedge_iso", None),
    ("opalg", "certify_agreement", None),
    ("opalg", "verify_certificate", None),
]

COUNTED = [("sigma", "point_key")]
CACHED = [("sigma", "perm_word"), ("sigma", "subgroup_conjugacy_label")]


def span_name(module, path):
    return f"{module}.{path.replace('__init__', 'init')}"


class Recorder:
    """Collects spans while installed; one recorder per traced run."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.tag = array("q")
        self.counts = {}
        self.cache_before = {}
        self.cache_after = {}
        self._stack = [-1]
        self._restore = []

    def _module(self, name):
        return importlib.import_module(f"tamebox.{name}")

    def _span_wrapper(self, name, fn, tagfn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, tag, stack = self.parent, self.tag, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            tag.append(-1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tagfn is not None:
                tag[idx] = tagfn(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _replace(self, module, path, make):
        mod = self._module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, make(orig))
            self._restore.append((cls, attr, orig))
            return
        orig = getattr(mod, path)
        wrapped = make(orig)
        for other in BINDING_MODULES:
            omod = self._module(other)
            for key, value in list(vars(omod).items()):
                if value is orig:
                    setattr(omod, key, wrapped)
                    self._restore.append((omod, key, orig))

    def install(self):
        for module, path, tagfn in TARGETS:
            name = span_name(module, path)
            self._replace(module, path,
                          lambda fn, n=name, t=tagfn: self._span_wrapper(n, fn, t))
        for module, path in COUNTED:
            name = span_name(module, path)
            self._replace(module, path,
                          lambda fn, n=name: self._count_wrapper(n, fn))
        for module, path in CACHED:
            info = getattr(self._module(module), path).cache_info()
            self.cache_before[span_name(module, path)] = (info.hits, info.misses)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []
        for module, path in CACHED:
            info = getattr(self._module(module), path).cache_info()
            self.cache_after[span_name(module, path)] = (info.hits, info.misses)

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its children.
        Spans of one thread nest, so children never overlap."""
        n = len(self.start)
        own = array("d", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self):
        """Aggregates by span name: calls, inclusive ms, self ms, and per
        tag value inclusive ms and counts."""
        own = self.self_times()
        out = {}
        for i in range(len(self.start)):
            name = self.names[self.span_name[i]]
            s = out.get(name)
            if s is None:
                s = out[name] = {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                 "tags": {}}
            dur = (self.end[i] - self.start[i]) * 1000.0
            s["calls"] += 1
            s["ms"] += dur
            s["self_ms"] += own[i] * 1000.0
            t = self.tag[i]
            if t != -1:
                ts = s["tags"].setdefault(t, [0, 0.0])
                ts[0] += 1
                ts[1] += dur
        return out

    def cache_deltas(self):
        """Per cached function: (hits, lookups) during the traced run."""
        out = {}
        for name, (h0, m0) in self.cache_before.items():
            h1, m1 = self.cache_after[name]
            out[name] = (h1 - h0, (h1 - h0) + (m1 - m0))
        return out

    def write(self, path):
        """Write every span, one per line: id, name, parent, start and
        end in microseconds from the first span's start, and tag."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart_us\tend_us\ttag\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.tag[i]}\n"
                )
