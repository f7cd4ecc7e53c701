"""Outside-in span tracer for the nongauss layers.

Wraps every public function of the layer modules and rebinds each wrapper
under every name any ``nongauss`` module holds for the original, so calls
made through ``from .fock import apply_map`` style imports are traced too.
A span records (name, start, end, parent, self time); self time is the
span's duration minus the time its child spans cover.  Spans are kept in
memory and folded into per-function totals by ``aggregate``.
"""

import functools
import inspect
import sys
from collections import namedtuple
from time import perf_counter

LAYERS = ("gaussian", "fock", "maps", "monotone", "cli")

# constructors whose returned dense matrices size the Fock working set
FOCK_CONSTRUCTORS = frozenset(
    {
        "fock.build_state",
        "fock.build_unitary",
        "fock.symplectic_to_unitary",
        "fock.gaussian_to_fock",
    }
)
MONOTONE_SEARCHES = frozenset({"monotone.delta_tilde", "monotone.d_g_bound"})

Span = namedtuple("Span", "name start end parent self_s")


class Tracer:
    """Records spans and counts at the public boundary of each layer.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self):
        import nongauss.errors
        import nongauss.fock

        self._truncation_error = nongauss.errors.TruncationError
        self._fock_array = nongauss.fock.FockArray
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counts; call between passes."""
        self.spans = []
        self.evaluations = 0
        self.excluded = 0
        self.truncation_errors = 0
        self.max_dense_dim = 0

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"nongauss.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "nongauss" and not name.startswith("nongauss."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [len(self.spans), 0.0, layer]
            self.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._truncation_error:
                if layer == "fock" and (parent is None or parent[2] != "fock"):
                    self.truncation_errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans[frame[0]] = Span(
                    name,
                    start,
                    end,
                    -1 if parent is None else parent[0],
                    duration - frame[1],
                )
            if name in MONOTONE_SEARCHES:
                self.evaluations += result.evaluations
                self.excluded += result.diagnostics["excluded"]
            elif name in FOCK_CONSTRUCTORS:
                self.max_dense_dim = max(self.max_dense_dim, self._dense_side(result))
            return result

        traced.__traced__ = fn
        return traced

    def _dense_side(self, value):
        # kets are vectors, not matrices: only densities and operators count
        if isinstance(value, self._fock_array):
            return value.data.shape[0] if value.kind == "density" else 0
        return value.shape[0]

    def aggregate(self):
        """Per-function call counts and self time, plus the search counts."""
        calls, self_s = {}, {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        return {
            "calls": calls,
            "self_s": self_s,
            "evaluations": self.evaluations,
            "excluded": self.excluded,
            "truncation_errors": self.truncation_errors,
            "max_dense_dim": self.max_dense_dim,
        }
