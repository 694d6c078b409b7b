"""Spans recorded from outside the package.

While installed, a Tracer replaces every public function of the package's
modules, in every namespace that refers to it, with a wrapper that records
a span (name, start, end, parent, run id). The package's source is not
changed; calls between modules go through module globals and are therefore
traced too, calls through other references (such as the CLI's command
table) are not. Spans are kept in memory and written out after the run.
"""

import contextlib
import inspect
import json
import time
import weakref
from collections import defaultdict

import abstrakt
from abstrakt import (abstraction, cli, graphs, identify, projection, scm,
                      valuation)

MODULES = (scm, valuation, abstraction, projection, graphs, identify, cli)


def public_functions(module):
    return {name: f for name, f in vars(module).items()
            if inspect.isfunction(f) and not name.startswith("_")
            and f.__module__ == module.__name__}


def query_states(model, query):
    """States prob_query enumerates for ``query``: the exogenous support
    times the positive cell count of each distinct stochastic share key."""
    states = model.exogenous_support_size()
    seen = set()
    for term in tuple(query.terms) + tuple(query.conditioning or ()):
        for atom in term.soft:
            key = getattr(atom, "share_key", None)
            if key is None or key in seen:
                continue
            seen.add(key)
            states *= sum(1 for w in atom.cell_widths() if w > 0)
    return states


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, run id)
        self.counts = defaultdict(int)
        self.run_id = -1
        self._stack = []
        self._high = weakref.WeakValueDictionary()
        self._patched = []

    # -- span recording ----------------------------------------------------

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _exit(self, index, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.run_id)

    @contextlib.contextmanager
    def span(self, name, run_id):
        """A span the benchmark records itself; it sets the run id that
        the spans inside it carry."""
        self.run_id = run_id
        index, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, parent, name, start)

    def mark_high(self, high_scm):
        """Record that ``high_scm`` is the model of a projected abstraction,
        so prob_query calls on it are reported on the high side."""
        self._high[id(high_scm)] = high_scm

    def _is_high(self, model):
        return self._high.get(id(model)) is model

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if name == "valuation.prob_query":
            def tag(args, kwargs):
                model = args[0] if args else kwargs["scm"]
                query = args[1] if len(args) > 1 else kwargs["query"]
                tracer.counts["valuation.prob_query.states"] += \
                    query_states(model, query)
                return name + ("#high" if tracer._is_high(model) else "#low")
        elif name == "cli.run":
            def tag(args, kwargs):
                argv = args[0] if args else kwargs["argv"]
                return name + "#" + (argv[0] if argv else "")
        else:
            tag = None

        def wrapper(*args, **kwargs):
            span_name = tag(args, kwargs) if tag else name
            index, parent = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index, parent, span_name, start)
            if isinstance(result, projection.HighLevelScm):
                tracer.mark_high(result.scm)
            elif isinstance(result, graphs.CtfbnReport):
                tracer.counts["graphs.ctfbn_check.checks"] += result.checked
            elif isinstance(result, projection.ProjectionCheck):
                tracer.counts[
                    "projection.verify_partial_projection.units"] += \
                    result.checked
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        wrappers = {}
        for module in MODULES:
            layer = module.__name__.split(".")[-1]
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap("%s.%s" % (layer, fname), fn)
        for module in MODULES + (abstrakt,):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    # -- results -----------------------------------------------------------

    def summary(self):
        """Self time, inclusive time and calls per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            entry = out[name]
            entry[0] += end - start - child[i]
            entry[1] += end - start
            entry[2] += 1
        return out

    def write(self, path, origin):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "run_id"],
                "names": names,
                "spans": [[index[n], s - origin, e - origin, p, r]
                          for n, s, e, p, r in self.spans],
            }, fh, separators=(",", ":"))
            fh.write("\n")
