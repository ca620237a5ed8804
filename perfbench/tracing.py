"""Per-layer tracing of cocycle_forge from outside the package.

``Tracer.install`` replaces public functions of the package's modules by
wrappers and ``Tracer.uninstall`` puts the originals back; nothing under
``src/`` is edited.  A module-level function is replaced at every name
it is bound to, so ``forms.pullback`` is traced whether it is called as
``forms.pullback``, ``diffeo.pullback`` or ``checks.pullback``.  Methods
are replaced once, on their class.

A wrapped call opens a span: its name, its parent span, start and end.
Spans are kept in flat arrays in memory, self time (a span's duration
minus the time its child spans cover) is computed once at the end, and
``write`` saves every span to a gzip'd CSV file.  A call that re-enters
a span of the same name, such as the recursion inside ``json_ready``,
stays inside the open span.  Counters sit at the same boundaries.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "cocycle_forge"

# (span name, module, attribute) of every function that opens a span.
# "Class.method" names a method; "*" names every public function defined
# in the module.
SPANNED = (
    ("cli.main", "cli", "main"),
    ("polynomial.mul", "polynomial", "Polynomial.__mul__"),
    ("polynomial.mul", "polynomial", "Polynomial.__rmul__"),
    ("polynomial.add", "polynomial", "Polynomial.__add__"),
    ("polynomial.add", "polynomial", "Polynomial.__radd__"),
    ("polynomial.compose", "polynomial", "Polynomial.compose"),
    ("forms.pullback", "forms", "pullback"),
    ("forms.wedge", "forms", "wedge"),
    ("forms.ext_d", "forms", "ext_d"),
    ("forms.interior", "forms", "interior"),
    ("forms.poincare_h", "forms", "poincare_h"),
    ("diffeo.compose", "diffeo", "PolyDiffeo.compose"),
    ("diffeo.sample_words", "diffeo", "GroupPresentation.sample_words"),
    ("chains.integrate", "chains", "integrate"),
    ("chains.integrate_translated", "chains", "integrate_translated"),
    ("zigzag.build", "zigzag", "build_phi_sequence"),
    ("zigzag.cocycle_eval", "zigzag", "cocycle_eval"),
    ("scenario.load", "scenario", "load_scenario"),
    ("scenario.parse_tuple", "scenario", "parse_tuple"),
    ("serialize.json_ready", "serialize", "json_ready"),
    ("checks.suite", "checks", "*"),
    ("sampling", "sampling", "*"),
)

# Functions that are counted (calls and raised exceptions) without a span.
COUNTED = (
    ("polynomial.init", "polynomial", "Polynomial.__init__"),
    ("diffeo.word", "diffeo", "GroupPresentation.word"),
    ("diffeo.preserves", "diffeo", "PolyDiffeo.preserves"),
    ("cochain.form", "cochain", "FormCochain.__call__"),
    ("cochain.real", "cochain", "RealCochain.__call__"),
)

# Cochain classes whose evaluator is wrapped to count memo misses, with the
# index of the evaluator among the constructor's arguments after ``self``.
MEMOIZED = (
    ("cochain.form", "FormCochain", 3),
    ("cochain.real", "RealCochain", 2),
)

POLYNOMIAL_SPANS = ("polynomial.mul", "polynomial.add", "polynomial.compose")
TIMED_LAYERS = (
    "polynomial.mul",
    "polynomial.add",
    "polynomial.compose",
    "forms.pullback",
    "forms.wedge",
    "forms.ext_d",
    "forms.interior",
    "forms.poincare_h",
    "diffeo.compose",
    "chains.integrate",
    "chains.integrate_translated",
    "zigzag.cocycle_eval",
)
SELF_TIME_ONLY = (
    "diffeo.sample_words",
    "scenario.load",
    "zigzag.build",
    "scenario.parse_tuple",
    "serialize.json_ready",
    "checks.suite",
    "sampling",
)


class Tracer:
    """Installs wrappers, records spans and counts, and restores the package."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.request = 0
        self._name_ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Forget every span and count, keeping the wrappers installed."""
        self.counts.clear()
        self.max_terms = 0
        self.max_coeff_bits = 0
        self._stack: list[int] = []
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {
            name[len(PACKAGE) + 1 :]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".")
        }
        bindings = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped: dict[int, object] = {}
        for kind, table in ((True, SPANNED), (False, COUNTED)):
            for name, mod_name, attr in table:
                module = modules.get(mod_name)
                targets = self._targets(module, attr) if module else []
                if not targets:
                    self.missing.append(f"{mod_name}.{attr}")
                for owner, key, fn in targets:
                    wrapper = wrapped.get(id(fn))
                    if wrapper is None:
                        post = self._polynomial_post if name in POLYNOMIAL_SPANS else None
                        wrapper = self._spanned(name, fn, post) if kind else self._counted(name, fn)
                        wrapped[id(fn)] = wrapper
                    if isinstance(owner, type):
                        self._replace(owner, key, wrapper)
                    else:
                        for mod in bindings:
                            for bound, value in list(vars(mod).items()):
                                if value is fn:
                                    self._replace(mod, bound, wrapper)
        cochain = modules.get("cochain")
        for name, cls_name, position in MEMOIZED:
            cls = getattr(cochain, cls_name, None)
            if cls is None:
                self.missing.append(f"cochain.{cls_name}")
                continue
            self._replace(cls, "__init__", self._memo_init(name, cls.__init__, position))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _replace(self, owner, key, wrapper):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    @staticmethod
    def _targets(module, attr):
        if attr == "*":
            return [
                (module, key, fn)
                for key, fn in vars(module).items()
                if not key.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or method not in vars(cls):
                return []
            return [(cls, method, vars(cls)[method])]
        fn = getattr(module, attr, None)
        return [(module, attr, fn)] if inspect.isfunction(fn) else []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, post):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        calls, raised = name + ".calls", name + ".raised"
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self._name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            counts[calls] += 1
            index = len(self._name)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._request.append(self.request)
            self._end.append(0.0)
            stack.append(index)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise
            finally:
                self._end[index] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls, raised = name + ".calls", name + ".raised"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise

        return wrapper

    def _memo_init(self, name, init, position):
        evals = name + ".evals"
        counts = self.counts

        def counting(evaluator):
            def evaluate(*gs):
                counts[evals] += 1
                return evaluator(*gs)

            return evaluate

        def wrapper(obj, *args, **kwargs):
            if len(args) > position:
                args = list(args)
                args[position] = counting(args[position])
            elif "evaluator" in kwargs:
                kwargs["evaluator"] = counting(kwargs["evaluator"])
            return init(obj, *args, **kwargs)

        return wrapper

    def _polynomial_post(self, result):
        terms = getattr(result, "terms", None)
        if not terms:
            return
        if len(terms) > self.max_terms:
            self.max_terms = len(terms)
        for c in terms.values():
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        names = {i: n for n, i in self._name_ids.items()}
        child = [0.0] * len(self._name)
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += self._end[i] - self._start[i]
        out = {n: 0.0 for n in self._name_ids}
        for i, name_id in enumerate(self._name):
            out[names[name_id]] += self._end[i] - self._start[i] - child[i]
        return out

    def counters(self) -> dict:
        """Every deterministic count; two passes over the same inputs agree."""
        out = dict(self.counts)
        out["polynomial.max_terms"] = self.max_terms
        out["polynomial.max_coeff_bits"] = self.max_coeff_bits
        out["spans"] = len(self._name)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, as named in BENCHMARK.json."""
        counts, self_s = self.counts, self.self_times()
        out: dict[str, float] = {}
        for name in TIMED_LAYERS:
            out[name + ".calls"] = counts[name + ".calls"]
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for name in SELF_TIME_ONLY:
            out[name + ".self_s"] = self_s.get(name, 0.0)
        out["polynomial.init.calls"] = counts["polynomial.init.calls"]
        out["polynomial.max_terms"] = self.max_terms
        out["polynomial.max_coeff_bits"] = self.max_coeff_bits
        out["diffeo.compose.cap_refusals"] = counts["diffeo.compose.raised"]
        attempts = counts["diffeo.word.calls"]
        kept = attempts - counts["diffeo.word.raised"]
        out["diffeo.word.attempts"] = attempts
        out["diffeo.word.kept"] = kept
        out["diffeo.word.yield"] = kept / attempts if attempts else 1.0
        out["diffeo.preserves.calls"] = counts["diffeo.preserves.calls"]
        for name in ("cochain.form", "cochain.real"):
            calls, evals = counts[name + ".calls"], counts[name + ".evals"]
            out[name + ".calls"] = calls
            out[name + ".evals"] = evals
            out[name + ".hit_ratio"] = (calls - evals) / calls if calls else 0.0
        return out

    def write(self, path):
        """Save every span as CSV: request, span, parent, name, start, end."""
        names = {i: n for n, i in self._name_ids.items()}
        t0 = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request,span,parent,name,start_s,end_s\n")
            for i, name_id in enumerate(self._name):
                fh.write(
                    f"{self._request[i]},{i},{self._parent[i]},{names[name_id]},"
                    f"{self._start[i] - t0:.9f},{self._end[i] - t0:.9f}\n"
                )
