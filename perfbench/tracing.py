"""Span recording for the traced benchmark run.

The traced run replaces every public function of each tauprimes layer
module with a wrapper that records one span per call.  The wrapper is
installed on every module attribute that names the function, so callers
that imported it by name (``tauprimes.search.is_probable_prime``,
``tauprimes.cli.delta_series``) and calls inside the defining module go
through it too.  Nothing under ``src/`` is edited; ``uninstall`` puts the
original functions back.

Spans are kept in memory as ``[name, start, end, parent, op, work]`` lists
and written as JSON at the end of the run.  ``op`` is the operation id the
benchmark assigned, shared by every span of one operation; ``work`` is an
optional tuple of per-call amounts (coefficients, bytes, probable
primes, points), one per key that ``WORK`` names for the function.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("series", "cache", "hecke", "congruence", "primality", "search", "reports", "spectral", "bounds", "cli")

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "work")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


@functools.lru_cache(maxsize=None)
def _prime_count(n: int) -> int:
    sieve = sys.modules["tauprimes.primality"].primes_up_to
    # the unwrapped sieve, so the count adds no span
    return len(getattr(sieve, "__wrapped__", sieve)(n))


# Per-function work amounts, read after the span closes: function name ->
# (the tally keys, a function of (args, kwargs, result) giving one amount
# per key).
WORK = {
    "series.delta_series": (("series.coeffs",), lambda a, k, r: (_arg(a, k, 0, "limit"),)),
    "cache.write_cache": (("cache.bytes",), lambda a, k, r: (os.path.getsize(_arg(a, k, 1, "path")),)),
    "cache.read_cache": (("cache.bytes",), lambda a, k, r: (os.path.getsize(_arg(a, k, 0, "path")),)),
    "primality.is_probable_prime": (("primality.primes",), lambda a, k, r: (int(bool(r)),)),
    "search.search_prime_tau": (
        ("search.points", "search.candidates"),
        lambda a, k, r: (len(r), _prime_count(_arg(a, k, 0, "p_max")) * _arg(a, k, 1, "k_max")),
    ),
    "reports.to_json": (("reports.bytes",), lambda a, k, r: (len(r),)),
}


class Tracer:
    """Collects spans while an operation is open; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._fastest: tuple[int, float] | None = None

    # -- operations -------------------------------------------------------

    def begin(self, op, label: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([f"op.{label}", perf_counter(), 0.0, -1, op, None])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()
        self.op = None

    def keep_fastest(self, mark: int, wall: float) -> None:
        """Keep the spans from ``mark`` on, a pass of ``wall`` seconds, only if it is the fastest so far.

        Only the set-up's spans and the fastest traced pass's are reported,
        so the others are dropped, which keeps memory and the trace file small.
        """
        if self._fastest is not None and wall >= self._fastest[1]:
            del self.spans[mark:]
            return
        start = mark if self._fastest is None else self._fastest[0]
        shift = mark - start
        del self.spans[start:mark]
        for span in self.spans[start:]:
            if span[3] >= 0:
                span[3] -= shift
        self._fastest = (start, wall)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, work):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                try:
                    span[5] = work(args, kwargs, result)
                except (IndexError, KeyError, TypeError, OSError):
                    pass  # a changed signature loses the amount, not the run
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every binding site."""
        import tauprimes.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tauprimes.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, WORK[name][1] if name in WORK else None)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tauprimes" and not mod_name.startswith("tauprimes."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path, meta: dict) -> None:
        doc = dict(meta, fields=list(SPAN_FIELDS), spans=self.spans)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


# -- per-layer tallies ----------------------------------------------------

# Function groups whose outermost spans give a busy time or call count.
_GROUPS = {
    "series": None,
    "cache.write": ("cache.write_cache",),
    "cache.read": ("cache.read_cache",),
    "hecke.factorize": ("hecke.factorize",),
    "hecke.recurrence": ("hecke.tau_prime_power", "hecke.tau_prime_powers"),
    "primality": None,
    "primality.test": ("primality.is_probable_prime",),
    "congruence.classify": ("congruence.classify_mod23",),
    "reports": None,
    "spectral.root": ("spectral.root_set",),
    "spectral.gap": ("spectral.min_gap",),
    "spectral.approx": ("spectral.approximation_quality",),
    "spectral.poly": ("spectral.even_index_poly", "spectral.eval_even_poly", "spectral.eval_dehomogenized"),
    "spectral.cyclo": ("spectral.cyclotomic_factor_magnitudes",),
    "bounds": None,
    "cli.main": ("cli.main",),
}


def _in_group(name: str, group: str, members) -> bool:
    if members is None:
        return name.startswith(group + ".")
    return name in members


def tally(spans: list[list], ops: set) -> dict[str, float]:
    """Sums over the spans of the given operations, ready to add and derive from.

    ``<group>.calls`` and ``<group>.busy`` count only outermost spans of a
    group, so a layer calling itself is not counted twice; ``<layer>.self``
    is each span's duration minus the time its child spans cover.
    """
    picked = {i for i, s in enumerate(spans) if s[4] in ops}
    child_time: dict[int, float] = {}
    for i in picked:
        s = spans[i]
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i in sorted(picked):
        name, start, end, parent, _, work = spans[i]
        if name.startswith("op."):
            continue
        dur = end - start
        layer = name.split(".", 1)[0]
        add(f"{layer}.self", dur - child_time.get(i, 0.0))
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        for group, members in _GROUPS.items():
            if _in_group(name, group, members) and not any(_in_group(a, group, members) for a in ancestors):
                add(f"{group}.calls", 1)
                add(f"{group}.busy", dur)
        if work is not None:
            for key, amount in zip(WORK[name][0], work):
                add(key, amount)
    return out


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json, from one tally."""
    g = lambda key: t.get(key, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "series.calls": g("series.calls"),
        "series.busy_s": g("series.busy"),
        "series.coeffs_per_s": ratio(g("series.coeffs"), g("series.busy")),
        "cache.write_s": g("cache.write.busy"),
        "cache.read_s": g("cache.read.busy"),
        "cache.bytes": g("cache.bytes"),
        "hecke.factorize_calls": g("hecke.factorize.calls"),
        "hecke.factorize_s": g("hecke.factorize.busy"),
        "hecke.recurrence_s": g("hecke.recurrence.busy"),
        "primality.calls": g("primality.test.calls"),
        "primality.busy_s": g("primality.busy"),
        "primality.prime_ratio": ratio(g("primality.primes"), g("primality.test.calls")),
        "search.points": g("search.points"),
        "search.kept_ratio": ratio(g("search.points"), g("search.candidates")),
        "search.self_s": g("search.self"),
        "congruence.classify_calls": g("congruence.classify.calls"),
        "congruence.classify_s": g("congruence.classify.busy"),
        "reports.encode_s": g("reports.busy"),
        "reports.bytes": g("reports.bytes"),
        "spectral.root_s": g("spectral.root.busy"),
        "spectral.gap_s": g("spectral.gap.busy"),
        "spectral.approx_s": g("spectral.approx.busy"),
        "spectral.poly_s": g("spectral.poly.busy"),
        "spectral.cyclo_s": g("spectral.cyclo.busy"),
        "bounds.calls": g("bounds.calls"),
        "bounds.busy_s": g("bounds.busy"),
        "cli.calls": g("cli.main.calls"),
        "cli.self_s": g("cli.self"),
    }
