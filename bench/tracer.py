"""Span tracing from outside the library.

The tracer rebinds public names *where the calling module looks them up*
(for example ``eulerfan.wedge.search_feasible``), so every call a layer makes
into another layer opens a span, and intra-module calls that go through
module globals (``solve_standard`` -> ``classify``) are seen too.  Scalar
kernels are only counted, never spanned, because they run a hundred times per
bisection and a span each would swamp what it measures.

Spans are kept in memory as tuples ``(name, start, end, parent, item)``;
``item`` is the benchmark's pool index of the problem being worked on, the
identifier shared by every span of one item.  ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import eulerfan.certificate as certificate
import eulerfan.cli as cli
import eulerfan.oracles as oracles
import eulerfan.riemann as riemann
import eulerfan.subsolution as subsolution
import eulerfan.wedge as wedge
from workloads import halvings

SEARCH = "subsolution.search"
KERNELS = ("rarefaction_integral", "shock_bracket", "lambda1", "lambda3", "pure_shock_speed")

# (module, attribute) -> span name.  Only the bindings a caller actually
# uses are listed; the function object is the same in every module.
SPANS = {
    (wedge, "build_sr"): "wedge.construct",
    (wedge, "build_s"): "wedge.construct",
    (wedge, "verify_construction"): "wedge.verify_construction",
    (wedge, "classify"): "riemann.classify",
    (wedge, "solve_standard"): "riemann.solve_standard",
    (wedge, "verify_standard"): "riemann.verify_standard",
    (wedge, "search_feasible"): SEARCH,
    (wedge, "reduced_from"): "subsolution.reduced_from",
    (wedge, "lift_to_full"): "subsolution.lift_to_full",
    (wedge, "verify_full"): "subsolution.verify_full",
    (subsolution, "classify"): "riemann.classify",
    (subsolution, "solve_standard"): "riemann.solve_standard",
    (subsolution, "verify_full"): "subsolution.verify_full",
    (riemann, "classify"): "riemann.classify",
    (riemann, "solve_standard"): "riemann.solve_standard",
    (riemann, "verify_standard"): "riemann.verify_standard",
    (cli, "run"): "cli.run",
    (cli, "classify"): "riemann.classify",
    (cli, "solve_standard"): "riemann.solve_standard",
    (cli, "verify_standard"): "riemann.verify_standard",
    (cli, "search_feasible"): SEARCH,
    (cli, "reduced_from"): "subsolution.reduced_from",
    (cli, "lift_to_full"): "subsolution.lift_to_full",
    (cli, "verify_full"): "subsolution.verify_full",
    (cli, "check_reduced"): "subsolution.check_reduced",
    (cli, "build_sr"): "wedge.construct",
    (cli, "build_s"): "wedge.construct",
    (cli, "verify_construction"): "wedge.verify_construction",
    (cli, "construction_dict"): "certificate.serialize",
    (cli, "dumps"): "certificate.serialize",
    (certificate.Certificate, "to_dict"): "certificate.serialize",
    (oracles, "run_suite"): "oracles.run_suite",
}

# wavecurves kernels, counted per layer that calls them
KERNEL_LAYERS = {"riemann": riemann, "subsolution": subsolution, "wedge": wedge}


class Tracer:
    """Records spans and counters while installed; see the module docstring.

    ``only`` restricts the installed spans to the given names and skips the
    kernel counters, for a cheap timer around a single layer.
    """

    def __init__(self, only: frozenset[str] | None = None):
        self.only = only
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._saved: list = []

    def install(self) -> None:
        for (owner, attr), name in SPANS.items():
            if self.only is None or name in self.only:
                self._rebind(owner, attr, self._span(name, getattr(owner, attr)))
        if self.only is not None:
            return
        for layer, module in KERNEL_LAYERS.items():
            for attr in KERNELS:
                if hasattr(module, attr):
                    key = f"wavecurves.calls.{layer}"
                    self._rebind(module, attr, self._count(key, getattr(module, attr)))
        self._rebind(subsolution, "v12_star", self._candidate(subsolution.v12_star))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            label = name
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == SEARCH:
                    label = SEARCH + (".miss" if result is None else ".hit")
                elif name == "wedge.construct":
                    counts["wedge.halvings"] += halvings(result.perturbation)
                return result
            finally:
                spans[index] = (label, start, perf_counter(), parent, self.item)
                stack.pop()

        return traced

    def _count(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _candidate(self, fn):
        # v12_star runs once per rho1 candidate the search evaluates; calls
        # from reduced_from outside a search are not candidates
        counts, stack = self.counts, self.stack

        def counted(*args, **kwargs):
            if stack and stack[-1][1] == SEARCH:
                counts["subsolution.rho1_candidates"] += 1
            return fn(*args, **kwargs)

        return counted

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time of its children."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - children[i]
        return totals

    def durations(self, name: str) -> list[tuple[int, float]]:
        """(item, inclusive seconds) of every span with this name."""
        return [(s[4], s[2] - s[1]) for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
