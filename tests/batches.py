"""The 500-problem acceptance batches of test_acceptance's criteria 6-8,
built once per session with recorders on what the tests read of them.  The
recorders pass every value through unchanged: criterion 8 rebuilds both
batches without them and gets the recorded digests.  A test that patches
the library reads the record before it patches: the first read builds it.
"""

import collections
import functools

import numpy as np
import pytest

from eulerfan import riemann, subsolution, wedge
from generators import random_case5, random_case6_one_shock

SIZE = 500

# (seed, draw, build), as the benchmark's workloads of these names run them:
# draw(rng) gives one problem, build(problem) its construction
BATCHES = {
    "wedge-sr": (601, lambda rng: random_case5(rng)[0], wedge.build_sr),
    "wedge-s": (602, random_case6_one_shock, wedge.build_s),
}

# One problem of a batch: its construction, or the exception the build
# raised; the searches of its perturbation schedule; the (p, case) of each
# middle equation its solves built; and the delta2 of each predicate call.
Draw = collections.namedtuple("Draw", "problem construction searches equations predicate_calls")
# search_feasible(p, **opts) returned result, after the scans of its stages
Search = collections.namedtuple("Search", "p opts result stages")
# A search stage's scan: its problem terms and tolerance, each rho1 it drew
# from its stream, and each (rho1, window, rows) it yielded
Stage = collections.namedtuple("Stage", "t tol rho1s yields")


def problems(name):
    """The batch's problems, drawn from its seed."""
    seed, draw, _ = BATCHES[name]
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(SIZE)]


def construct(build, p):
    """build(p), or the exception it raised: criteria 6 and 7 report each
    construction that fails."""
    try:
        return build(p)
    except Exception as exc:  # every failure is reported, none ends the batch
        return exc


def kept(values, drawn):
    """The stream ``values``, appending each value to ``drawn`` as it is drawn."""
    for value in values:
        drawn.append(value)
        yield value


@functools.cache
def record(name):
    """The draws (Draw) of the batch ``name``, built once per session."""
    search, scan, equation = wedge.search_feasible, subsolution._scan, riemann.middle_equation
    feasible = subsolution._ReducedRows.feasible
    searched = equations = calls = stages = None  # those of the draw, and the search, being built

    def recorded_search(p, **opts):
        nonlocal stages
        stages = []
        result = search(p, **opts)
        searched.append(Search(p, opts, result, stages))
        return result

    def recorded_scan(t, rho1s, tol=None):
        if tol is None:  # the rows of one rho1, not a search stage
            return scan(t, rho1s)
        stages.append(Stage(t, tol, [], []))
        return kept(scan(t, kept(rho1s, stages[-1].rho1s), tol), stages[-1].yields)

    def recorded_equation(p, case):
        equations.append((p, case))
        return equation(p, case)

    def counted_feasible(rows, delta2, tol):
        calls.append(delta2)
        return feasible(rows, delta2, tol)

    draws = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(wedge, "search_feasible", recorded_search)
        m.setattr(subsolution, "_scan", recorded_scan)
        m.setattr(riemann, "middle_equation", recorded_equation)
        m.setattr(subsolution._ReducedRows, "feasible", counted_feasible)
        for p in problems(name):
            searched, equations, calls = [], [], []
            draws.append(Draw(p, construct(BATCHES[name][2], p), searched, equations, calls))
    return tuple(draws)


def searches(name, size=SIZE):
    """The searches (Search) of the first ``size`` draws of the batch."""
    return [search for draw in record(name)[:size] for search in draw.searches]
