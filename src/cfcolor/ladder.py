"""The solve ladder: one call that picks a coloring strategy by graph structure.

`solve` goes through one ordered table of constructive strategies.  An
entry is (the refusal under variant on, or None when it handles on; an
applicability test returning (ok, certificate); the refusal when the
test says no; a runner taking the graph, the certificate and the
variant).  A named strategy and `auto` run the same loop over it: the
named entry alone, or every entry in order.  A check that fails refuses
a named strategy (ValueError) and, under `auto`, moves on to the next
entry.  The `auto` order is split CF-CN, bipartite CF-CN, cograph,
interval when a representation is supplied, then the smaller computed
modulator (cluster -> lemma1 few-color bound, threshold -> additive
approximation; ties prefer cluster, so the threshold search runs only
below the cluster modulator's size); otherwise the exact oracle when
the instance fits under the guard, otherwise refusal (SizeGuardError).
"""

from __future__ import annotations

import functools

from . import fpt, graphclasses, interval, oracle, polysolve
from .coloring import EXACT, VARIANT_CN, SolveOutcome
from .graph import Graph, SizeGuardError
from .graphclasses import Modulator
from .interval import IntervalRepresentation

DEFAULT_BUDGET = 6


def find_modulator(g: Graph, residual: str, budget: int) -> Modulator | None:
    """The searched modulator of the `residual` class ("cluster" or
    "threshold") of at most `budget` vertices, or None."""
    return (graphclasses.cluster_modulator if residual == "cluster"
            else graphclasses.threshold_modulator)(g, budget)


# The constructive strategies in `auto` ladder order: name -> (refusal
# under variant on or None, applies(g, rep, modulator) -> (ok,
# certificate), refusal, runner(g, certificate, variant)); `modulator`
# takes the residual class, and a refusal may name the budget.  Each
# recognizer and solver is looked up in its module when it runs, so a
# replacement put there, such as a tracing wrapper, is the one called.
STRATEGIES = {
    "split": ("the split strategy handles only --variant cn; the open variant on split graphs"
              " is as hard as graph coloring (see gadget)",
              lambda g, rep, mod: graphclasses.is_split(g), "the graph is not split",
              lambda g, cert, v: polysolve.solve_split_cfcn(g, cert)),
    "bipartite": ("the bipartite strategy handles only --variant cn",
                  lambda g, rep, mod: graphclasses.is_bipartite(g), "the graph is not bipartite",
                  lambda g, cert, v: polysolve.solve_bipartite_cfcn(g, cert)),
    "cograph": (None, lambda g, rep, mod: graphclasses.is_cograph(g), "the graph is not a cograph",
                lambda g, cert, v: polysolve.solve_cograph(g, cert, v)),
    "interval": (None, lambda g, rep, mod: (rep is not None, rep),
                 "the interval strategy needs --intervals", lambda g, cert, v: (
                     interval.cfcn_interval if v == VARIANT_CN
                     else interval.cfon_interval)(g, cert)),
    "lemma1": (None, lambda g, rep, mod: mod("cluster"), "no cluster modulator of size <= {}",
               lambda g, cert, v: (
                   polysolve.lemma1_cfcn if v == VARIANT_CN else polysolve.lemma1_cfon)(g, cert)),
    "approx": (None, lambda g, rep, mod: mod("threshold"), "no threshold modulator of size <= {}",
               lambda g, cert, v: (fpt.approx_cfcn_threshold if v == VARIANT_CN
                                   else fpt.approx_cfon_threshold)(g, cert)),
}


def solve(g: Graph, variant: str, strategy: str = "auto", *,
          intervals: IntervalRepresentation | None = None, modulator: Modulator | None = None,
          budget: int = DEFAULT_BUDGET, limit: int | None = oracle.DEFAULT_LIMIT,
          ) -> tuple[str, SolveOutcome]:
    """(the rung that answered, its outcome) for a feasible `g`: the
    named entry of `STRATEGIES`, "oracle", or under "auto" the ladder.
    A given `modulator` serves the lemma1 and approx rungs; otherwise
    they search within `budget`.  `limit` is the oracle's vertex guard,
    None for none."""
    auto = strategy == "auto"
    if not auto and strategy != "oracle" and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    @functools.cache
    def smallest():  # the smaller modulator, ties prefer cluster; searched once
        cluster = find_modulator(g, "cluster", budget)
        if cluster is not None and not cluster.vertices:
            return cluster
        # only a strictly smaller threshold modulator can win
        threshold = find_modulator(
            g, "threshold", budget if cluster is None else len(cluster.vertices) - 1)
        return threshold if threshold is not None else cluster

    def found(residual: str):  # (whether the residual's rung applies, its modulator)
        m = modulator or (smallest() if auto else find_modulator(g, residual, budget))
        return m is not None and m.residual_class == residual, m

    for name in STRATEGIES if auto else [n for n in STRATEGIES if n == strategy]:
        on_refusal, applies, refusal, runner = STRATEGIES[name]
        wrong_variant = on_refusal is not None and variant != VARIANT_CN
        ok, cert = (False, None) if wrong_variant else applies(g, intervals, found)
        if ok:
            return name, runner(g, cert, variant)
        if not auto:
            raise ValueError(on_refusal if wrong_variant else refusal.format(budget))
    if auto and limit is not None and g.n > limit:
        raise SizeGuardError(f"no polynomial strategy applies and {g.n} vertices exceed"
                             f" the oracle guard ({limit})")
    result = oracle.exact_cf(g, variant, limit=limit)
    return "oracle", SolveOutcome(result.witness, result.chromatic, EXACT, "exhaustive search")
