"""Metric-id dispatch shared by the CLI and the attack driver."""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import globalmetrics as gm
from . import graphmetrics as gr
from . import groupselect as gs
from . import iterative as it
from . import local as lo
from .errors import GraphInputError
from .graph import Graph
from .params import GroupSelectParams, MetricParams, ScoreVector, score_vector


@dataclass(frozen=True)
class PointMetric:
    func: object
    # metrics excluded from "run everything" sweeps: either guarded by a
    # size/pair cap or kept naive on purpose as an oracle
    capped: bool = False


POINT_METRICS: dict[str, PointMetric] = {
    # local
    "degree": PointMetric(lambda g, p: lo.degree_family(g, "total")),
    "in-degree": PointMetric(lambda g, p: lo.degree_family(g, "in")),
    "out-degree": PointMetric(lambda g, p: lo.degree_family(g, "out")),
    "semi-local": PointMetric(
        lambda g, p: lo.neighborhood_degree_family(g, "semi-local", p)),
    "hybrid-degree": PointMetric(
        lambda g, p: lo.neighborhood_degree_family(g, "hybrid-degree", p)),
    "volume": PointMetric(
        lambda g, p: lo.neighborhood_degree_family(g, "volume", p)),
    "clustering": PointMetric(lambda g, p: lo.clustering_family(g, "clustering")),
    "redundancy": PointMetric(lambda g, p: lo.clustering_family(g, "redundancy")),
    "clusterrank": PointMetric(lambda g, p: lo.clustering_family(g, "clusterrank")),
    "local-entropy": PointMetric(lambda g, p: lo.entropy_family(g, "local-entropy")),
    "mapping-entropy": PointMetric(
        lambda g, p: lo.entropy_family(g, "mapping-entropy")),
    "h-index": PointMetric(lambda g, p: lo.h_index(g, order=1)),
    "gauss-curvature": PointMetric(lambda g, p: lo.gauss_curvature(g)),
    # iterative
    "k-shell": PointMetric(
        lambda g, p: score_vector("k-shell", it._peel(g, 0.0)[1])),
    "mixed-degree": PointMetric(
        lambda g, p: it.mixed_degree_decomposition(g, p.lambda_mdd)),
    "nc": PointMetric(lambda g, p: it.coreness_family(g, "nc")),
    "nc-plus": PointMetric(lambda g, p: it.coreness_family(g, "nc-plus")),
    "eigenvector": PointMetric(lambda g, p: it.eigen_family(g, "eigenvector", p)),
    "katz": PointMetric(lambda g, p: it.eigen_family(g, "katz", p)),
    "pagerank": PointMetric(lambda g, p: it.eigen_family(g, "pagerank", p)),
    "contribution": PointMetric(lambda g, p: it.eigen_family(g, "contribution", p)),
    "cumulative-nomination": PointMetric(
        lambda g, p: it.eigen_family(g, "cumulative-nomination", p)),
    "dynamical-influence": PointMetric(
        lambda g, p: it.eigen_family(g, "dynamical-influence", p)),
    "authority": PointMetric(lambda g, p: it.hits(g, p.tol)[0]),
    "hub": PointMetric(lambda g, p: it.hits(g, p.tol)[1]),
    "salsa-authority": PointMetric(lambda g, p: it.salsa(g, p.tol)[0]),
    "salsa-hub": PointMetric(lambda g, p: it.salsa(g, p.tol)[1]),
    "leaderrank": PointMetric(
        lambda g, p: it.leader_rank(g, p.tol, p.max_iter)),
    "diffusion": PointMetric(
        lambda g, p: it.diffusion_centrality(g, p.q, p.T)),
    "subgraph": PointMetric(lambda g, p: it.subgraph_centrality(g)),
    # global
    "improved-method": PointMetric(lambda g, p: gm.improved_method_scores(g)),
    "betweenness": PointMetric(
        lambda g, p: gm.betweenness_family(g, "betweenness", p)),
    "l-betweenness": PointMetric(
        lambda g, p: gm.betweenness_family(g, "l-betweenness", p)),
    "percolation": PointMetric(
        lambda g, p: gm.betweenness_family(g, "percolation", p)),
    "load": PointMetric(lambda g, p: gm.betweenness_family(g, "load", p)),
    "flow-betweenness": PointMetric(
        lambda g, p: gm.flow_betweenness(g, pair_distance_cap=p.h),
        capped=True),
    "current-flow-betweenness": PointMetric(
        lambda g, p: gm.current_flow_betweenness(g)),
    "current-flow-closeness": PointMetric(
        lambda g, p: gm.current_flow_closeness(g)),
    "random-walk-betweenness": PointMetric(
        lambda g, p: gm.random_walk_betweenness(g)),
    "closeness": PointMetric(
        lambda g, p: gm.closeness_family(g, "closeness", p)),
    "bavelas": PointMetric(lambda g, p: gm.closeness_family(g, "bavelas", p)),
    "residual-closeness": PointMetric(
        lambda g, p: gm.closeness_family(g, "residual", p)),
    "eccentricity": PointMetric(
        lambda g, p: gm.closeness_family(g, "eccentricity", p)),
    "straightness": PointMetric(
        lambda g, p: gm.closeness_family(g, "straightness", p)),
    "information": PointMetric(lambda g, p: gm.information_centrality(g)),
    "ahp": PointMetric(lambda g, p: gm.ahp_centrality(g, p)),
    "gdsp-degree": PointMetric(
        lambda g, p: gm.generalized_weighted_family(
            g, "gdsp-degree", _alpha(p, 0.5))),
    "gdsp-closeness": PointMetric(
        lambda g, p: gm.generalized_weighted_family(
            g, "gdsp-closeness", _alpha(p, 0.5))),
    "gdsp-betweenness": PointMetric(
        lambda g, p: gm.generalized_weighted_family(
            g, "gdsp-betweenness", _alpha(p, 0.5))),
    "weight-neighborhood": PointMetric(
        lambda g, p: gm.weight_neighborhood(g, alpha=_alpha(p, 0.5),
                                            params=p)),
}


def _alpha(p: MetricParams, default: float) -> float:
    return default if p.alpha is None else p.alpha


GRAPH_METRICS: dict[str, object] = {
    "dispersion": lambda g, p: gr.dispersion(g),
    "degree-gc": lambda g, p: gr.degree_gc(g, normalized=True),
    "betweenness-gc": lambda g, p: gr.centralization(g, "betweenness"),
    "closeness-gc": lambda g, p: gr.centralization(g, "closeness"),
    "flow-betweenness-gc": lambda g, p: gr.centralization(
        g, "flow-betweenness"),
    "reciprocity": lambda g, p: gr.reciprocity(g),
    "k-core": lambda g, p: gr.cohesive_subgroup(g, "k-core", k=p.h),
    "k-clique-max": lambda g, p: gr.cohesive_subgroup(g, "k-clique-max"),
    "k-plex-max": lambda g, p: gr.cohesive_subgroup(g, "k-plex-max", k=p.h),
    "k-component": lambda g, p: gr.cohesive_subgroup(g, "k-component",
                                                     k=p.h),
    "global-clustering": lambda g, p: gr.global_clustering(g),
    "assortativity": lambda g, p: gr.assortativity(
        g, "directed-out-in" if g.directed else "undirected"),
    "local-assortativity": lambda g, p: gr.local_assortativity(g),
    "delta-hyperbolicity": lambda g, p: gr.delta_hyperbolicity(
        g, p.sample_count, p.rng_seed),
}


GROUP_STRATEGIES: dict[str, object] = {
    "degree-distance": lambda g, b, gp: gs.degree_distance(
        g, replace(gp, budget=b), "plain"),
    "fidd": lambda g, b, gp: gs.degree_distance(
        g, replace(gp, budget=b), "fidd"),
    "sidd": lambda g, b, gp: gs.degree_distance(
        g, replace(gp, budget=b), "sidd"),
    "single-discount": lambda g, b, gp: gs.single_discount(g, b),
    "degree-discount": lambda g, b, gp: gs.degree_discount(g, b, gp.p),
    "degree-punishment": lambda g, b, gp: gs.degree_punishment(
        g, b, gp.omega, gp.r),
    "collective-influence": lambda g, b, gp: gs.collective_influence(
        g, budget=b, ell=gp.ell),
}


def point_metric_ids(include_capped: bool = True) -> list[str]:
    return [k for k, v in sorted(POINT_METRICS.items())
            if include_capped or not v.capped]


def graph_metric_ids() -> list[str]:
    return sorted(GRAPH_METRICS)


def strategy_ids() -> list[str]:
    return sorted(GROUP_STRATEGIES)


def compute_point_metric(g: Graph, metric_id: str,
                         overrides: dict | None = None) -> ScoreVector:
    spec = POINT_METRICS.get(metric_id)
    if spec is None:
        raise GraphInputError(
            f"unknown point metric {metric_id!r}; valid ids: "
            + ", ".join(point_metric_ids()))
    params = MetricParams.from_overrides(overrides or {})
    return spec.func(g, params)


def compute_graph_metric(g: Graph, metric_id: str,
                         overrides: dict | None = None):
    func = GRAPH_METRICS.get(metric_id)
    if func is None:
        raise GraphInputError(
            f"unknown graph metric {metric_id!r}; valid ids: "
            + ", ".join(graph_metric_ids()))
    params = MetricParams.from_overrides(overrides or {})
    return func(g, params)


def run_strategy(g: Graph, strategy_id: str, budget: int,
                 overrides: dict | None = None):
    func = GROUP_STRATEGIES.get(strategy_id)
    if func is None:
        raise GraphInputError(
            f"unknown strategy {strategy_id!r}; valid ids: "
            + ", ".join(strategy_ids()))
    overrides = dict(overrides or {})
    overrides.pop("budget", None)
    # GroupSelectParams refuses a budget below 1 for every strategy
    gp = GroupSelectParams(budget=budget, **overrides)
    return func(g, budget, gp)
