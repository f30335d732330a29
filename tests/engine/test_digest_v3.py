"""Digest v3 against a copy of the v2 rendering it replaced.

v3 renders each dependency as a sorted ``[producer, consumer, volume]``
triple instead of a ``{producer, consumer, volume}`` record.  The change is
only allowed to make the digest cheaper: two problems must share a v3 digest
exactly when they share a v2 digest.  The oracle below is the v2 rendering,
kept verbatim; the generators supply the problems, and hand-made pairs cover
the edits a rendering change could confuse (one edge volume, one edge, task
and edge insertion order, names).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Any, Dict, List, Tuple

import pytest

from repro import AnalysisProblem, TaskGraph
from repro.engine.jobs import _arbiter_signature, split_problem_digests
from repro.generators import (
    ChainsConfig,
    ForkJoinConfig,
    SeriesParallelConfig,
    fixed_ls_workload,
    fixed_nl_workload,
    generate_chains,
    generate_fork_join,
    generate_series_parallel,
)
from repro.model import graph_to_dict, mapping_to_dict


def _v2_canonical(problem: AnalysisProblem) -> Dict[str, Any]:
    """The v2 ``canonical_problem_dict``: one record per dependency."""
    graph = graph_to_dict(problem.graph)
    graph.pop("name", None)
    graph["tasks"] = sorted(graph["tasks"], key=lambda record: record["name"])
    graph["dependencies"] = sorted(
        graph["dependencies"], key=lambda record: (record["producer"], record["consumer"])
    )
    platform = problem.platform.to_dict()
    platform.pop("name", None)
    platform.pop("description", None)
    for record in platform.get("cores", []):
        record.pop("name", None)
    for record in platform.get("banks", []):
        record.pop("name", None)
    return {
        "graph": graph,
        "mapping": mapping_to_dict(problem.mapping),
        "platform": platform,
        "arbiter": _arbiter_signature(problem.arbiter),
        "horizon": problem.horizon,
    }


def _sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _v2_split_digests(problem: AnalysisProblem) -> Tuple[str, str]:
    canonical = _v2_canonical(problem)
    tasks = canonical["graph"]["tasks"]
    params = {
        "wcet": [record.pop("wcet") for record in tasks],
        "accesses": [record.pop("accesses") for record in tasks],
        "horizon": canonical.pop("horizon"),
    }
    return _sha(canonical), _sha(params)


def _rebuilt(
    problem: AnalysisProblem,
    *,
    name: str = None,
    graph_name: str = None,
    reverse: bool = False,
    edges: List[Tuple[str, str, int]] = None,
) -> AnalysisProblem:
    """``problem`` rebuilt with other names, insertion order or edge list."""
    tasks = problem.graph.tasks()
    if edges is None:
        edges = [dep.as_tuple() for dep in problem.graph.dependencies()]
    if reverse:
        tasks, edges = tasks[::-1], edges[::-1]
    graph = TaskGraph(name=graph_name or problem.graph.name)
    for task in tasks:
        graph.add_task(task)
    for producer, consumer, volume in edges:
        graph.add_dependency(producer, consumer, volume)
    return AnalysisProblem(
        graph=graph,
        mapping=problem.mapping,
        platform=problem.platform,
        arbiter=problem.arbiter,
        horizon=problem.horizon,
        name=name or problem.name,
    )


def _zoo() -> List[AnalysisProblem]:
    workloads = [
        fixed_ls_workload(40, 8, core_count=4, seed=1),
        fixed_ls_workload(40, 8, core_count=4, seed=2),
        fixed_nl_workload(48, 6, core_count=4, seed=3),
        fixed_nl_workload(48, 6, core_count=4, seed=3, bank_count=2),
        generate_chains(ChainsConfig(chains=4, length=6, core_count=4, seed=4)),
        generate_fork_join(ForkJoinConfig(sections=3, width=4, core_count=4, seed=5)),
        generate_series_parallel(SeriesParallelConfig(target_tasks=30, core_count=4, seed=6)),
    ]
    return [workload.to_problem() for workload in workloads]


def _variants(problem: AnalysisProblem) -> List[AnalysisProblem]:
    """``problem``, content-equal rebuilds of it and one-edge edits of it."""
    edges = [dep.as_tuple() for dep in problem.graph.dependencies()]
    producer, consumer, volume = edges[len(edges) // 2]
    reweighed = list(edges)
    reweighed[len(edges) // 2] = (producer, consumer, volume + 1)
    dropped = edges[:len(edges) // 2] + edges[len(edges) // 2 + 1:]
    return [
        problem,
        _rebuilt(problem, reverse=True),  # same content, other insertion order
        _rebuilt(problem, name="renamed", graph_name="other-graph"),  # names only
        _rebuilt(problem, edges=reweighed),  # one edge volume
        _rebuilt(problem, edges=dropped),  # one edge fewer
        problem.with_horizon(10**9),  # the overlay half only
    ]


@pytest.fixture(scope="module")
def problems() -> List[AnalysisProblem]:
    return [variant for problem in _zoo() for variant in _variants(problem)]


class TestDigestV3MatchesV2:
    def test_problems_share_a_v3_digest_exactly_when_they_share_a_v2_digest(self, problems):
        v2 = [_v2_split_digests(problem) for problem in problems]
        v3 = [split_problem_digests(problem) for problem in problems]
        for (a2, a3), (b2, b3) in itertools.combinations(zip(v2, v3), 2):
            for half in (0, 1):
                assert (a3[half] == b3[half]) == (a2[half] == b2[half])
            assert (a3 == b3) == (a2 == b2)

    def test_the_pairs_cover_both_outcomes(self):
        """The zoo holds content-equal pairs and differing pairs of each kind."""
        for problem in _zoo():
            base, reordered, renamed, reweighed, dropped, rehorizoned = (
                split_problem_digests(variant) for variant in _variants(problem)
            )
            assert base == reordered == renamed
            assert reweighed[0] != base[0] and reweighed[1] == base[1]
            assert dropped[0] != base[0] and dropped[1] == base[1]
            assert rehorizoned[0] == base[0] and rehorizoned[1] != base[1]

    def test_the_overlay_half_is_the_v2_overlay_half(self, problems):
        for problem in problems:
            assert split_problem_digests(problem)[1] == _v2_split_digests(problem)[1]

    def test_the_structure_half_changed_with_the_rendering(self, problems):
        """A v2 row is unreachable under v3 (hence the schema bump)."""
        for problem in problems:
            assert split_problem_digests(problem)[0] != _v2_split_digests(problem)[0]
