"""Unit tests for :class:`repro.model.TaskGraph`."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Task, TaskGraph
from repro.errors import CyclicDependencyError, GraphError, UnknownTaskError


def chain_graph(length: int) -> TaskGraph:
    graph = TaskGraph("chain")
    for index in range(length):
        graph.add_task(Task(name=f"t{index}", wcet=1 + index))
    for index in range(length - 1):
        graph.add_dependency(f"t{index}", f"t{index + 1}", volume=index)
    return graph


class TestConstruction:
    def test_add_and_query_tasks(self):
        graph = chain_graph(3)
        assert len(graph) == 3
        assert graph.task_count == 3
        assert graph.edge_count == 2
        assert graph.task("t1").wcet == 2
        assert "t1" in graph
        assert "zzz" not in graph

    def test_duplicate_task_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task(name="a", wcet=1))
        with pytest.raises(GraphError):
            graph.add_task(Task(name="a", wcet=2))

    def test_dependency_to_unknown_task_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task(name="a", wcet=1))
        with pytest.raises(UnknownTaskError):
            graph.add_dependency("a", "missing")
        with pytest.raises(UnknownTaskError):
            graph.add_dependency("missing", "a")

    def test_self_dependency_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task(name="a", wcet=1))
        with pytest.raises(GraphError):
            graph.add_dependency("a", "a")

    def test_duplicate_edge_merges_volume(self):
        graph = TaskGraph()
        graph.add_task(Task(name="a", wcet=1))
        graph.add_task(Task(name="b", wcet=1))
        graph.add_dependency("a", "b", volume=3)
        graph.add_dependency("a", "b", volume=4)
        assert graph.edge_count == 1
        assert graph.dependency("a", "b").volume == 7

    def test_replace_task_keeps_edges(self):
        graph = chain_graph(3)
        graph.replace_task(Task(name="t1", wcet=99))
        assert graph.task("t1").wcet == 99
        assert graph.predecessors("t1") == ["t0"]
        assert graph.successors("t1") == ["t2"]

    def test_remove_task_drops_edges(self):
        graph = chain_graph(3)
        graph.remove_task("t1")
        assert graph.task_count == 2
        assert graph.edge_count == 0
        assert graph.successors("t0") == []

    def test_remove_dependency(self):
        graph = chain_graph(2)
        graph.remove_dependency("t0", "t1")
        assert graph.edge_count == 0
        assert not graph.has_dependency("t0", "t1")


class TestStructure:
    def test_sources_and_sinks(self):
        graph = chain_graph(4)
        assert graph.sources() == ["t0"]
        assert graph.sinks() == ["t3"]

    def test_topological_order_respects_edges(self):
        graph = chain_graph(5)
        order = graph.topological_order()
        assert order == [f"t{i}" for i in range(5)]

    def test_cycle_detection(self):
        graph = chain_graph(3)
        graph.add_dependency("t2", "t0")
        assert not graph.is_acyclic()
        with pytest.raises(CyclicDependencyError) as excinfo:
            graph.topological_order()
        # the reported cycle is a closed walk through the offending tasks
        cycle = excinfo.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) <= {"t0", "t1", "t2"}

    def test_transitive_predecessors_and_successors(self):
        graph = chain_graph(4)
        assert graph.transitive_predecessors("t3") == {"t0", "t1", "t2"}
        assert graph.transitive_successors("t0") == {"t1", "t2", "t3"}
        assert graph.transitive_predecessors("t0") == set()

    def test_subgraph(self):
        graph = chain_graph(4)
        sub = graph.subgraph(["t1", "t2"])
        assert sub.task_count == 2
        assert sub.edge_count == 1
        assert sub.has_dependency("t1", "t2")

    def test_subgraph_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            chain_graph(2).subgraph(["t0", "nope"])

    def test_copy_is_independent(self):
        graph = chain_graph(3)
        clone = graph.copy()
        clone.remove_task("t2")
        assert graph.task_count == 3
        assert clone.task_count == 2

    def test_to_networkx(self):
        exported = chain_graph(3).to_networkx()
        assert exported.number_of_nodes() == 3
        assert exported.number_of_edges() == 2
        assert exported.nodes["t1"]["wcet"] == 2

    def test_aggregates(self):
        graph = chain_graph(3)
        assert graph.total_wcet == 1 + 2 + 3
        assert graph.banks_used() == set()


def assert_adjacency_mirrored(graph: TaskGraph) -> None:
    """The successor and predecessor maps hold the same dependency records.

    :meth:`TaskGraph.validate` does not re-walk the edges to check this, so
    every writer of the two maps is held to it here.
    """
    assert set(graph._successors) == set(graph._predecessors) == set(graph.task_names())
    forward = {
        (producer, consumer): dep
        for producer, succs in graph._successors.items()
        for consumer, dep in succs.items()
    }
    backward = {
        (producer, consumer): dep
        for consumer, preds in graph._predecessors.items()
        for producer, dep in preds.items()
    }
    assert forward.keys() == backward.keys()
    for (producer, consumer), dep in forward.items():
        assert backward[producer, consumer] is dep
        assert (dep.producer, dep.consumer) == (producer, consumer)


def diamond_graph() -> TaskGraph:
    graph = TaskGraph("diamond")
    for name in ("src", "left", "right", "sink"):
        graph.add_task(Task(name=name, wcet=1))
    for producer, consumer in (("src", "left"), ("src", "right"), ("left", "sink"), ("right", "sink")):
        graph.add_dependency(producer, consumer, volume=2)
    return graph


class TestAdjacencyInvariant:
    def test_add_dependency_records_one_edge_both_ways(self):
        graph = diamond_graph()
        assert_adjacency_mirrored(graph)
        assert graph.predecessors("sink") == ["left", "right"]
        assert graph.successors("src") == ["left", "right"]

    def test_merged_duplicate_edge_is_seen_from_both_ends(self):
        graph = diamond_graph()
        graph.add_dependency("src", "left", volume=5)
        assert_adjacency_mirrored(graph)
        assert graph.dependency("src", "left").volume == 7
        assert graph._predecessors["left"]["src"].volume == 7

    def test_remove_dependency_drops_both_ends(self):
        graph = diamond_graph()
        graph.remove_dependency("src", "right")
        assert_adjacency_mirrored(graph)
        assert graph.predecessors("right") == []
        assert graph.successors("src") == ["left"]

    def test_removing_an_absent_edge_changes_nothing(self):
        graph = diamond_graph()
        graph.remove_dependency("left", "right")
        assert_adjacency_mirrored(graph)
        assert graph.edge_count == 4

    def test_remove_task_drops_every_touching_edge_both_ways(self):
        graph = diamond_graph()
        graph.remove_task("left")
        assert_adjacency_mirrored(graph)
        assert graph.successors("src") == ["right"]
        assert graph.predecessors("sink") == ["right"]
        assert graph.edge_count == 2

    def test_replace_task_leaves_adjacency_mirrored(self):
        graph = diamond_graph()
        graph.replace_task(Task(name="left", wcet=9))
        assert_adjacency_mirrored(graph)
        assert graph.edge_count == 4

    def test_copy_and_subgraph_are_mirrored(self):
        graph = diamond_graph()
        assert_adjacency_mirrored(graph.copy())
        sub = graph.subgraph(["src", "left", "sink"])
        assert_adjacency_mirrored(sub)
        assert sub.edge_count == 2

    def test_validate_rejects_a_cycle_and_passes_once_it_is_removed(self):
        graph = chain_graph(3)
        graph.validate()
        graph.add_dependency("t2", "t0")
        with pytest.raises(CyclicDependencyError):
            graph.validate()
        graph.remove_dependency("t2", "t0")
        graph.validate()

    def test_checked_dependency_that_closes_a_cycle_raises(self):
        graph = chain_graph(3)
        with pytest.raises(CyclicDependencyError):
            graph.add_dependency("t2", "t0", check_cycles=True)


@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["add_task", "add_dependency", "remove_dependency", "remove_task"]),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        max_size=40,
    )
)
def test_random_edit_sequences_keep_adjacency_mirrored(edits):
    graph = TaskGraph()
    for index in range(4):
        graph.add_task(Task(name=f"n{index}", wcet=1))
    for kind, first, second, volume in edits:
        a, b = f"n{first}", f"n{second}"
        if kind == "add_task":
            if a not in graph:
                graph.add_task(Task(name=a, wcet=1))
        elif a not in graph:
            continue
        elif kind == "remove_task":
            graph.remove_task(a)
        elif b in graph and a != b:
            if kind == "add_dependency":
                graph.add_dependency(a, b, volume=volume)
            else:
                graph.remove_dependency(a, b)
        assert_adjacency_mirrored(graph)


@given(length=st.integers(min_value=1, max_value=30))
def test_chain_topological_order_length(length):
    graph = chain_graph(length)
    assert len(graph.topological_order()) == length


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] < e[1]),
        max_size=40,
    )
)
def test_random_forward_edges_always_acyclic(edges):
    """Edges that always go from a lower to a higher index can never form a cycle."""
    graph = TaskGraph()
    for index in range(15):
        graph.add_task(Task(name=f"n{index}", wcet=1))
    for producer, consumer in edges:
        graph.add_dependency(f"n{producer}", f"n{consumer}")
    assert graph.is_acyclic()
    order = graph.topological_order()
    position = {name: i for i, name in enumerate(order)}
    for dep in graph.dependencies():
        assert position[dep.producer] < position[dep.consumer]
