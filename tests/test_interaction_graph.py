"""Unit tests for the weighted qubit-interaction graph."""

import numpy as np
import pytest

from repro.benchmarks import qft_circuit, tlim_circuit
from repro.circuits import QuantumCircuit
from repro.partitioning import InteractionGraph
from repro.exceptions import PartitionError


class TestConstruction:
    def test_from_circuit_weights(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        circuit.cz(1, 2)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.weight(0, 1) == 2.0
        assert graph.weight(1, 2) == 1.0
        assert graph.weight(0, 2) == 0.0
        assert graph.num_edges == 2
        assert graph.total_edge_weight == 3.0

    def test_single_qubit_gates_ignored(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.rz(0.3, 1)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.num_edges == 0

    def test_from_edges(self):
        graph = InteractionGraph.from_edges(4, [(0, 1), (1, 0), (2, 3)])
        assert graph.weight(0, 1) == 2.0
        assert graph.weight(2, 3) == 1.0

    def test_invalid_edges_rejected(self):
        with pytest.raises(PartitionError):
            InteractionGraph(3, {(0, 0): 1.0})
        with pytest.raises(PartitionError):
            InteractionGraph(3, {(0, 5): 1.0})
        with pytest.raises(PartitionError):
            InteractionGraph(3, {(0, 1): -1.0})

    def test_default_vertex_weights(self):
        graph = InteractionGraph(4)
        assert graph.total_vertex_weight == 4.0


class TestQueries:
    def test_neighbors_and_degree(self):
        graph = InteractionGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.neighbors(0) == {1: 1.0, 2: 1.0, 3: 1.0}
        assert graph.degree(0) == 3.0
        assert graph.degree(1) == 1.0

    def test_cut_weight(self):
        graph = InteractionGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assignment = {0: 0, 1: 0, 2: 1, 3: 1}
        assert graph.cut_weight(assignment) == 1.0

    def test_block_weights(self):
        graph = InteractionGraph(4)
        assignment = {0: 0, 1: 0, 2: 1, 3: 1}
        assert graph.block_weights(assignment) == {0: 2.0, 1: 2.0}

    def test_laplacian_row_sums_zero(self):
        circuit = tlim_circuit(6, num_steps=1)
        graph = InteractionGraph.from_circuit(circuit)
        laplacian = graph.laplacian()
        assert np.allclose(laplacian.sum(axis=1), 0.0)
        assert np.allclose(laplacian, laplacian.T)

    def test_subgraph(self):
        graph = InteractionGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        sub, back = graph.subgraph({0, 1, 2})
        assert sub.num_vertices == 3
        assert sub.total_edge_weight == 2.0
        assert sorted(back.values()) == [0, 1, 2]

    def test_qft_graph_is_complete(self):
        graph = InteractionGraph.from_circuit(qft_circuit(6))
        assert graph.num_edges == 15
