"""Property-based tests (hypothesis) for core data structures and invariants."""

import json
import math

from hypothesis import given, settings, strategies as st

from repro.circuits import CircuitDAG, QuantumCircuit
from repro.circuits.transforms import (
    alap_variant,
    asap_variant,
    canonical_gate_multiset,
    reorder_is_equivalent,
)
from repro.entanglement import AttemptPolicy, AttemptSchedule, werner_fidelity_after
from repro.noise import depolarizing_kraus, validate_kraus
from repro.partitioning import InteractionGraph, Partition, fm_refine, kl_refine
from repro.runtime import DataQubitTracker
from repro.analysis import summarize


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def random_circuits(draw, max_qubits=6, max_gates=25, remote_fraction=0.3):
    """Random circuits over a small gate set with some remote labels."""
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    circuit = QuantumCircuit(num_qubits, name="hypothesis")
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["h", "rz", "rx", "cx", "cz", "rzz"]))
        if kind in ("h", "rz", "rx"):
            qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            if kind == "h":
                circuit.h(qubit)
            else:
                circuit.add_gate(kind, (qubit,), (draw(st.floats(0.1, 3.0)),))
        else:
            a = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            b = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            if a == b:
                continue
            label = "remote" if draw(st.floats(0, 1)) < remote_fraction else None
            params = (draw(st.floats(0.1, 3.0)),) if kind == "rzz" else ()
            circuit.add_gate(kind, (a, b), params, label=label)
    if circuit.num_gates == 0:
        circuit.h(0)
    return circuit


@st.composite
def random_graphs(draw, max_vertices=14):
    """Random interaction graphs with at least two vertices."""
    num_vertices = draw(st.integers(min_value=4, max_value=max_vertices))
    if num_vertices % 2:
        num_vertices += 1
    num_edges = draw(st.integers(min_value=1, max_value=3 * num_vertices))
    weights = {}
    for _ in range(num_edges):
        a = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        b = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        if a == b:
            continue
        weights[(min(a, b), max(a, b))] = float(draw(st.integers(1, 5)))
    return InteractionGraph(num_vertices, weights)


# ---------------------------------------------------------------------------
# circuit IR invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_dag_is_acyclic_and_complete(circuit):
    dag = CircuitDAG(circuit)
    order = dag.topological_order()
    assert sorted(order) == list(range(circuit.num_gates))
    assert dag.is_legal_order(order)


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_layers_cover_all_gates_once(circuit):
    dag = CircuitDAG(circuit)
    flattened = sorted(i for layer in dag.layers() for i in layer)
    assert flattened == list(range(circuit.num_gates))


@settings(max_examples=60, deadline=None)
@given(random_circuits())
def test_alap_never_before_asap(circuit):
    dag = CircuitDAG(circuit)
    asap = dag.asap_levels()
    alap = dag.alap_levels()
    assert all(alap[i] >= asap[i] - 1e-9 for i in asap)


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_asap_alap_variants_are_equivalent_reorderings(circuit):
    asap = asap_variant(circuit)
    alap = alap_variant(circuit)
    assert canonical_gate_multiset(asap) == canonical_gate_multiset(circuit)
    assert canonical_gate_multiset(alap) == canonical_gate_multiset(circuit)
    assert reorder_is_equivalent(circuit, asap)
    assert reorder_is_equivalent(circuit, alap)


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_variant_depth_unchanged_gate_counts(circuit):
    asap = asap_variant(circuit)
    assert asap.num_two_qubit_gates() == circuit.num_two_qubit_gates()
    assert asap.num_single_qubit_gates() == circuit.num_single_qubit_gates()


# ---------------------------------------------------------------------------
# partitioning invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_kl_refinement_never_increases_cut(graph):
    start = Partition.contiguous(graph.num_vertices, 2)
    refined = kl_refine(graph, start)
    assert refined.cut_weight(graph) <= start.cut_weight(graph) + 1e-9
    assert sorted(refined.block_sizes()) == sorted(start.block_sizes())


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_fm_refinement_respects_balance(graph):
    start = Partition.contiguous(graph.num_vertices, 2)
    refined = fm_refine(graph, start, balance_tolerance=0.2)
    assert refined.cut_weight(graph) <= start.cut_weight(graph) + 1e-9
    max_side = (1.2 * graph.num_vertices / 2.0) + 1e-9
    assert max(refined.block_sizes()) <= max_side
    assert refined.num_vertices == graph.num_vertices


# ---------------------------------------------------------------------------
# entanglement invariants
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.25, max_value=1.0),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=0.1),
)
def test_werner_decay_bounded(initial, elapsed, kappa):
    fidelity = werner_fidelity_after(initial, elapsed, kappa)
    assert 0.25 - 1e-9 <= fidelity <= max(initial, 0.25) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([AttemptPolicy.SYNCHRONOUS, AttemptPolicy.ASYNCHRONOUS]),
    st.floats(min_value=0.0, max_value=120.0),
)
def test_attempt_completion_strictly_after_query(num_pairs, policy, time):
    schedule = AttemptSchedule(num_pairs=num_pairs, policy=policy)
    for pair in range(num_pairs):
        index = schedule.attempt_index_completing_after(pair, time)
        assert schedule.attempt_completion(pair, index) > time
        if index > 0:
            assert schedule.attempt_completion(pair, index - 1) <= time + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 2))
def test_depolarizing_channels_trace_preserving(probability, qubits):
    assert validate_kraus(depolarizing_kraus(probability, qubits))


# ---------------------------------------------------------------------------
# runtime invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=25))
def test_tracker_makespan_at_least_total_of_longest_qubit(durations):
    tracker = DataQubitTracker(3)
    start = 0.0
    for duration in durations:
        start = tracker.occupy((0,), tracker.available_time(0), duration)
    assert tracker.makespan == tracker.available_time(0)
    assert tracker.busy_time(0) == sum(durations) or math.isclose(
        tracker.busy_time(0), sum(durations), rel_tol=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
def test_summarize_bounds(samples):
    stats = summarize(samples)
    assert stats.minimum <= stats.mean <= stats.maximum
    assert stats.std >= 0


# ---------------------------------------------------------------------------
# columnar results / npz shard round-trips
# ---------------------------------------------------------------------------

# Any JSON-encodable text (no surrogates — they cannot reach UTF-8
# shards); NULs and other control characters are deliberately *allowed*
# to exercise the npz string-column fallback.
_axis_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)

_metric_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**6, max_value=10**6).map(float),
)

_param_values = st.one_of(
    _axis_text,
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.booleans(),
    st.none(),
)


@st.composite
def run_records(draw):
    from repro.study.results import RunRecord

    return RunRecord(
        benchmark=draw(_axis_text),
        design=draw(_axis_text),
        seed=draw(st.integers(min_value=-2**40, max_value=2**40)),
        depth=draw(_metric_floats),
        fidelity=draw(_metric_floats),
        num_remote=draw(st.integers(min_value=0, max_value=2**31)),
        mean_remote_wait=draw(_metric_floats),
        mean_link_fidelity=draw(st.one_of(_metric_floats, st.none())),
        epr_generated=draw(st.one_of(_metric_floats,
                                     st.integers(0, 10**6))),
        epr_wasted=draw(_metric_floats),
        params=draw(st.dictionaries(
            st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                    min_size=1, max_size=8),
            _param_values, max_size=3)),
    )


#: Batches cover the empty set, single-run cells, and mixed-type columns.
_record_batches = st.lists(run_records(), min_size=0, max_size=12)


def _canonical_json(records):
    """Reference serialisation: per-record dicts, NaN-safe comparison."""
    return json.dumps([r.to_dict() for r in records])


@settings(max_examples=60, deadline=None)
@given(_record_batches)
def test_npz_chunk_round_trip_is_lossless(records):
    from repro.study.store import decode_chunk, encode_chunk

    rebuilt = decode_chunk(encode_chunk(records, "npz"), "npz")
    assert _canonical_json(rebuilt) == _canonical_json(records)


@settings(max_examples=60, deadline=None)
@given(_record_batches)
def test_jsonl_and_npz_chunks_decode_identically(records):
    from repro.study.store import decode_chunk, encode_chunk

    via_jsonl = decode_chunk(encode_chunk(records, "jsonl"), "jsonl")
    via_npz = decode_chunk(encode_chunk(records, "npz"), "npz")
    assert _canonical_json(via_jsonl) == _canonical_json(via_npz)


@settings(max_examples=60, deadline=None)
@given(_record_batches)
def test_result_set_json_round_trip_is_lossless(records):
    from repro.study import ResultSet

    original = ResultSet(records, metadata={"name": "prop"})
    text = original.to_json()
    assert ResultSet.from_json(text).to_json() == text


@settings(max_examples=40, deadline=None)
@given(_record_batches)
def test_columnar_construction_matches_record_construction(records):
    from repro.study import ResultSet
    from repro.study.results import KEY_FIELDS, METRIC_FIELDS

    direct = ResultSet(records)
    columnar = ResultSet._from_columns(
        {name: [getattr(r, name) for r in records]
         for name in KEY_FIELDS + METRIC_FIELDS},
        [r.params for r in records])
    assert columnar.to_json() == direct.to_json()
    assert _canonical_json(columnar.records) == _canonical_json(records)


# ---------------------------------------------------------------------------
# entanglement service vs a brute-force per-attempt reference
# ---------------------------------------------------------------------------

class _ReferenceSupply:
    """The entanglement service's contract, one attempt at a time.

    Walks every attempt of every pair from
    :meth:`AttemptSchedule.attempt_index_completing_after` (so its grid-hit
    rule applies) and reads outcomes through the public per-pair
    ``attempt_succeeds`` query.  Its buffer is an unordered list of
    ``[created, buffered]`` records searched by brute force: a full buffer
    drops the oldest link, a consumption takes the freshest available
    link, and the cutoff expires links on every store, advance and
    consumption.
    """

    def __init__(self, generator, capacity, cutoff, swap_latency, prefill):
        self.generator = generator
        self.schedule = generator.schedule
        self.capacity = capacity
        self.cutoff = cutoff
        self.swap_latency = swap_latency
        self.records = [[0.0, 0.0] for _ in range(prefill)]
        self.until = 0.0
        self.delivered = set()
        self.generated = 0
        self.direct = 0
        self.wasted = 0

    def _successes(self, pair, start, end):
        attempt = self.schedule.attempt_index_completing_after(pair, start)
        while True:
            completion = self.schedule.attempt_completion(pair, attempt)
            if completion > end + 1e-12:
                return
            if (completion > start + 1e-12
                    and (pair, attempt) not in self.delivered
                    and self.generator.attempt_succeeds(pair, attempt)):
                yield completion, pair, attempt
            attempt += 1

    def _deliver(self, time, pair, attempt):
        self.delivered.add((pair, attempt))
        self.generated += 1

    def _expire(self, time):
        if self.cutoff is None:
            return
        kept = [record for record in self.records
                if not time - record[1] > self.cutoff + 1e-12]
        self.wasted += len(self.records) - len(kept)
        self.records = kept

    def _store(self, created, buffered):
        self._expire(buffered)
        if len(self.records) >= self.capacity:
            self.wasted += 1
            if self.capacity == 0:
                return
            self.records.remove(min(self.records))
        self.records.append([created, buffered])

    def _pop_freshest(self, time):
        self._expire(time)
        available = [record for record in self.records
                     if record[1] <= time + 1e-12]
        if not available:
            return None
        freshest = max(available)
        self.records.remove(freshest)
        return freshest[0]

    def advance_to(self, time):
        if time <= self.until + 1e-12:
            return
        events = sorted(
            event for pair in range(self.schedule.num_pairs)
            for event in self._successes(pair, self.until, time))
        for event in events:
            self._deliver(*event)
            self._store(event[0], event[0] + self.swap_latency)
        self.until = time
        self._expire(time)

    def count_available(self, time):
        self.advance_to(time)
        return sum(1 for record in self.records if record[1] <= time + 1e-12)

    def finalize(self, time):
        self.advance_to(time)
        self.wasted += len(self.records)
        self.records = []

    def acquire(self, after):
        self.advance_to(after)
        created = self._pop_freshest(after)
        if created is not None:
            return after, created
        pending = [record[1] for record in self.records if record[1] > after]
        if pending:
            ready = min(pending)
            return ready, self._pop_freshest(ready)
        start = max(after, self.until)
        # One success per pair at most 200 cycles out is certain enough
        # for psucc >= 0.2 (and deterministic per seed either way).
        best = min(next(self._successes(pair, start, start + 200
                                        * self.schedule.cycle_time))
                   for pair in range(self.schedule.num_pairs))
        self._deliver(*best)
        self.direct += 1
        return max(after, best[0]), best[0]


@st.composite
def supply_scripts(draw):
    """A schedule, a buffer configuration and a timed operation script."""
    policy = draw(st.sampled_from([AttemptPolicy.SYNCHRONOUS,
                                   AttemptPolicy.ASYNCHRONOUS]))
    schedule = AttemptSchedule(
        num_pairs=draw(st.integers(1, 5)),
        cycle_time=draw(st.sampled_from([10.0, 3.7, 0.3])),
        policy=policy, num_groups=draw(st.integers(1, 4)),
        stagger=draw(st.sampled_from([1.0, 0.1, 0.7])))
    config = {
        "psucc": draw(st.sampled_from([0.2, 0.4, 0.9, 1.0])),
        "seed": draw(st.integers(0, 50)),
        "capacity": draw(st.sampled_from([0, 1, 3])),
        "cutoff": draw(st.sampled_from([None, 2.5, 40.0])),
        "swap_latency": draw(st.sampled_from([1.0, 0.3, 3.0])),
    }
    config["prefill"] = draw(st.integers(0, config["capacity"]))
    ops = []
    time = 0.0
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["advance", "acquire", "count"]))
        if draw(st.booleans()):
            # Land on (or just beside) a grid completion ahead of ``time``.
            pair = draw(st.integers(0, schedule.num_pairs - 1))
            attempt = schedule.attempt_index_completing_after(pair, time)
            attempt += draw(st.integers(0, 3))
            offset = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, -1e-10]))
            time = schedule.attempt_completion(pair, attempt) + offset
        else:
            time += draw(st.floats(0.0, 3 * schedule.cycle_time))
        ops.append((kind, time))
    return schedule, config, ops


@settings(max_examples=150, deadline=None)
@given(supply_scripts())
def test_service_matches_per_attempt_reference(script):
    from repro.entanglement import EntanglementGenerator, EntanglementService

    schedule, config, ops = script

    def generator():
        return EntanglementGenerator(schedule, config["psucc"],
                                     seed=config["seed"])

    service = EntanglementService(generator(), config["capacity"], kappa=0.01,
                                  swap_latency=config["swap_latency"],
                                  buffer_cutoff=config["cutoff"],
                                  prefill=config["prefill"])
    reference = _ReferenceSupply(generator(), config["capacity"],
                                 config["cutoff"], config["swap_latency"],
                                 config["prefill"])
    for kind, time in ops:
        if kind == "advance":
            service.advance_to(time)
            reference.advance_to(time)
        elif kind == "count":
            assert service.count_available(time) == \
                reference.count_available(time)
        else:
            assert service.acquire(time) == reference.acquire(time)
    service.finalize(ops[-1][1])
    reference.finalize(ops[-1][1])
    assert service.statistics.generated_total == reference.generated
    assert service.statistics.consumed_direct == reference.direct
    assert service.statistics.wasted_total == reference.wasted


# ---------------------------------------------------------------------------
# merged timeline: growth-order independence
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(schedule=st.builds(
           AttemptSchedule,
           num_pairs=st.integers(1, 5),
           cycle_time=st.sampled_from([10.0, 3.7, 0.3]),
           policy=st.sampled_from([AttemptPolicy.SYNCHRONOUS,
                                   AttemptPolicy.ASYNCHRONOUS]),
           num_groups=st.integers(1, 4),
           stagger=st.sampled_from([1.0, 0.1, 0.7])),
       psucc=st.sampled_from([0.2, 0.4, 0.9, 1.0]),
       seed=st.integers(0, 50),
       cycles=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=8))
def test_timeline_growth_matches_one_shot_and_attempt_scan(schedule, psucc,
                                                           seed, cycles):
    from repro.entanglement import EntanglementGenerator

    grown = EntanglementGenerator(schedule, psucc, seed=seed)
    counts = [(grown.timeline_index(c * schedule.cycle_time),
               c * schedule.cycle_time) for c in cycles]
    grown_entries = list(zip(grown.times, grown.pairs, grown.attempts))

    once = EntanglementGenerator(schedule, psucc, seed=seed)
    once.extend_timeline(grown.horizon)
    assert once.horizon > grown.horizon
    size = len(grown.times)
    assert list(zip(once.times, once.pairs, once.attempts))[:size] == \
        grown_entries
    # Nothing completing within the grown horizon is missing from it.
    assert size == len(once.times) or once.times[size] > grown.horizon

    scan = EntanglementGenerator(schedule, psucc, seed=seed)
    brute = []
    for pair in range(schedule.num_pairs):
        attempt = 0
        while schedule.attempt_completion(pair, attempt) <= grown.horizon:
            if scan.attempt_succeeds(pair, attempt):
                brute.append((schedule.attempt_completion(pair, attempt),
                              pair, attempt))
            attempt += 1
    assert grown_entries == sorted(brute)
    for count, threshold in counts:
        assert count == sum(1 for entry in brute if entry[0] <= threshold)
