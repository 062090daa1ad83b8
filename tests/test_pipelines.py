"""Tests for the one aggregation pipeline (paper Algorithm 1).

ByzShield, DETOX, DRACO and the baseline are :class:`AggregationPipeline`
over their assignments (expander, FRC, FRC with the mean, ``r = 1``); a
spec's ``pipeline.kind`` only picks the runner's build checks, tested here
through specs.
"""

import numpy as np
import pytest

from repro.aggregation.mean import MeanAggregator
from repro.aggregation.median import CoordinateWiseMedian
from repro.assignment.frc import FRCAssignment
from repro.assignment.mols import MOLSAssignment
from repro.core.pipelines import AggregationPipeline
from repro.core.vote_tensor import VoteTensor
from repro.exceptions import AggregationError, ConfigurationError
from repro.graphs.bipartite import BipartiteAssignment
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import PipelineSpec, ScenarioSpec

from cow_helpers import cube_of


DIM = 4


def honest_votes(assignment, gradient_of_file):
    """The round where every worker returns the true file gradient."""
    return VoteTensor.from_honest(
        assignment,
        np.vstack([gradient_of_file(i) for i in range(assignment.num_files)]),
    )


def constant_gradient(value):
    return lambda i: np.full(DIM, float(value))


def indexed_gradient(i):
    return np.full(DIM, float(i))


def corrupt(tensor, byzantine_workers, payload):
    """Replace the returns of the Byzantine workers by ``payload``."""
    tensor.mark_byzantine(byzantine_workers)
    files, slots = np.nonzero(tensor.byzantine_mask)
    tensor.write_slots(files, slots, payload)
    return tensor


# --------------------------------------------------------------------------- #
# Vote + robust rule over an expander (ByzShield)
# --------------------------------------------------------------------------- #
def test_vote_corrects_minority_corruption(mols_assignment):
    """With q < r' no file majority can be corrupted: output is attack-free."""
    votes = honest_votes(mols_assignment, constant_gradient(1.0))
    corrupt(votes, {0}, np.full(DIM, -100.0))
    result = AggregationPipeline(mols_assignment).aggregate_tensor(votes).aggregate
    assert np.allclose(result, 1.0)


def test_vote_majority_flips_with_enough_byzantines(mols_assignment):
    """Workers 0 and 5 share file 0; corrupting both flips that file's vote."""
    votes = honest_votes(mols_assignment, constant_gradient(1.0))
    corrupt(votes, {0, 5}, np.full(DIM, -100.0))
    outcome = AggregationPipeline(mols_assignment).aggregate_tensor(votes)
    assert np.allclose(outcome.winners.densified()[0], -100.0)
    # But the median across the 25 files still resists a single corrupted file.
    assert np.allclose(outcome.aggregate, 1.0)


def two_groups_of_two():
    """An FRC-like graph with even groups (FRCAssignment itself rejects even r)."""
    H = np.zeros((4, 2), dtype=np.int8)
    H[[0, 1], 0] = 1
    H[[2, 3], 1] = 1
    return BipartiteAssignment(H)


def test_even_replication_votes_by_strict_majority():
    """The pipeline votes any r by r' = r // 2 + 1 (scenarios refuse an even
    r at build): a file whose two copies split 1-1 abstains."""
    votes = corrupt(honest_votes(two_groups_of_two(), indexed_gradient), {0}, np.full(DIM, -9.0))
    outcome = AggregationPipeline(two_groups_of_two(), MeanAggregator()).aggregate_tensor(votes)
    assert outcome.counts.tolist() == [0, 2]
    assert np.array_equal(outcome.aggregate, indexed_gradient(1))


def test_even_mols_replication_abstains_on_a_two_two_split():
    """At r = 4 the vote needs r' = 3 matching copies: the one file that two
    Byzantines of different parallel classes share splits 2-2 and abstains,
    while a file with a single Byzantine copy is still decided."""
    assignment = MOLSAssignment(load=5, replication=4).assignment
    (shared,) = set(assignment.files_of_worker(0)) & set(assignment.files_of_worker(5))
    votes = corrupt(honest_votes(assignment, indexed_gradient), {0, 5}, np.full(DIM, -9.0))
    outcome = AggregationPipeline(assignment, MeanAggregator()).aggregate_tensor(votes)
    assert outcome.counts[shared] == 0
    assert np.all(np.delete(outcome.counts, shared) >= 3)
    decided = [i for i in range(assignment.num_files) if i != shared]
    assert np.allclose(outcome.aggregate, np.mean(decided))


def test_validates_votes(mols_assignment, ramanujan_case1):
    votes = honest_votes(mols_assignment, constant_gradient(1.0))
    pipeline = AggregationPipeline(mols_assignment)
    # another (f, r) shape: five files, not 25
    short = honest_votes(FRCAssignment(num_workers=15, replication=3).assignment, constant_gradient(1.0))
    with pytest.raises(AggregationError):
        pipeline.aggregate_tensor(short)
    # same (f, r) shape, but the copies come from workers the assignment
    # did not give the files to
    other = honest_votes(ramanujan_case1.assignment, constant_gradient(1.0))
    assert other.workers.shape == votes.workers.shape
    with pytest.raises(AggregationError):
        pipeline.aggregate_tensor(other)


def test_the_aggregator_is_looked_up_every_round(mols_assignment):
    """The e2e harness swaps ``pipeline.aggregator`` for a timing shim on
    the instance: the next round must call the replacement."""
    votes = honest_votes(mols_assignment, indexed_gradient)
    pipeline = AggregationPipeline(mols_assignment)
    assert isinstance(pipeline.aggregator, CoordinateWiseMedian)  # the default
    seen = []
    pipeline.aggregator = lambda winners: seen.append(winners.shape) or np.zeros(DIM)
    assert np.array_equal(pipeline.aggregate_tensor(votes).aggregate, np.zeros(DIM))
    assert seen == [(25, DIM)]


# --------------------------------------------------------------------------- #
# Over an FRC assignment (DETOX, DRACO)
# --------------------------------------------------------------------------- #
def test_frc_group_corruption(frc_15_3):
    assignment = frc_15_3.assignment
    votes = honest_votes(assignment, constant_gradient(1.0))
    # Corrupt 2 of the 3 workers of group 0: its vote flips.
    corrupt(votes, {0, 1}, np.full(DIM, -50.0))
    pipeline = AggregationPipeline(assignment, aggregator=CoordinateWiseMedian())
    result = pipeline.aggregate_tensor(votes).aggregate
    # Median over [−50, 1, 1, 1, 1] is still 1.
    assert np.allclose(result, 1.0)


def test_frc_blockwise_vote_matches_monolithic(frc_15_3):
    assignment = frc_15_3.assignment
    votes = corrupt(honest_votes(assignment, indexed_gradient), {2, 6}, np.full(DIM, -7.0))
    mono = AggregationPipeline(assignment).aggregate_tensor(votes).aggregate
    blk = AggregationPipeline(assignment, block_size=1).aggregate_tensor(votes).aggregate
    assert np.array_equal(blk, mono)


def test_frc_mean_recovers_exactly_when_bound_satisfied(frc_15_3):
    """DRACO: q = 1, r = 3 >= 2q + 1, so the mean of the group winners is
    the attack-free mean."""
    assignment = frc_15_3.assignment
    votes = honest_votes(assignment, indexed_gradient)
    corrupt(votes, {0}, np.full(DIM, 1e6))
    pipeline = AggregationPipeline(assignment, MeanAggregator())
    result = pipeline.aggregate_tensor(votes).aggregate
    assert np.allclose(result, np.mean(np.arange(5)))


# --------------------------------------------------------------------------- #
# r = 1 (the baseline)
# --------------------------------------------------------------------------- #
def test_r1_mean_is_vulnerable(baseline_10):
    assignment = baseline_10.assignment
    votes = honest_votes(assignment, constant_gradient(1.0))
    corrupt(votes, {0}, np.full(DIM, 1e6))
    pipeline = AggregationPipeline(assignment, aggregator=MeanAggregator())
    result = pipeline.aggregate_tensor(votes).aggregate
    assert result[0] > 1e3


# --------------------------------------------------------------------------- #
# The kind picks the build checks, from the spec
# --------------------------------------------------------------------------- #
MOLS_CLUSTER = {"scheme": "mols", "params": {"load": 5, "replication": 3}}


def edited(name, **sections):
    """The catalog scenario ``name`` with keys of its sections replaced."""
    data = get_scenario(name).to_dict()
    for section, edit in sections.items():
        data[section] = {**data.get(section, {}), **edit}
    return ScenarioSpec.from_dict(data)


def without_topology(name):
    data = get_scenario(name).to_dict()
    del data["topology"]
    return ScenarioSpec.from_dict(data)


def draco_against(q):
    data = get_scenario("draco-constant-q1").to_dict()
    data["attack"]["schedule"]["q"] = q
    return ScenarioSpec.from_dict(data)


#: spec -> the one refusal it builds to
REFUSED = {
    "detox-on-mols": (
        lambda: edited("detox-mom-alie", cluster=MOLS_CLUSTER),
        "scenario.cluster: the 'detox' pipeline needs an FRC assignment (one file "
        "per worker), got load=5",
    ),
    "draco-on-mols": (
        lambda: edited("draco-constant-q1", cluster=MOLS_CLUSTER),
        "scenario.cluster: the 'draco' pipeline needs an FRC assignment (one file "
        "per worker), got load=5",
    ),
    "draco-bound": (
        lambda: draco_against(2),
        "scenario.attack: DRACO requires r >= 2q+1, but r=3 and the schedule reaches q=2",
    ),
    "vanilla-on-mols": (
        lambda: edited("vanilla-median-alie", cluster=MOLS_CLUSTER),
        "scenario.cluster: the 'vanilla' pipeline needs the baseline assignment "
        "with l = r = 1, got l=5, r=3",
    ),
    "even-r": (
        lambda: edited("mols-clean", cluster={"params": {"load": 5, "replication": 4}}),
        "scenario.cluster: majority voting requires an odd replication factor "
        "(or r = 1), got r=4",
    ),
    "vanilla-block-size": (
        lambda: edited("vanilla-median-alie", pipeline={"block_size": 8}),
        "scenario.pipeline.block_size: the vanilla pipeline (r = 1) has no vote "
        "kernel to stream",
    ),
    "aggregator-block-size": (
        lambda: edited(
            "vanilla-fang-krum",
            pipeline={"aggregator_params": {"num_byzantine": 2, "block_size": 64}},
        ),
        "scenario.pipeline.aggregator_params: bad parameters for aggregator 'krum': "
        "KrumAggregator.__init__() got an unexpected keyword argument 'block_size'",
    ),
    "quorum-above-r": (
        lambda: edited("mols-async-quorum", runtime={"quorum": 4}),
        "scenario.runtime.quorum: runtime quorum 4 exceeds the assignment's "
        "replication r=3: no file could close",
    ),
    "quorum-below-r-prime": (
        lambda: without_topology("ramanujan-hier-async-group-quorum"),
        "scenario.runtime.quorum: runtime quorum 2 is below the r'=3 matching "
        "copies the vote needs: no file could be decided",
    ),
    "groups-above-K": (
        lambda: edited("ramanujan-hier-async-group-quorum", topology={"groups": 26}),
        "scenario.topology.groups: runtime groups 26 exceed the assignment's K=25 workers",
    ),
    "batch-indivisible": (
        lambda: edited("mols-clean", training={"batch_size": 76}),
        "scenario.training.batch_size: batch_size=76 must be divisible by the "
        "number of files f=25",
    ),
    "batch-above-train": (
        lambda: edited("mols-clean", data={"num_train": 50}),
        "scenario.training.batch_size: batch_size=75 exceeds the 50 training samples",
    ),
    "partition-above-train": (
        lambda: edited("mols-alie-dirichlet03", data={"num_train": 20}),
        "scenario.data.partition: 20 training samples cannot give each of f=25 shards "
        "a sample",
    ),
    "q-above-K": (
        lambda: edited("mols-alie-omniscient", attack={"schedule": {"q": 16}}),
        "scenario.attack.schedule: the schedule reaches q=16, above the K=15 workers",
    ),
    "ramping-without-q-end": (
        lambda: edited("mols-alie-omniscient", attack={"schedule": {"kind": "ramping", "q": 2}}),
        "scenario.attack.schedule: ramping schedule requires q_end",
    ),
    "topology-sync": (
        lambda: edited("ramanujan-alie-omniscient", topology={"groups": 5}),
        "scenario.topology requires an event-driven runtime (set runtime.deadline "
        "and/or runtime.quorum)",
    ),
    "topology-vanilla": (
        lambda: edited("vanilla-async-deadline-partial", topology={"groups": 2}),
        "scenario.topology requires a voting pipeline (byzshield, detox or "
        "draco); the vanilla pipeline has one copy per file",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_spec_the_kind_cannot_run_is_refused_at_build(case, monkeypatch):
    """Each refusal is ``check()``'s, raised before any data is built."""
    def no_data(self):
        raise AssertionError("the data was built before the spec was refused")

    monkeypatch.setattr(ScenarioRunner, "_build_datasets", no_data)
    build, message = REFUSED[case]
    with pytest.raises(ConfigurationError) as excinfo:
        ScenarioRunner(build()).build_trainer()
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "name, sections, where, component",
    [
        ("mols-alie-omniscient", {"attack": {"params": {"negative_direction": False}}},
         "attack", "alie"),
        ("mols-noise-dropout", {"attack": {"params": {"around_true_gradient": True}}},
         "attack", "gaussian_noise"),
        ("mols-fang-median", {"attack": {"params": {"lambda_init": 1.0}}}, "attack", "fang"),
        ("mols-fang-median", {"attack": {"params": {"num_steps": 30}}}, "attack", "fang"),
        ("mols-fang-median", {"attack": {"params": {"rtol": 1e-5}}}, "attack", "fang"),
        ("mols-minmax-unit", {"attack": {"params": {"gamma_init": 10.0}}}, "attack", "min_max"),
        ("ramanujan-minsum-std", {"attack": {"params": {"num_steps": 30}}}, "attack", "min_sum"),
        ("ramanujan-uniform-signsgd", {"pipeline": {"aggregator_params": {"scale": 1.0}}},
         "aggregator", "signsgd"),
        ("vanilla-multikrum-revgrad-dropout",
         {"pipeline": {"aggregator_params": {"num_byzantine": 2, "multi_k": 3}}},
         "aggregator", "multi_krum"),
        ("mols-clean",
         {"pipeline": {"aggregator": "geometric_median",
                       "aggregator_params": {"max_iterations": 100}}},
         "aggregator", "geometric_median"),
        ("mols-clean",
         {"pipeline": {"aggregator": "geometric_median", "aggregator_params": {"tolerance": 1e-8}}},
         "aggregator", "geometric_median"),
        ("mols-clean",
         {"cluster": {"scheme": "random", "params": {"num_workers": 15, "num_files": 25,
                                                     "replication": 3, "max_attempts": 5}}},
         "scheme", "random"),
    ],
    ids=["alie-negative_direction", "noise-around_true_gradient", "fang-lambda_init",
         "fang-num_steps", "fang-rtol", "min_max-gamma_init", "min_sum-num_steps",
         "signsgd-scale", "multi_krum-multi_k", "geometric_median-max_iterations",
         "geometric_median-tolerance", "random-max_attempts"],
)
def test_a_removed_component_parameter_is_refused_at_its_section(
    name, sections, where, component, monkeypatch
):
    """A parameter that became its component's constant is refused by
    ``check()`` under its section's ``params`` path, before any data is
    built: a spec that still sets it does not run on the constant silently."""
    def no_data(self):
        raise AssertionError("the data was built before the spec was refused")

    monkeypatch.setattr(ScenarioRunner, "_build_datasets", no_data)
    path = {"attack": "attack.params", "aggregator": "pipeline.aggregator_params",
            "scheme": "cluster.params"}[where]
    with pytest.raises(ConfigurationError) as excinfo:
        ScenarioRunner(edited(name, **sections)).build_trainer()
    assert str(excinfo.value).startswith(
        f"scenario.{path}: bad parameters for {where} {component!r}: "
    )


def test_a_vote_block_size_is_a_spec_field_of_every_kind():
    """The spec section checks only its own value; the vanilla refusal is
    ``check()``'s (``REFUSED["vanilla-block-size"]``)."""
    assert PipelineSpec(kind="vanilla", block_size=8).block_size == 8
    assert PipelineSpec(kind="byzshield", block_size=8).block_size == 8
    with pytest.raises(ConfigurationError, match="block_size must be a positive integer"):
        PipelineSpec(kind="byzshield", block_size=0)


def round_traces(spec):
    return [round_.to_dict() for round_ in run_scenario(spec).trace.rounds]


def test_detox_is_byzshield_over_the_frc_cluster():
    """Same aggregator, same FRC cluster: the kind changes nothing a round
    computes (every digest of every round, the aggregate's included)."""
    detox = get_scenario("detox-mom-alie")
    byzshield = edited("detox-mom-alie", pipeline={"kind": "byzshield"})
    assert detox.cluster.scheme == "frc" and detox.pipeline.aggregator == "median_of_means"
    assert round_traces(detox) == round_traces(byzshield)


@pytest.mark.parametrize("named", ["median", "signsgd"])
def test_draco_is_byzshield_with_the_mean_whatever_it_names(named):
    """DRACO ignores the spec's aggregator and averages the group winners."""
    draco = edited("draco-constant-q1", pipeline={"aggregator": named})
    mean = edited("draco-constant-q1", pipeline={"kind": "byzshield", "aggregator": "mean"})
    named_rule = edited("draco-constant-q1", pipeline={"kind": "byzshield", "aggregator": named})
    rounds = round_traces(draco)
    assert rounds == round_traces(mean)
    assert [r["aggregate_digest"] for r in rounds] != [
        r["aggregate_digest"] for r in round_traces(named_rule)
    ]


# --------------------------------------------------------------------------- #
# RoundOutcome: both halves of the round's one vote (the reference round
# checks every golden round's winners and aggregate, test_reference_round.py)
# --------------------------------------------------------------------------- #
OUTCOME_PIPELINES = {
    "byzshield": ("mols_5_3", CoordinateWiseMedian),
    "detox": ("frc_15_3", CoordinateWiseMedian),
    "draco": ("frc_15_3", MeanAggregator),
    "vanilla": ("baseline_10", MeanAggregator),
}


@pytest.mark.parametrize("kind", sorted(OUTCOME_PIPELINES))
def test_a_file_with_no_accepted_copy_abstains_in_every_pipeline(request, kind):
    """The file's copies carry a payload that would win it, but none was
    accepted: no pipeline gives the file a row, and a round with no
    accepted copy at all is a zero update."""
    scheme_fixture, rule = OUTCOME_PIPELINES[kind]
    assignment = request.getfixturevalue(scheme_fixture).assignment
    pipeline = AggregationPipeline(assignment, rule())
    votes = honest_votes(assignment, indexed_gradient)
    votes.write_slots([1] * votes.replication, range(votes.replication), np.full(DIM, -7.0))
    arrived = np.ones(votes.workers.shape, dtype=bool)
    arrived[1] = False

    outcome = pipeline.aggregate_tensor(votes, arrived)
    kept = [i for i in range(assignment.num_files) if i != 1]
    assert outcome.winner_refs[:, 0].tolist() == kept
    assert outcome.winners.densified().tobytes() == cube_of(votes)[kept, 0].tobytes()
    assert np.array_equal(outcome.aggregate, pipeline.aggregator(cube_of(votes)[kept, 0]))

    nothing = pipeline.aggregate_tensor(votes, np.zeros(votes.workers.shape, dtype=bool))
    assert nothing.winners.shape == (0, DIM) and nothing.winner_refs.shape == (0, 2)
    assert nothing.aggregate.dtype == votes.dtype
    assert np.array_equal(nothing.aggregate, np.zeros(DIM))
