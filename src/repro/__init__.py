"""ByzShield reproduction library.

A from-scratch reproduction of *ByzShield: An Efficient and Robust System for
Distributed Training* (Konstantinidis & Ramamoorthy, MLSys 2021): redundant
task assignment through bipartite expander graphs (MOLS and Ramanujan
bigraphs), majority voting plus robust aggregation at the parameter server,
an omniscient Byzantine adversary, and every substrate needed to run the
paper's evaluation offline (a numpy neural-network library, synthetic
datasets and a simulated PS/worker cluster).

Quick start::

    from repro import MOLSAssignment, max_distortion

    assignment = MOLSAssignment(load=5, replication=3).assignment
    result = max_distortion(assignment, num_byzantine=3)
    print(result.c_max, result.epsilon)   # 3 corrupted files out of 25

See ``examples/`` for end-to-end training under attack and ``benchmarks/``
for the scripts regenerating every table and figure of the paper.
"""

from repro.aggregation import (
    Aggregator,
    BulyanAggregator,
    CoordinateWiseMedian,
    GeometricMedianAggregator,
    KrumAggregator,
    MeanAggregator,
    MedianOfMeansAggregator,
    MultiKrumAggregator,
    SignSGDMajorityAggregator,
    TrimmedMeanAggregator,
)
from repro.assignment import (
    AssignmentScheme,
    BaselineAssignment,
    FRCAssignment,
    MOLSAssignment,
    RamanujanAssignment,
    RandomAssignment,
)
from repro.attacks import (
    ALIEAttack,
    Attack,
    ConstantAttack,
    OmniscientSelector,
    ReversedGradientAttack,
)
from repro.core import (
    ByzShieldPipeline,
    DetoxPipeline,
    DracoPipeline,
    DistortionResult,
    VanillaPipeline,
    VoteTensor,
    max_distortion,
    distortion_comparison_table,
)
from repro.data import Dataset, make_gaussian_mixture, make_synthetic_images
from repro.graphs import BipartiteAssignment, second_eigenvalue
from repro.nn import SGD, Sequential, build_mlp
from repro.training import DistributedTrainer, TrainingConfig, TrainingHistory

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # assignment schemes
    "AssignmentScheme",
    "MOLSAssignment",
    "RamanujanAssignment",
    "FRCAssignment",
    "BaselineAssignment",
    "RandomAssignment",
    # graphs
    "BipartiteAssignment",
    "second_eigenvalue",
    # aggregation
    "Aggregator",
    "MeanAggregator",
    "CoordinateWiseMedian",
    "TrimmedMeanAggregator",
    "MedianOfMeansAggregator",
    "KrumAggregator",
    "MultiKrumAggregator",
    "BulyanAggregator",
    "GeometricMedianAggregator",
    "SignSGDMajorityAggregator",
    # attacks
    "Attack",
    "ALIEAttack",
    "ConstantAttack",
    "ReversedGradientAttack",
    "OmniscientSelector",
    # core
    "ByzShieldPipeline",
    "DetoxPipeline",
    "DracoPipeline",
    "VanillaPipeline",
    "VoteTensor",
    "DistortionResult",
    "max_distortion",
    "distortion_comparison_table",
    # data
    "Dataset",
    "make_synthetic_images",
    "make_gaussian_mixture",
    # nn
    "Sequential",
    "build_mlp",
    "SGD",
    # training
    "TrainingConfig",
    "TrainingHistory",
    "DistributedTrainer",
]
