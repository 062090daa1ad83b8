"""The end-to-end benchmark's timing shims must find their attach points.

``benchmarks/e2e/layers.instrument_trainer`` shims public callables of a live
trainer by name.  Renaming or removing one of them would otherwise surface
only when the benchmark gate runs; this test fails tier-1 instead.
"""

import pathlib
import sys

from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioRunner

E2E_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: layers shimmed elsewhere (``patch_round_path`` / ``patch_campaign_path``)
#: or reached only through an observer or the async runtime
NOT_ON_A_SYNCHRONOUS_ITERATION = {
    "cluster.events",
    "scenarios.runner",
    "scenarios.trace",
    "campaigns.executor",
}


def test_instrument_trainer_records_every_synchronous_layer():
    # The benchmark imports its helpers as plain modules off its own directory.
    sys.path.insert(0, str(E2E_DIR))
    try:
        import layers
        from spans import Tracer
    finally:
        sys.path.remove(str(E2E_DIR))

    # ALIE + stragglers + churn + corruption: selector, attack and fault
    # injectors are all present, so every synchronous layer has work to do.
    trainer = ScenarioRunner(get_scenario("mols-alie-all-faults")).build_trainer()
    tracer = Tracer()
    layers.instrument_trainer(tracer, trainer)
    trainer.run_iteration(0)

    recorded = {span[0] for span in tracer.spans}
    expected = set(layers.LAYERS) - NOT_ON_A_SYNCHRONOUS_ITERATION
    assert expected <= recorded, f"no span recorded for {sorted(expected - recorded)}"
    # the per-round counters the shims feed are attached too
    assert tracer.counts["comm.messages"] == trainer.cluster.assignment.num_edges
    assert tracer.counts["core.vote_tensor.overridden_slots"] > 0
