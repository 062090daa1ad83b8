"""The reference round: paper Algorithm 1 in loops and dicts, digested stage by stage.

One round, in the order of ``training/trainer.py``:

1. every file's gradient from ``reference_gradient.py`` (one file through a
   plain numpy MLP), compressed per file;
2. the ``(f, r, d)`` cube, each honest copy a copy of its file's row;
3. the Byzantine slots written from the attack's ``payload(context)``
   (the per-slot attacks are written out in :func:`byzantine_rows`);
4. the faults, in injector order, each from its own stream; then each
   message's arrival time and a copy-by-copy collect;
5. the vote of ``reference_vote.py`` over the accepted copies;
6. the robust rule in textbook numpy;
7. the repo's ``SGD`` step.

No ``VoteTensor``, ``RowSelection``, payload store or lane blocking is used.
The scenario's components (data, model, sampler, attack, selector, fault
parameters) are built by ``ScenarioRunner.build_trainer``; the reference
reads them and never calls the trainer's round or the model's gradient
pass.  Each round yields the fields of a ``RoundTrace``, digested here from
their definitions.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.cluster.faults import DropoutInjector, StragglerInjector
from repro.nn.optim import SGD, StepDecaySchedule
from repro.scenarios.runner import ScenarioRunner
from repro.utils.rng import as_generator, derive_seed

from paper_oracles import workers_of_file
from reference_gradient import looped_gradients, mlp_layers, reference_compress
from reference_vote import reference_majority


def _hash(header: bytes, shape, single: bool, *parts) -> str:
    hasher = hashlib.sha256(header + repr(tuple(shape)).encode() + (b"float32" if single else b""))
    for part in parts:
        hasher.update(np.ascontiguousarray(part).tobytes())
    return hasher.hexdigest()[:16]


def plain_digest(array) -> str:
    """Shape, a ``float32`` tag for a float32 array (either byte order),
    then the C-order native bytes; anything else as its float64 copy."""
    array = np.atleast_1d(np.asarray(array))
    single = array.dtype.kind == "f" and array.dtype.itemsize == 4
    return _hash(b"", array.shape, single, array.astype(np.float32 if single else np.float64))


def content_ids(base, cube):
    """The canonical ``(f, r)`` ids and the row of each nonzero id: 0 is
    bit-equal to the file's base row, the other ``tobytes()`` classes are
    numbered 1, 2, ... by first appearance in C order."""
    ids = np.zeros(cube.shape[:2], dtype=np.int64)
    classes: dict[bytes, int] = {}
    rows = []
    for i, k in np.ndindex(*ids.shape):
        key = cube[i, k].tobytes()
        if key != base[i].tobytes():
            if key not in classes:
                classes[key] = len(classes) + 1
                rows.append(cube[i, k])
            ids[i, k] = classes[key]
    return ids, rows


def votes_digest(base, cube) -> str:
    ids, rows = content_ids(base, cube)
    return _hash(b"repro trace v2 votes", cube.shape, cube.dtype == np.float32, ids, base, *rows)


def winners_digest(shape, refs) -> str:
    return _hash(b"repro trace v2 winners", shape, False, np.asarray(refs, dtype=np.int64))


def reference_arrivals(assignment, cost, d, samples, delay):
    """``(f, r)`` arrival times: worker ``w`` computes its files' samples,
    then sends one message per file in file order, each after the one
    before it, all ``delay[w]`` late (``inf``: never)."""
    per_message = d * cost.network_per_float + cost.network_latency_per_message
    arrivals = np.empty((assignment.num_files, assignment.replication))
    for w in range(assignment.num_workers):
        mine = sorted(assignment.files_of_worker(w))
        busy = float(sum(samples[i] for i in mine)) * d * cost.compute_per_sample_per_param
        for position, i in enumerate(mine, start=1):
            slot = workers_of_file(assignment, i).index(w)
            arrivals[i, slot] = busy + position * per_message + delay[w]
    return arrivals


def reference_collect(workers, arrivals, quorum, groups, deadline):
    """The event loop written out copy by copy: the oracle of ``collect``.

    Copies are visited in ``(time, file, slot)`` order.  Group ``g`` of ``G``
    holds the next ``K // G`` workers, plus one for the first ``K % G``
    groups; a (file, group) cell needs ``min(quorum, its copies)`` arrivals.
    Returns ``(accepted, late (file, slot) list, file close times, group
    close times or None, round time)``.
    """
    f, r = workers.shape
    num_workers = int(workers.max()) + 1
    num_groups = 1 if groups is None else groups
    group_of = []
    for g in range(num_groups):
        group_of += [g] * (num_workers // num_groups + (g < num_workers % num_groups))
    cell = {(i, k): (i, group_of[workers[i, k]]) for i in range(f) for k in range(r)}
    need = {}
    for key in cell.values():
        need[key] = need.get(key, 0) + 1
    need = {key: min(r if quorum is None else quorum, n) for key, n in need.items()}
    count = dict.fromkeys(need, 0)
    accepted = np.zeros((f, r), dtype=bool)
    late = []
    group_close = np.full((f, num_groups), np.inf)
    file_close = np.full(f, np.inf)
    last_accept = 0.0
    order = sorted((arrivals[i, k], i, k) for i in range(f) for k in range(r) if np.isfinite(arrivals[i, k]))
    for time, i, k in order:
        key = cell[i, k]
        if time >= deadline or count[key] >= need[key]:
            late.append((i, k))
            continue
        accepted[i, k] = True
        count[key] += 1
        last_accept = time
        if count[key] == need[key]:
            group_close[key] = time
            if all(count[c] >= need[c] for c in need if c[0] == i):
                file_close[i] = time
    if all(count[c] >= need[c] for c in need):
        round_time = float(file_close.max())
    else:
        round_time = deadline if np.isfinite(deadline) else last_accept
    return accepted, late, file_close, None if groups is None else group_close, round_time


def _event(kind, worker, file=-1, delay=0.0, dropped=False, slot=-1) -> dict:
    """A fault event as ``FaultEvent.as_dict`` writes it."""
    event = {"kind": kind, "worker": int(worker), "file": int(file),
             "delay": float(delay).hex(), "dropped": bool(dropped)}
    return event if slot < 0 else {**event, "slot": int(slot)}


def inject_faults(injectors, rngs, cube, workers, num_workers, down):
    """Each injector in turn, on its own stream: ``(events, delay)``, with
    each worker's extra delay (``inf``: its copies never arrive).  Only
    corruption writes the cube; ``down`` holds each crashed worker's
    remaining rounds."""
    events, delay = [], [0.0] * num_workers
    for injector, rng in zip(injectors, rngs):
        if isinstance(injector, StragglerInjector):
            count = min(injector.count, num_workers)
            if count == 0:
                continue
            slow = np.sort(rng.choice(num_workers, size=count, replace=False))
            delays = (np.full(count, injector.delay) if injector.delay_model == "fixed"
                      else rng.exponential(injector.delay, size=count))
            for w, late_by in zip(slow, delays):
                dropped = injector.timeout is not None and late_by >= injector.timeout
                late_by = injector.timeout if dropped else late_by
                events.append(_event("straggler", w, delay=late_by, dropped=dropped))
                delay[w] = np.inf if dropped else max(delay[w], late_by)
        elif isinstance(injector, DropoutInjector):
            draws = rng.random(num_workers)
            for w in range(num_workers):
                if down.get(w, 0) > 0:
                    down[w] -= 1
                elif injector.probability > 0 and draws[w] < injector.probability:
                    down[w] = injector.down_for - 1
                else:
                    continue
                events.append(_event("dropout", w, dropped=True))
                delay[w] = np.inf
        else:  # corruption
            for i, k in zip(*np.nonzero(rng.random(workers.shape) < injector.probability)):
                if injector.mode == "zero":
                    cube[i, k] = 0.0
                elif injector.mode == "scale":
                    cube[i, k] = cube[i, k] * injector.factor
                else:
                    cube[i, k] = rng.standard_normal(cube.shape[2]) * injector.factor + cube[i, k]
                events.append(_event("corruption", workers[i, k], file=i))
    return events, delay


def _krum_pick(rows, q):
    """Index of the Krum choice — the smallest sum of squared distances to
    the ``n - q - 2`` nearest others — and every row's score."""
    n = len(rows)
    scores = []
    for i in range(n):
        distances = sorted(float(np.sum((rows[i] - rows[j]) ** 2)) for j in range(n) if j != i)
        scores.append(sum(distances[: n - q - 2]))
    return int(np.argmin(scores)), scores


def clamped(matrix):
    """What every rule reduces: NaN -> 0, +-inf -> +-1e30."""
    return np.nan_to_num(matrix, nan=0.0, posinf=1e30, neginf=-1e30)


def bulyan_trim(chosen, q):
    """Per coordinate, the mean of the ``theta - 2q`` selected values closest
    to their median, in order of closeness."""
    order = np.argsort(np.abs(chosen - np.median(chosen, axis=0)), axis=0)[: len(chosen) - 2 * q]
    return np.take_along_axis(chosen, order, axis=0).mean(axis=0)


def robust_rule(aggregator, winners):
    """The ``(d,)`` aggregate of the ``(n, d)`` voted rows under ``aggregator``'s rule."""
    w = clamped(winners)
    name, n = aggregator.aggregator_name, len(w)
    if name == "median":
        return np.median(w, axis=0)
    if name == "mean":
        return w.mean(axis=0)
    if name == "trimmed_mean":
        return np.sort(w, axis=0)[aggregator.trim : n - aggregator.trim].mean(axis=0)
    if name == "median_of_means":
        groups = min(aggregator.num_groups, n)
        return np.median(np.stack([w[g::groups].mean(axis=0) for g in range(groups)]), axis=0)
    if name == "signsgd":
        return np.sign(np.sign(w).sum(axis=0))
    q = aggregator.num_byzantine
    if name == "krum":
        return w[_krum_pick(w, q)[0]].copy()
    if name == "multi_krum":
        return w[np.argsort(_krum_pick(w, q)[1])[: max(1, n - q - 2)]].mean(axis=0)
    assert name == "bulyan", name
    remaining, picked = list(range(n)), []
    while len(picked) < n - 2 * q:
        if len(remaining) < 3:
            picked += remaining
            break
        picked.append(remaining.pop(_krum_pick(w[remaining], min(q, (len(remaining) - 3) // 2))[0]))
    return bulyan_trim(w[picked], q)


def byzantine_rows(attack, context, workers, honest, d):
    """``{(file, slot): row}`` of what the attack writes."""
    byz = context.byzantine_workers
    slots = [(i, k) for i, k in np.ndindex(*workers.shape) if workers[i, k] in byz]
    if type(attack).apply_tensor is Attack.apply_tensor:  # one colluding payload
        payload = attack.payload(context)
        return {slot: payload for slot in slots}
    if attack.attack_name == "reversed_gradient":
        return {(i, k): -attack.scale * honest[i] for i, k in slots}
    # The noise attacks draw one row per slot, worker by worker, each
    # worker's files in assignment order.
    order = [(i, list(workers[i]).index(w)) for w in byz for i in context.assignment.files_of_worker(w)]
    if attack.attack_name == "gaussian_noise":
        rows = context.rng.standard_normal((len(order), d)) * attack.sigma
    else:
        rows = context.rng.uniform(-attack.magnitude, attack.magnitude, size=(len(order), d))
    return dict(zip(order, rows))


def reference_rounds(spec):
    """Yield one dict of ``RoundTrace`` fields per round of ``spec``, in the
    order the round computes them."""
    trainer = ScenarioRunner(spec).build_trainer()
    cluster, config, sampler = trainer.cluster, trainer.config, trainer.sampler
    assignment, runtime = cluster.assignment, cluster.runtime
    compressor = cluster.worker_pool.compressor
    layers = mlp_layers(sampler.dataset.flat_feature_dim, spec.data.num_classes, spec.model.hidden)
    workers = np.array([workers_of_file(assignment, i) for i in range(assignment.num_files)])
    f, r = workers.shape
    schedule = StepDecaySchedule(config.learning_rate, config.lr_decay, config.lr_period)
    optimizer = SGD(schedule, momentum=config.momentum)
    params = cluster.worker_pool.gradient_computer.initial_params().ravel().copy()
    down: dict[int, int] = {}
    for t in range(config.num_iterations):
        # 1. per-file gradients at a read-only w_t, and the rows the workers send
        broadcast = params.copy()
        broadcast.setflags(write=False)
        files = sampler.next_batch_files()
        honest, losses = looped_gradients(layers, broadcast, [sampler.batch_data(i) for i in files])
        d = honest.shape[1]
        sent = honest if compressor is None else np.stack(
            [reference_compress(compressor, g) for g in honest]
        )
        # 2. the cube, by copying
        cube = np.empty((f, r, d), dtype=honest.dtype)
        for i, k in np.ndindex(f, r):
            cube[i, k] = sent[i]
        # 3. the adversary
        rng = as_generator(derive_seed(spec.seed, "round", t))
        byzantine = () if cluster.selector is None else tuple(sorted(cluster.selector.select(assignment, t, rng)))
        if byzantine:
            context = AttackContext(assignment, byzantine, honest, t, rng)
            for (i, k), row in byzantine_rows(cluster.attack, context, workers, honest, d).items():
                cube[i, k] = row
        # 4. faults, arrival times and the collect
        rngs = [as_generator(derive_seed(spec.seed, "fault", index, injector.kind, t))
                for index, injector in enumerate(cluster.fault_injectors)]
        events, delay = inject_faults(cluster.fault_injectors, rngs, cube, workers,
                                      assignment.num_workers, down)
        arrivals = reference_arrivals(assignment, runtime.cost_model, d, [len(x) for x in files], delay)
        accepted, late, _, _, round_time = reference_collect(
            workers, arrivals, runtime.quorum, runtime.groups, runtime.deadline
        )
        events += [_event("late", workers[i, k], i, arrivals[i, k], True, k) for i, k in late]
        # 5. the vote
        ids = content_ids(sent, cube)[0]
        refs, rows, counts = [], [], []
        for i in range(f):
            winner, count = reference_majority(cube[i], accepted[i])
            counts.append(count)
            if winner is not None:
                k = next(k for k in range(r) if cube[i, k].tobytes() == winner.tobytes())
                refs.append((i, ids[i, k]))
                rows.append(winner)
        winners = np.stack(rows) if rows else np.zeros((0, d), dtype=cube.dtype)
        # 6. the robust rule, 7. the step
        aggregator = trainer.pipeline.aggregator
        aggregate = robust_rule(aggregator, winners) if rows else np.zeros(d, dtype=cube.dtype)
        params = optimizer.step_vector(params, aggregate)
        yield {
            "iteration": t,
            "mean_loss_hex": float(np.mean(losses)).hex(),
            "q": len(byzantine),
            "byzantine": byzantine,
            "num_distorted": sum(sum(w in byzantine for w in workers[i]) > r // 2 for i in range(f)),
            "votes_digest": votes_digest(sent, cube),
            "faults": tuple(events),
            "round_time_hex": float(round_time).hex(),
            "winners_digest": winners_digest(winners.shape, refs),
            "realised_distorted": tuple(int(i) for i, cid in refs if cid != 0),
            "abstained": tuple(i for i in range(f) if counts[i] == 0),
            "aggregate_digest": plain_digest(aggregate),
            "params_digest": plain_digest(params),
        }
