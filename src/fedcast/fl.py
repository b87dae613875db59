"""Federated orchestration: sampling, local training dispatch, aggregation.

Every client owns a full model. In a round, each sampled client trains a
copy of its own model; the entries that are shared are then averaged over
the updates, weighted by sample count, and written into every client's
model and into the global one, in one merge (`aggregate_fedbn`) where the
global model is one more update of weight 0. The other entries stay local:
each model keeps its own. `RoundConfig` holds the strategy with the rest
of the round settings.

    strategy         aggregate_running_stats  entries that stay local
    FedAvg, FedProx  true (the default)       none
    FedAvg, FedProx  false                    batch-norm running statistics
    FedBN            either                   every batch-norm entry

FedProx is FedAvg plus a proximal term that ties the local training to the
model the client started the round with.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import AnalysisError, EvalPair, constant_truth, mse, r2_score
from .models import LOCKSTEP_ARCHS, ParamSet, TrainingDiverged, init_model, \
    local_train, predict_trace
from .preprocess import Windows, build_windows, filter_trace, fit_scaler, \
    apply_scaler, split_train_test, window_anchors

FEDAVG = "FEDAVG"
FEDPROX = "FEDPROX"
FEDBN = "FEDBN"


class FLError(ValueError):
    pass


@dataclass
class RoundConfig:
    strategy: str = FEDBN
    mu: float = 0.0             # FedProx's proximal weight
    total_rounds: int = 100
    participation_fraction: float = 0.85
    seed: int = 0
    aggregate_running_stats: bool = True

    def __post_init__(self):
        if self.strategy not in (FEDAVG, FEDPROX, FEDBN):
            raise FLError(f"unknown strategy {self.strategy!r}")
        if self.strategy == FEDPROX and self.mu <= 0:
            raise FLError("FEDPROX requires mu > 0")
        if self.strategy != FEDPROX and self.mu != 0:
            raise FLError("mu is only meaningful for FEDPROX")
        if not 0 < self.participation_fraction <= 1:
            raise FLError("participation_fraction must be in (0, 1]")
        if self.total_rounds < 0:
            raise FLError("total_rounds must be >= 0")


@dataclass(eq=False)
class ClientHandle:
    client_id: str
    train: Windows
    test: Windows               # eval windows, stride = eval_stride
    scaler: object              # maps scaled throughput back to Mbps
    params: ParamSet = None

    @property
    def n_samples(self):
        return len(self.train)


@dataclass
class RoundReport:
    round_index: int
    participants: list
    diverged: list
    metrics: dict               # client_id -> (r2, mse)
    mean_r2: float
    var_r2: float

    def rows(self):
        for cid in sorted(self.metrics):
            r2, m = self.metrics[cid]
            yield (self.round_index, cid, r2, m,
                   1 if cid in self.participants else 0)


def build_client(trace, pre_cfg, wc, train_ratio, scaler=None):
    """Filter, scale (fit on the train prefix only) and window one trace."""
    filtered = filter_trace(trace, pre_cfg)
    anchors = window_anchors(filtered, wc, wc.train_stride)
    if len(anchors) < 2:
        raise FLError(f"client {trace.client_id}: too few windows")
    n_train = int(len(anchors) * train_ratio)
    if n_train < 1 or n_train >= len(anchors):
        raise FLError(f"client {trace.client_id}: degenerate split")
    boundary_anchor = anchors[n_train - 1]
    if scaler is None:
        scaler = fit_scaler(filtered, pre_cfg,
                            fit_rows=boundary_anchor + wc.horizon + 1)
    scaled = apply_scaler(filtered, scaler)
    windows = build_windows(scaled, wc, stride=wc.train_stride)
    train, test = split_train_test(windows, train_ratio)
    if wc.eval_stride != wc.train_stride:
        evals = build_windows(scaled, wc, stride=wc.eval_stride)
        test = evals[evals.anchor >= test.anchor[0]] or test
    if len(test) < 2:
        raise FLError(f"client {trace.client_id}: {len(test)} evaluation "
                      f"window(s), R^2 needs at least 2")
    return ClientHandle(client_id=trace.client_id, train=train,
                        test=test, scaler=scaler)


def sample_clients(clients, fraction, rng):
    """The sorted indices of ceil(fraction * K) distinct clients, uniform
    without replacement."""
    if not clients:
        raise FLError("no clients to sample from")
    if not 0 < fraction <= 1:
        raise FLError("fraction must be in (0, 1]")
    k = math.ceil(fraction * len(clients) - 1e-9)
    k = min(max(k, 1), len(clients))
    return sorted(rng.choice(len(clients), size=k, replace=False).tolist())


def aggregate_fedavg(updates):
    """Sample-count-weighted mean of every parameter, BN state included. An
    update of weight 0 takes no part in the sum."""
    if not updates:
        raise FLError("no updates to aggregate")
    first = updates[0][0]
    if not all(first.same_structure(ps) for ps, _ in updates):
        raise FLError("structural mismatch between client parameters")
    total = float(sum(n for _, n in updates))
    if total <= 0:
        raise FLError("total sample count must be positive")
    acc = np.zeros_like(first.flat)
    for ps, n in updates:
        if n:
            acc += (n / total) * ps.flat
    return ParamSet.from_flat(first.layout, acc)


def aggregate_fedbn(updates, local):
    """FedAvg over the shared entries; client-local entries stay with their
    owner.

    `local` lists the indices of the client-local entries. Returns, for each
    update, the FedAvg average with that update's own local entries put
    back; an update of weight 0 takes no part in the average but still
    gets its merged copy.
    """
    averaged = aggregate_fedavg(updates)
    merged = []
    for own, _ in updates:
        out = averaged.copy()
        for i in local:
            out.entries[i][1].data[...] = own.entries[i][1].data
        merged.append(out)
    return merged


def _local_entries(rc, params):
    """Indices of the entries of `params` that stay with their client: every
    batch-norm entry under FedBN, the batch-norm running statistics when
    they are not aggregated, otherwise none."""
    if rc.strategy == FEDBN:
        return [i for i, (_, _, is_bn) in enumerate(params.entries) if is_bn]
    if rc.aggregate_running_stats:
        return []
    return [i for i, (_, t, is_bn) in enumerate(params.entries)
            if is_bn and not t.requires_grad]


def _cohorts(spec, clients, participants):
    """The participants in the cohorts that each train in one `local_train`
    call: under a lockstep architecture, those whose train sets have one
    length together, in participant order; otherwise one by one."""
    if spec.arch not in LOCKSTEP_ARCHS:
        return [[k] for k in participants]
    by_length = {}
    for k in participants:
        by_length.setdefault(clients[k].n_samples, []).append(k)
    return list(by_length.values())


def _test_truth(client):
    """A client's held-out throughput, as its evaluation compares it."""
    return client.scaler.inverse_throughput(client.test.y.ravel())


def evaluate_client(spec, client):
    yhat, _ = predict_trace(spec, client.params, client.test)
    pair = EvalPair(y_true=_test_truth(client),
                    y_pred=client.scaler.inverse_throughput(yhat))
    return r2_score(pair), mse(pair)


def run_round(clients, global_params, rc, tc, spec, round_index=0):
    """One federated round: local training, aggregation, evaluation.

    Each sampled client trains a copy of its own model (under FedProx,
    anchored to that model) with its own rng, in one `local_train` call
    per cohort (`_cohorts`). Every client, and the global model, then takes
    the average of the shared entries over the clients that trained; a
    client that was not sampled or diverged weighs 0 in that average.
    """
    prox = rc.strategy == FEDPROX
    if prox:
        tc = replace(tc, prox_mu=rc.mu)
    rng = np.random.default_rng((rc.seed, 7701, round_index))
    participants = sample_clients(clients, rc.participation_fraction, rng)

    # an overflow in training or evaluation is reported by the finiteness
    # checks that follow it (a diverged member, a failed evaluation), not
    # by numpy's warning
    quiet = dict(over="ignore", invalid="ignore")
    trained = {}
    for cohort in _cohorts(spec, clients, participants):
        members = [clients[k] for k in cohort]
        try:
            with np.errstate(**quiet):
                trained_params, _ = local_train(
                    spec, [c.params.copy() for c in members],
                    [c.train for c in members], tc,
                    global_anchor=[c.params for c in members] if prox
                    else None,
                    rng=[np.random.default_rng((rc.seed, 7702, round_index,
                                                k)) for k in cohort])
        except TrainingDiverged:
            trained_params = [None] * len(cohort)
        trained.update(zip(cohort, trained_params))

    # every client's own model, of weight 0 until it trains
    updates = [(client.params, 0) for client in clients]
    diverged = []
    for k in participants:
        if trained[k] is None:
            diverged.append(clients[k].client_id)
        else:
            updates[k] = (trained[k], clients[k].n_samples)

    if len(diverged) == len(participants):
        raise FLError(f"round {round_index}: every participant diverged")

    # the global model merges as one more update of weight 0
    *per_client, new_global = aggregate_fedbn(
        updates + [(global_params, 0)], _local_entries(rc, global_params))
    for client, params in zip(clients, per_client):
        client.params = params

    metrics = {}
    r2s = []
    for client in clients:
        try:
            with np.errstate(**quiet):
                r2, m = evaluate_client(spec, client)
        except (TrainingDiverged, AnalysisError) as exc:
            raise FLError(f"round {round_index}: client {client.client_id}: "
                          f"evaluation failed: {exc}") from None
        metrics[client.client_id] = (r2, m)
        r2s.append(r2)
    report = RoundReport(round_index=round_index,
                         participants=[clients[k].client_id
                                       for k in participants],
                         diverged=diverged, metrics=metrics,
                         mean_r2=float(np.mean(r2s)),
                         var_r2=float(np.var(r2s)))
    return new_global, report


def run_experiment(clients, rc, tc, spec):
    """rc.total_rounds sequential rounds from a fresh seeded global model."""
    if not clients:
        raise FLError("need at least one client")
    # every round scores each client by R^2 over its test span, which a
    # constant throughput leaves undefined
    for client in clients:
        if constant_truth(_test_truth(client)):
            raise FLError(f"client {client.client_id}: throughput is "
                          f"constant over its test span, R^2 undefined")
    global_params = init_model(spec, seed=(rc.seed, 7700))
    for client in clients:
        client.params = global_params.copy()
    reports = []
    for r in range(rc.total_rounds):
        global_params, report = run_round(clients, global_params, rc, tc,
                                          spec, round_index=r)
        reports.append(report)
    return reports, global_params
