"""Learned guidance: formula features, a linear evaluator, and training.

The evaluator contract needed by the search (a value estimate plus move
priors) is filled here by a linear model over renaming-invariant global
features of a formula, squashed into [0, 1].  Parameters persist as a
versioned JSON document written atomically; quality data from searches
accumulates in an append-only record log and is merged before training.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import islice
from typing import Callable, Iterable, Sequence

from .sat import Formula
from .search import QualityData

PARAMS_VERSION = 1
DEFAULT_EPOCHS = 20
DEFAULT_LEARNING_RATE = 0.05
# A trained solve fits its own records plus at most this many of the newest
# history records, half value and half distribution records, so its cost
# does not grow with the history (AlphaZero's window of recent self-play
# games).  ``reducto train`` still fits the whole log.
REPLAY_WINDOW = 512

# Squashing scales for unbounded counts: n is mapped to n / (n + scale).
_VAR_SCALE = 16.0
_CLAUSE_SCALE = 32.0
_LEN_SCALE = 4.0
_RATIO_SCALE = 4.0

FEATURE_NAMES = (
    "var_count",
    "clause_count",
    "mean_clause_len",
    "min_clause_len",
    "max_clause_len",
    "frac_all_negative",
    "frac_pure_literals",
    "frac_binary_clauses",
    "frac_positive_occurrences",
    "clause_var_ratio",
)


class ParamVersionError(ValueError):
    """Parameter document version or feature layout is not usable."""


class TrainDivergedError(RuntimeError):
    """Training hit a non-finite loss; parameters were left unchanged."""


def _squash(n: float, scale: float) -> float:
    return n / (n + scale)


def featurize(phi: Formula) -> tuple[float, ...]:
    """Fixed-length feature vector of a formula, every component in [0, 1]."""
    cls = phi.clauses
    m = len(cls)
    n = len(phi.variables)
    lens = [len(c) for c in cls]
    total_lits = sum(lens)
    occurring = {l for c in cls for l in c}
    pure = sum(1 for l in occurring if -l not in occurring)
    return (
        _squash(n, _VAR_SCALE),
        _squash(m, _CLAUSE_SCALE),
        _squash(total_lits / m if m else 0.0, _LEN_SCALE),
        _squash(min(lens) if lens else 0, _LEN_SCALE),
        _squash(max(lens) if lens else 0, _LEN_SCALE),
        sum(1 for c in cls if c and all(l < 0 for l in c)) / m if m else 0.0,
        pure / len(occurring) if occurring else 0.0,
        sum(1 for c in cls if len(c) == 2) / m if m else 0.0,
        sum(1 for c in cls for l in c if l > 0) / total_lits if total_lits else 0.0,
        _squash(m / max(n, 1), _RATIO_SCALE),
    )


@dataclass
class ParamStore:
    """Persisted model parameters: one value head and one prior head per reduction.

    Weight vectors carry the bias as their last component.
    """

    version: int = PARAMS_VERSION
    feature_spec: tuple[str, ...] = FEATURE_NAMES
    value_weights: list[float] = field(default_factory=lambda: [0.0] * (len(FEATURE_NAMES) + 1))
    prior_weights: dict[str, list[float]] = field(default_factory=dict)
    examples_seen: int = 0
    last_loss: float | None = None

    def copy(self) -> "ParamStore":
        return ParamStore(
            version=self.version,
            feature_spec=tuple(self.feature_spec),
            value_weights=list(self.value_weights),
            prior_weights={k: list(v) for k, v in self.prior_weights.items()},
            examples_seen=self.examples_seen,
            last_loss=self.last_loss,
        )

    @property
    def dim(self) -> int:
        return len(self.feature_spec)


def init_params() -> ParamStore:
    """Fresh parameters: all weights zero, so value is 0.5 and priors are uniform."""
    return ParamStore()


def _params_payload(theta: ParamStore) -> dict:
    return {
        "version": theta.version,
        "feature_spec": list(theta.feature_spec),
        "value_weights": list(theta.value_weights),
        "prior_weights": {k: list(v) for k, v in sorted(theta.prior_weights.items())},
        "training_stats": {
            "examples_seen": theta.examples_seen,
            "last_loss": theta.last_loss,
        },
    }


def params_text(theta: ParamStore) -> str:
    return json.dumps(_params_payload(theta), sort_keys=True, separators=(",", ":")) + "\n"


def params_digest(theta: ParamStore) -> str:
    return blake2b(params_text(theta).encode(), digest_size=16).hexdigest()


def parse_params(text: str) -> ParamStore:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamVersionError(f"unreadable parameter document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != PARAMS_VERSION:
        raise ParamVersionError(f"unsupported parameter version {doc.get('version')!r}")
    spec = tuple(doc["feature_spec"])
    value_weights = [float(w) for w in doc["value_weights"]]
    if len(value_weights) != len(spec) + 1:
        raise ParamVersionError("value weight length does not match the feature spec")
    prior_weights = {}
    for rid, ws in doc["prior_weights"].items():
        ws = [float(w) for w in ws]
        if len(ws) != len(spec) + 1:
            raise ParamVersionError(f"prior weight length mismatch for {rid!r}")
        prior_weights[rid] = ws
    stats = doc.get("training_stats", {})
    return ParamStore(
        version=PARAMS_VERSION,
        feature_spec=spec,
        value_weights=value_weights,
        prior_weights=prior_weights,
        examples_seen=int(stats.get("examples_seen", 0)),
        last_loss=stats.get("last_loss"),
    )


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".params-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_params(theta: ParamStore, path: str) -> None:
    """Write parameters atomically (temp file then rename)."""
    _atomic_write(path, params_text(theta))


def load_params(path: str) -> ParamStore:
    with open(path) as handle:
        return parse_params(handle.read())


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _dot(weights: list[float], features: tuple[float, ...]) -> float:
    # Bias is the last weight.
    z = weights[-1]
    for w, f in zip(weights, features):
        z += w * f
    return z


def _softmax(logits: list[float]) -> list[float]:
    top = max(logits)
    exps = [math.exp(z - top) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


class LinearEvaluator:
    """Evaluator over formula features backed by a ParamStore.

    Zero weights give value 0.5 and uniform priors; unknown reduction ids fall
    back to uniform priors.  Read-only over the parameters, so one instance
    can serve concurrent searches.
    """

    def __init__(self, params: ParamStore):
        if len(params.value_weights) != params.dim + 1:
            raise ParamVersionError("value weight length does not match the feature spec")
        self.params = params
        self._features: dict[Formula, tuple[float, ...]] = {}

    def features(self, phi: Formula) -> tuple[float, ...]:
        """``featurize(phi)``, computed once per formula for this evaluator."""
        f = self._features.get(phi)
        if f is None:
            f = featurize(phi)
            if len(f) != self.params.dim:
                raise ParamVersionError("feature dimension does not match the parameters")
            self._features[phi] = f
        return f

    def value(self, phi: Formula) -> float:
        return _sigmoid(_dot(self.params.value_weights, self.features(phi)))

    def priors(self, phi: Formula, reduction_id: str, moves: list[Formula]) -> list[float]:
        if not moves:
            return []
        weights = self.params.prior_weights.get(reduction_id)
        if weights is None:
            return [1.0 / len(moves)] * len(moves)
        return _softmax([_dot(weights, self.features(m)) for m in moves])


# ---------------------------------------------------------------------------
# Quality-data store and merging
# ---------------------------------------------------------------------------


@dataclass
class ValueRecord:
    digest: str
    n_vars: int
    features: tuple[float, ...]
    value: float
    visits: int


@dataclass
class MoveStat:
    digest: str
    features: tuple[float, ...]
    count: int


@dataclass
class DistRecord:
    digest: str
    reduction: str
    n_vars: int
    moves: dict[str, MoveStat]


@dataclass
class DeltaStore:
    """Accumulated quality data across runs, keyed by instance digest."""

    values: dict[str, ValueRecord] = field(default_factory=dict)
    dists: dict[tuple[str, str], DistRecord] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.values and not self.dists

    @property
    def record_count(self) -> int:
        return len(self.values) + len(self.dists)

    def canonical_text(self) -> str:
        payload = {
            "values": sorted(
                [r.digest, r.n_vars, list(r.features), r.value, r.visits]
                for r in self.values.values()
            ),
            "dists": sorted(
                [
                    r.digest,
                    r.reduction,
                    r.n_vars,
                    sorted([m.digest, list(m.features), m.count] for m in r.moves.values()),
                ]
                for r in self.dists.values()
            ),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _merge_record(store: DeltaStore, rec: ValueRecord | DistRecord) -> None:
    """Add one record to ``store``, combining it with a record of the same key."""
    if isinstance(rec, ValueRecord):
        old = store.values.get(rec.digest)
        if old is None:
            store.values[rec.digest] = rec
            return
        visits = old.visits + rec.visits
        value = (old.value * old.visits + rec.value * rec.visits) / visits
        store.values[rec.digest] = ValueRecord(rec.digest, rec.n_vars, rec.features, value, visits)
        return
    key = (rec.digest, rec.reduction)
    old = store.dists.get(key)
    if old is None:
        store.dists[key] = rec
        return
    moves = dict(old.moves)
    for d, stat in rec.moves.items():
        prev = moves.get(d)
        if prev is None:
            moves[d] = stat
        else:
            moves[d] = MoveStat(d, stat.features, prev.count + stat.count)
    store.dists[key] = DistRecord(rec.digest, rec.reduction, rec.n_vars, moves)


def quality_records(
    delta: QualityData, features: Callable[[Formula], tuple[float, ...]] | None = None
) -> list[ValueRecord | DistRecord]:
    """One search's quality data as records: value records, then distributions.

    ``features`` maps a formula to its feature vector; pass the search
    evaluator's ``LinearEvaluator.features`` to reuse the vectors it already
    computed.  By default each distinct formula is featurized once per call.
    """
    if features is None:
        cache: dict[Formula, tuple[float, ...]] = {}

        def features(phi: Formula) -> tuple[float, ...]:
            f = cache.get(phi)
            if f is None:
                f = cache[phi] = featurize(phi)
            return f

    records: list[ValueRecord | DistRecord] = [
        ValueRecord(inst.digest, len(inst.variables), features(inst), value, visits)
        for inst, (value, visits) in delta.values.items()
    ]
    for (inst, rid), dist in delta.distributions.items():
        moves = {m.digest: MoveStat(m.digest, features(m), count) for m, count in dist.items()}
        records.append(DistRecord(inst.digest, rid, len(inst.variables), moves))
    return records


def merge_quality(store: DeltaStore, delta: QualityData) -> DeltaStore:
    """Merge one search's quality data into ``store`` (mutates and returns it).

    Matching value records combine as visit-weighted means; matching
    distributions sum their visit counts.  Merging an empty delta is a no-op.
    """
    for rec in quality_records(delta):
        _merge_record(store, rec)
    return store


def _newest(records: dict, n: int) -> dict:
    """The last ``n`` entries of ``records`` in insertion order, read from the end."""
    return dict(reversed(list(islice(reversed(records.items()), n))))


def merge_window(history: DeltaStore, records: Sequence[ValueRecord | DistRecord]) -> DeltaStore:
    """Merge one run's records into ``history`` and return the store to train on.

    ``history`` is updated in place as by ``merge_quality``.  The returned
    store holds the ``REPLAY_WINDOW // 2`` newest value records and as many
    newest distribution records of ``history`` before the merge, plus the
    merged record of every key the run touched.  Its size is bounded by the
    window plus the run's own records however long the history is.
    """
    half = REPLAY_WINDOW // 2
    window = DeltaStore(_newest(history.values, half), _newest(history.dists, half))
    for rec in records:
        _merge_record(history, rec)
        if isinstance(rec, ValueRecord):
            window.values[rec.digest] = history.values[rec.digest]
        else:
            key = (rec.digest, rec.reduction)
            window.dists[key] = history.dists[key]
    return window


# ---------------------------------------------------------------------------
# Quality log (append-only record stream)
# ---------------------------------------------------------------------------

# Bytes read per backward step when only the end of a log is wanted.
_TAIL_BLOCK = 1 << 16


def _record_to_json(rec: ValueRecord | DistRecord) -> dict:
    """The log document of a record; ``_record_from_json`` reads it back."""
    if isinstance(rec, ValueRecord):
        return {
            "kind": "value",
            "digest": rec.digest,
            "n_vars": rec.n_vars,
            "features": list(rec.features),
            "value": rec.value,
            "visits": rec.visits,
        }
    return {
        "kind": "dist",
        "digest": rec.digest,
        "reduction": rec.reduction,
        "n_vars": rec.n_vars,
        "moves": [
            {"digest": m.digest, "features": list(m.features), "count": m.count}
            for m in rec.moves.values()
        ],
    }


def append_quality_log(path: str, records: Sequence[ValueRecord | DistRecord]) -> int:
    """Append records (see ``quality_records``) to the log; returns records written."""
    with open(path, "a") as handle:
        for rec in records:
            handle.write(json.dumps(_record_to_json(rec), sort_keys=True, separators=(",", ":")) + "\n")
    return len(records)


def _finite(values: Iterable[float]) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _record_from_json(doc: dict) -> ValueRecord | DistRecord:
    kind = doc["kind"]
    if kind == "value":
        features = tuple(float(f) for f in doc["features"])
        value = float(doc["value"])
        visits = int(doc["visits"])
        if not _finite(features) or not math.isfinite(value) or visits < 1:
            raise ValueError("non-finite or invalid value record")
        return ValueRecord(doc["digest"], int(doc["n_vars"]), features, value, visits)
    if kind == "dist":
        moves = {}
        for m in doc["moves"]:
            features = tuple(float(f) for f in m["features"])
            count = int(m["count"])
            if not _finite(features) or count < 0:
                raise ValueError("non-finite or invalid move stat")
            moves[m["digest"]] = MoveStat(m["digest"], features, count)
        return DistRecord(doc["digest"], doc["reduction"], int(doc["n_vars"]), moves)
    raise ValueError(f"unknown record kind {kind!r}")


def _tail_lines(path: str, n: int) -> list[bytes]:
    """The last ``n`` lines of a file, read backwards from its end.

    A final line without a newline counts as a line.  Reading stops once
    more than ``n`` newlines have been read, so the line cut by the first
    read position is never among those returned.
    """
    if n < 1:
        return []
    blocks = []
    newlines = 0
    with open(path, "rb") as handle:
        pos = handle.seek(0, os.SEEK_END)
        while pos > 0 and newlines <= n:
            step = min(_TAIL_BLOCK, pos)
            pos -= step
            handle.seek(pos)
            blocks.append(handle.read(step))
            newlines += blocks[-1].count(b"\n")
    data = b"".join(reversed(blocks))
    if data.endswith(b"\n"):
        data = data[:-1]
    return data.split(b"\n")[-n:]


def _read_records(lines: Iterable[bytes]) -> tuple[DeltaStore, int]:
    store = DeltaStore()
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = _record_from_json(json.loads(line))
        except (ValueError, KeyError, TypeError):
            skipped += 1
            continue
        _merge_record(store, rec)
    return store, skipped


def load_quality_log(path: str, last_lines: int | None = None) -> tuple[DeltaStore, int]:
    """Read a quality log into a store; corrupt records are skipped and counted.

    With ``last_lines`` only that many lines at the end of the log are read,
    and the rest of the file is not.
    """
    if last_lines is not None:
        return _read_records(_tail_lines(path, last_lines))
    with open(path, "rb") as handle:
        return _read_records(handle)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _check_dims(theta: ParamStore, store: DeltaStore) -> None:
    dim = theta.dim
    for rec in store.values.values():
        if len(rec.features) != dim:
            raise ParamVersionError("store feature dimension does not match the parameters")
    for rec in store.dists.values():
        for m in rec.moves.values():
            if len(m.features) != dim:
                raise ParamVersionError("store feature dimension does not match the parameters")


def _dist_targets(rec: DistRecord) -> list[tuple[MoveStat, float]]:
    stats = sorted(rec.moves.values(), key=lambda m: m.digest)
    total = sum(m.count for m in stats)
    if total == 0:
        return [(m, 1.0 / len(stats)) for m in stats]
    return [(m, m.count / total) for m in stats]


def _record_terms(
    theta: ParamStore, rec: ValueRecord | DistRecord, total: float
) -> tuple[float, list[float], list[tuple[tuple[float, ...], float]]]:
    """The forward pass of one record: its loss, the head it trains, its logit derivatives.

    Returns ``total`` with the record's loss terms added one at a time, so
    that a running sum over records rounds the same however the records are
    split; the weight vector of the record's head (a fresh zero vector for a
    reduction ``theta`` has no head for); and, for each feature vector of the
    record, the derivative of the record's loss with respect to that logit.
    """
    if isinstance(rec, ValueRecord):
        weights = theta.value_weights
        v = _sigmoid(_dot(weights, rec.features))
        dz = 2.0 * (v - rec.value) * v * (1.0 - v)
        return total + (v - rec.value) ** 2, weights, [(rec.features, dz)]
    weights = theta.prior_weights.get(rec.reduction)
    if weights is None:
        weights = [0.0] * (theta.dim + 1)
    targets = _dist_targets(rec)
    probs = _softmax([_dot(weights, m.features) for m, _ in targets])
    dlogits = []
    for (m, target), q in zip(targets, probs):
        if target > 0.0:
            total -= target * math.log(q) if q > 0.0 else -math.inf
        dlogits.append((m.features, q - target))
    return total, weights, dlogits


def _add_scaled(weights: list[float], dlogits: list, step: float) -> None:
    """weights += step * d(logit)/d(weights) * d(loss)/d(logit), summed over logits."""
    for features, dz in dlogits:
        dz = step * dz
        for j, f in enumerate(features):
            weights[j] += dz * f
        weights[-1] += dz


def store_loss(theta: ParamStore, store: DeltaStore) -> float:
    """Mean squared value error plus mean cross-entropy of the prior heads."""
    loss = 0.0
    if store.values:
        sq = 0.0
        for rec in store.values.values():
            sq = _record_terms(theta, rec, sq)[0]
        loss += sq / len(store.values)
    if store.dists:
        ce = 0.0
        for rec in store.dists.values():
            ce = _record_terms(theta, rec, ce)[0]
        loss += ce / len(store.dists)
    return loss


def loss_gradients(
    theta: ParamStore, store: DeltaStore
) -> tuple[float, list[float], dict[str, list[float]]]:
    """Batch loss and its analytic gradients for the value and prior heads."""
    dim = theta.dim
    value_grad = [0.0] * (dim + 1)
    prior_grads: dict[str, list[float]] = {}
    loss = 0.0
    if store.values:
        scale = 1.0 / len(store.values)
        sq = 0.0
        for rec in store.values.values():
            sq, _, dlogits = _record_terms(theta, rec, sq)
            _add_scaled(value_grad, dlogits, scale)
        loss += sq * scale
    if store.dists:
        scale = 1.0 / len(store.dists)
        ce = 0.0
        for rec in store.dists.values():
            ce, _, dlogits = _record_terms(theta, rec, ce)
            _add_scaled(prior_grads.setdefault(rec.reduction, [0.0] * (dim + 1)), dlogits, scale)
        loss += ce * scale
    return loss, value_grad, prior_grads


def _ordered_examples(store: DeltaStore, curriculum: bool) -> list[ValueRecord | DistRecord]:
    examples: list[ValueRecord | DistRecord] = list(store.values.values())
    examples.extend(store.dists.values())

    def base_key(rec) -> tuple:
        if isinstance(rec, ValueRecord):
            return ("value", rec.digest, "")
        return ("dist", rec.digest, rec.reduction)

    if curriculum:
        examples.sort(key=lambda rec: (rec.n_vars,) + base_key(rec))
    else:
        examples.sort(key=base_key)
    return examples


def _sgd_epoch(theta: ParamStore, examples: list, learning_rate: float) -> None:
    for rec in examples:
        _, weights, dlogits = _record_terms(theta, rec, 0.0)
        if isinstance(rec, DistRecord):
            # A reduction without a head gets the fresh zero head it was scored with.
            theta.prior_weights.setdefault(rec.reduction, weights)
        _add_scaled(weights, dlogits, -learning_rate)


def train(
    theta: ParamStore,
    store: DeltaStore,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    curriculum: bool = False,
) -> ParamStore:
    """Gradient descent on the value and prior losses over a quality store.

    Runs per-example SGD for ``epochs`` passes; with ``curriculum`` the
    examples are ordered by ascending variable count.  The returned
    parameters never have higher training loss than the input ones: if a
    learning rate overshoots, it is halved and the epochs rerun, falling back
    to the unchanged weights as a last resort.  A non-finite loss aborts with
    TrainDivergedError and leaves ``theta`` untouched.
    """
    return fit(theta, store, epochs, learning_rate, curriculum)[0]


def fit(
    theta: ParamStore,
    store: DeltaStore,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    curriculum: bool = False,
) -> tuple[ParamStore, float, float]:
    """``train``, also returning the training loss before and after.

    The losses are the ones training computes anyway, so a caller that
    reports them needs no extra pass over the store.  With ``epochs`` 0 the
    parameters come back unchanged and both losses are the loss of ``theta``.
    """
    if store.is_empty:
        raise ValueError("quality store is empty")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    _check_dims(theta, store)
    loss_before = store_loss(theta, store)
    if epochs == 0:
        return theta.copy(), loss_before, loss_before
    if not math.isfinite(loss_before):
        raise TrainDivergedError(f"initial loss is not finite: {loss_before}")

    examples = _ordered_examples(store, curriculum)
    lr = learning_rate
    result: ParamStore | None = None
    final_loss = loss_before
    for _ in range(4):
        candidate = theta.copy()
        for epoch in range(epochs):
            _sgd_epoch(candidate, examples, lr)
            candidate_loss = store_loss(candidate, store)
            if not math.isfinite(candidate_loss):
                raise TrainDivergedError(
                    f"loss became non-finite in epoch {epoch + 1} at learning rate {lr}"
                )
        if candidate_loss <= loss_before:
            result = candidate
            final_loss = candidate_loss
            break
        lr *= 0.5
    if result is None:
        result = theta.copy()

    result.examples_seen = theta.examples_seen + len(examples) * epochs
    result.last_loss = final_loss
    return result, loss_before, final_loss
