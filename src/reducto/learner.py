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
from itertools import chain, islice
from typing import Callable, Iterable, NamedTuple, Sequence

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
_FEATURE_DIM = len(FEATURE_NAMES)
_FEATURE_TYPES = (float,) * _FEATURE_DIM  # every feature a run writes is a float


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


class ParamStore:
    """Persisted model parameters: one value head and one prior head per reduction.

    Weight vectors carry the bias as their last component.  The features are
    ``FEATURE_NAMES``, the only layout of ``PARAMS_VERSION``.
    """

    __slots__ = ("value_weights", "prior_weights", "examples_seen", "last_loss")

    def __init__(
        self,
        value_weights: list[float] | None = None,
        prior_weights: dict[str, list[float]] | None = None,
        examples_seen: int = 0,
        last_loss: float | None = None,
    ):
        self.value_weights = [0.0] * (_FEATURE_DIM + 1) if value_weights is None else value_weights
        self.prior_weights = {} if prior_weights is None else prior_weights
        self.examples_seen = examples_seen
        self.last_loss = last_loss

    def __eq__(self, other: object) -> bool:
        return type(other) is ParamStore and (
            self.value_weights, self.prior_weights, self.examples_seen, self.last_loss
        ) == (other.value_weights, other.prior_weights, other.examples_seen, other.last_loss)

    def copy(self) -> "ParamStore":
        return ParamStore(
            value_weights=list(self.value_weights),
            prior_weights={k: list(v) for k, v in self.prior_weights.items()},
            examples_seen=self.examples_seen,
            last_loss=self.last_loss,
        )


def init_params() -> ParamStore:
    """Fresh parameters: all weights zero, so value is 0.5 and priors are uniform."""
    return ParamStore()


def _params_payload(theta: ParamStore) -> dict:
    return {
        "version": PARAMS_VERSION,
        "feature_spec": list(FEATURE_NAMES),
        "value_weights": list(theta.value_weights),
        "prior_weights": {k: list(v) for k, v in sorted(theta.prior_weights.items())},
        "training_stats": {
            "examples_seen": theta.examples_seen,
            "last_loss": theta.last_loss,
        },
    }


def params_text(theta: ParamStore) -> str:
    return json.dumps(_params_payload(theta), sort_keys=True, separators=(",", ":")) + "\n"


def _json_numbers(values: list) -> list[float]:
    """``values`` as floats; a JSON number is an int or a float, never a bool or a string."""
    if not all(type(w) is float or type(w) is int for w in values):
        raise ValueError(f"{values!r} holds a value that is not a JSON number")
    return [float(w) for w in values]


def parse_params(text: str) -> ParamStore:
    """Read a parameter document; a malformed one raises ParamVersionError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamVersionError(f"unreadable parameter document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParamVersionError("parameter document is not a JSON object")
    if doc.get("version") != PARAMS_VERSION:
        raise ParamVersionError(f"unsupported parameter version {doc.get('version')!r}")
    try:
        spec = tuple(doc["feature_spec"])
        value_weights = _json_numbers(doc["value_weights"])
        prior_weights = {rid: _json_numbers(ws) for rid, ws in doc["prior_weights"].items()}
        stats = doc.get("training_stats", {})
        examples_seen = stats.get("examples_seen", 0)
        if type(examples_seen) is not int:
            raise ValueError(f"examples_seen {examples_seen!r} is not a JSON integer")
        last_loss = stats.get("last_loss")
        last_loss = None if last_loss is None else _json_numbers([last_loss])[0]
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParamVersionError(f"malformed parameter document: {exc!r}") from exc
    if spec != FEATURE_NAMES:
        raise ParamVersionError(f"feature spec {list(spec)} is not {list(FEATURE_NAMES)}")
    if len(value_weights) != len(spec) + 1:
        raise ParamVersionError("value weight length does not match the feature spec")
    for rid, ws in prior_weights.items():
        if len(ws) != len(spec) + 1:
            raise ParamVersionError(f"prior weight length mismatch for {rid!r}")
    if not all(math.isfinite(w) for ws in (value_weights, *prior_weights.values()) for w in ws):
        raise ParamVersionError("parameter weights must be finite")
    return ParamStore(
        value_weights=value_weights,
        prior_weights=prior_weights,
        examples_seen=examples_seen,
        last_loss=last_loss,
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
    # Bias is the last weight; then w_j * f_j is added for ascending j.  The
    # _FEATURE_DIM = 10 components are spelled out, so a vector of another
    # length raises ValueError.
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias = weights
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9 = features
    return (bias + w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4
            + w5 * f5 + w6 * f6 + w7 * f7 + w8 * f8 + w9 * f9)


def _softmax(logits: list[float]) -> list[float]:
    top = max(logits)
    exps = [math.exp(z - top) for z in logits]
    total = 0.0  # left to right: since CPython 3.12 sum() compensates float sums
    for e in exps:
        total += e
    return [e / total for e in exps]


class LinearEvaluator:
    """Evaluator over formula features backed by a ParamStore.

    Zero weights give value 0.5 and uniform priors; unknown reduction ids fall
    back to uniform priors.  Read-only over the parameters, so one instance
    can serve concurrent searches.
    """

    def __init__(self, params: ParamStore):
        if len(params.value_weights) != _FEATURE_DIM + 1:
            raise ParamVersionError("value weight length does not match the feature spec")
        self.params = params
        self._features: dict[Formula, tuple[float, ...]] = {}

    def features(self, phi: Formula) -> tuple[float, ...]:
        """``featurize(phi)``, computed once per formula for this evaluator."""
        f = self._features.get(phi)
        if f is None:
            f = featurize(phi)
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


class ValueRecord(NamedTuple):
    digest: str
    n_vars: int
    features: tuple[float, ...]
    value: float
    visits: int


class MoveStat(NamedTuple):
    digest: str
    features: tuple[float, ...]
    count: int


class DistRecord(NamedTuple):
    digest: str
    reduction: str
    n_vars: int
    moves: dict[str, MoveStat]


class DeltaStore:
    """Accumulated quality data across runs, keyed by instance digest."""

    __slots__ = ("values", "dists")

    def __init__(
        self,
        values: dict[str, ValueRecord] | None = None,
        dists: dict[tuple[str, str], DistRecord] | None = None,
    ):
        self.values = {} if values is None else values
        self.dists = {} if dists is None else dists

    def __eq__(self, other: object) -> bool:
        if type(other) is not DeltaStore:
            return NotImplemented
        return (self.values, self.dists) == (other.values, other.dists)

    @property
    def is_empty(self) -> bool:
        return not self.values and not self.dists

    @property
    def record_count(self) -> int:
        return len(self.values) + len(self.dists)


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
    delta: QualityData, features: Callable[[Formula], tuple[float, ...]]
) -> list[ValueRecord | DistRecord]:
    """One search's quality data as records: value records, then distributions.

    ``features`` maps a formula to its feature vector; pass the search
    evaluator's ``LinearEvaluator.features`` to reuse the vectors it already
    computed.
    """
    records: list[ValueRecord | DistRecord] = [
        ValueRecord(inst.digest, len(inst.variables), features(inst), value, visits)
        for inst, (value, visits) in delta.values.items()
    ]
    for (inst, rid), dist in delta.distributions.items():
        moves = {m.digest: MoveStat(m.digest, features(m), count) for m, count in dist.items()}
        records.append(DistRecord(inst.digest, rid, len(inst.variables), moves))
    return records


def _newest(records: dict, n: int) -> dict:
    """The last ``n`` entries of ``records`` in insertion order, read from the end."""
    return dict(reversed(list(islice(reversed(records.items()), n))))


def merge_window(history: DeltaStore, records: Sequence[ValueRecord | DistRecord]) -> DeltaStore:
    """Merge one run's records into ``history`` and return the store to train on.

    ``history`` is updated in place: matching value records combine as
    visit-weighted means and matching distributions sum their visit counts.
    The returned store holds the ``REPLAY_WINDOW // 2`` newest value records
    and as many newest distribution records of ``history`` before the merge,
    plus the merged record of every key the run touched.  Its size is bounded
    by the window plus the run's own records however long the history is.
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
# Bound once: the log reader checks every feature of every record.
_isfinite = math.isfinite


class _FloatMemo(dict):
    """Number text to ``float(text)``, converted on first sight; one per log read.

    A log repeats few distinct number texts many times, so a read converts
    each once.  Keyed by the exact text, so ``-0.0`` and ``0.0`` stay apart.
    """

    __slots__ = ()

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


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
    """Append records (see ``quality_records``) to the log; returns records written.

    A log whose last line was cut short (a crash mid-write) gets a newline
    first, so the fragment stays one corrupt line and no new record joins it.
    """
    text = "".join(
        json.dumps(_record_to_json(rec), sort_keys=True, separators=(",", ":")) + "\n"
        for rec in records
    )
    with open(path, "ab+") as handle:
        if handle.seek(0, os.SEEK_END) > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                text = "\n" + text
        handle.write(text.encode())
    return len(records)


def _record_from_json(doc: dict) -> ValueRecord | DistRecord:
    # A run writes digests as strings (they are sort keys in training),
    # counts as JSON integers and features as floats: ``type(x) is int`` turns
    # away floats, strings and booleans alike, and so does ``_FEATURE_TYPES``.
    kind, digest, n_vars = doc["kind"], doc["digest"], doc["n_vars"]
    if not isinstance(digest, str) or type(n_vars) is not int or n_vars < 0:
        raise ValueError("record digest is not a string or n_vars is not a count")
    if kind == "value":
        features = tuple(doc["features"])
        value, visits = doc["value"], doc["visits"]
        if (
            tuple(map(type, features)) != _FEATURE_TYPES
            or not all(map(_isfinite, features))
            or not (type(value) is float or type(value) is int)
            or not 0.0 <= value <= 1.0
            or type(visits) is not int
            or visits < 1
        ):
            raise ValueError("non-finite or invalid value record")
        return ValueRecord(digest, n_vars, features, float(value), visits)
    if kind == "dist":
        moves = {}
        for m in doc["moves"]:
            move = m["digest"]
            features = tuple(m["features"])
            count = m["count"]
            if (tuple(map(type, features)) != _FEATURE_TYPES or not all(map(_isfinite, features))
                    or type(count) is not int or count < 0 or not isinstance(move, str)):
                raise ValueError("non-finite or invalid move stat")
            moves[move] = MoveStat(move, features, count)
        reduction = doc["reduction"]
        if not moves or not isinstance(reduction, str) or not reduction:
            raise ValueError("dist record without moves or reduction")
        return DistRecord(digest, reduction, n_vars, moves)
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


def _parse_line(line: bytes, raw_decode: Callable[[str], tuple]):
    """``json.loads(line)``; a stripped line of one UTF-8 JSON document goes to ``raw_decode``."""
    try:
        text = line.decode()
        doc, end = raw_decode(text)
        if end == len(text):
            return doc
    except ValueError:  # a BOM, another encoding, bad UTF-8, bad JSON: json.loads decides
        pass
    return json.loads(line)


def _read_records(lines: Iterable[bytes]) -> tuple[DeltaStore, int]:
    # json.loads's decoder, minus its per-call encoding detection and
    # whitespace scans, with each distinct number text converted once.
    raw_decode = json.JSONDecoder(parse_float=_FloatMemo().__getitem__).raw_decode
    store = DeltaStore()
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = _record_from_json(_parse_line(line, raw_decode))
        except (ValueError, KeyError, TypeError, OverflowError):
            skipped += 1
            continue
        _merge_record(store, rec)
    return store, skipped


def load_quality_log(path: str, last_lines: int | None = None) -> tuple[DeltaStore, int]:
    """Read a quality log into a store; corrupt records are skipped and counted.

    A record no run writes is corrupt: among others, one with a value
    outside [0, 1] or not a JSON number, a visit, move or variable count
    that is not a JSON integer, visits below 1, a negative count, a
    non-finite feature, a digest that is not a string, or a ``dist`` without
    moves or reduction id.  With ``last_lines`` only that many lines at the
    end of the log are read, and the rest of the file is not.  Each line
    parses exactly as ``json.loads`` would parse it (``_parse_line``); one
    read converts each distinct number text to a float once (``_FloatMemo``).
    """
    if last_lines is not None:
        return _read_records(_tail_lines(path, last_lines))
    with open(path, "rb") as handle:
        return _read_records(handle)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _example_key(rec: ValueRecord | DistRecord, curriculum: bool) -> tuple:
    if isinstance(rec, ValueRecord):
        key = ("value", rec.digest, "")
    else:
        key = ("dist", rec.digest, rec.reduction)
    return (rec.n_vars,) + key if curriculum else key


def _row(rec: ValueRecord | DistRecord) -> tuple:
    if isinstance(rec, ValueRecord):
        return None, ((rec.features, rec.value),)
    stats = sorted(rec.moves.values())  # digests are the distinct keys, so they decide
    total = sum(m.count for m in stats)
    n = len(stats)
    return rec.reduction, tuple((m.features, m.count / total if total else 1.0 / n) for m in stats)


class _Window:
    """A quality store as training rows; ``fit`` builds one per call.

    A row is ``(head, pairs)``: ``head`` is None for a value record, else the
    reduction id, and ``pairs`` holds ``(features, target)`` per logit, a
    distribution's sorted by move digest.  ``value_rows`` and ``dist_rows``
    keep store order, which the losses sum in; ``examples`` is SGD's order.
    ``heads`` is the set of heads the rows use.  Every feature vector is
    checked here to have the ``_FEATURE_DIM`` components the kernels unpack.
    """

    def __init__(self, store: DeltaStore, curriculum: bool = False):
        records = [*store.values.values(), *store.dists.values()]
        rows = [_row(rec) for rec in records]
        self.value_rows, self.dist_rows = rows[: len(store.values)], rows[len(store.values) :]
        order = sorted(range(len(rows)), key=lambda i: _example_key(records[i], curriculum))
        self.examples = [rows[i] for i in order]
        self.heads = {head for head, _ in rows}
        vectors = [f for _, pairs in rows for f, _ in pairs]
        if any(len(f) != _FEATURE_DIM for f in vectors):
            raise ParamVersionError("store feature dimension does not match the parameters")
        self.max_feature = max(map(abs, chain.from_iterable(vectors)), default=0.0)
        self.max_target = max((abs(pairs[0][1]) for _, pairs in self.value_rows), default=0.0)

    def loss_is_finite(self, theta: ParamStore) -> bool:
        """True only if the loss of ``theta`` over the window is finite.

        If every value target is in [-1, 1] and each head's summed |weights|
        (bias included) times max(1, F), F the largest |feature|, is at most
        300, every logit is in [-300, 300], every softmax probability exceeds
        exp(-600) / (moves) > 0, and every loss term is finite.  NaN fails.
        """
        scale = max(1.0, self.max_feature)
        return self.max_target <= 1.0 and all(
            sum(map(abs, theta.value_weights if h is None else theta.prior_weights.get(h, ())))
            * scale <= 300.0
            for h in self.heads
        )


def _loss_sums(theta: ParamStore, window: _Window, grads: dict | None = None) -> float:
    """The window's loss: the value rows' mean squared error plus the
    distribution rows' mean cross-entropy, each sum taken in row order.

    Logits are formed as in ``_sgd_epoch``; a missing head reads as zeros.
    With ``grads``, each row's gradient over the number of rows of its kind
    is added into ``grads[head]``.
    """
    zeros = [0.0] * (_FEATURE_DIM + 1)
    exp, loss = math.exp, 0.0
    for rows in (window.value_rows, window.dist_rows):
        total, scale, current = 0.0, 1.0 / max(len(rows), 1), None
        w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias = theta.value_weights
        for head, pairs in rows:
            if head != current:  # a distribution row; value rows keep the weights above
                current = head
                w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias = theta.prior_weights.get(head, zeros)
            logits = []
            for (f0, f1, f2, f3, f4, f5, f6, f7, f8, f9), _ in pairs:
                logits.append(bias + w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4
                              + w5 * f5 + w6 * f6 + w7 * f7 + w8 * f8 + w9 * f9)
            if head is None:
                z, target = logits[0], pairs[0][1]
                v = 1.0 / (1.0 + exp(-z)) if z >= 0 else exp(z) / (1.0 + exp(z))
                total += (v - target) ** 2
                dz = (2.0 * (v - target) * v * (1.0 - v),)
            else:
                dz = []
                for (_, target), q in zip(pairs, _softmax(logits)):
                    if target > 0.0:
                        total -= target * math.log(q) if q > 0.0 else -math.inf
                    dz.append(q - target)
            if grads is not None:
                grad = grads.setdefault(head, list(zeros))
                for (features, _), d in zip(pairs, dz):
                    grad[:] = [g + scale * d * f for g, f in zip(grad, (*features, 1.0))]
        if rows:
            loss += total / len(rows)
    return loss


def store_loss(theta: ParamStore, store: DeltaStore) -> float:
    """Mean squared value error plus mean cross-entropy of the prior heads."""
    return _loss_sums(theta, _Window(store))


def loss_gradients(
    theta: ParamStore, store: DeltaStore
) -> tuple[float, list[float], dict[str, list[float]]]:
    """Batch loss and its analytic gradients for the value and prior heads."""
    window = _Window(store)
    grads: dict = {None: [0.0] * (_FEATURE_DIM + 1)}
    loss = _loss_sums(theta, window, grads)
    return loss, grads.pop(None), grads


def _sgd_epoch(theta: ParamStore, examples: list, learning_rate: float) -> None:
    """One SGD pass: per row, its logits, then weights += -learning_rate *
    d(loss)/d(logit) * (features, 1) for each logit in turn.  The current
    head's weights live in locals, written back when the head changes and when
    the pass ends; a reduction without a head gets a fresh zero head.
    """
    step, exp = -learning_rate, math.exp
    current, weights = None, theta.value_weights
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias = weights
    for head, pairs in examples:
        if head != current:
            weights[:] = w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias
            current, weights = head, theta.value_weights
            if head is not None:
                weights = theta.prior_weights.setdefault(head, [0.0] * (_FEATURE_DIM + 1))
            w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias = weights
        if head is None:
            (((f0, f1, f2, f3, f4, f5, f6, f7, f8, f9), target),) = pairs
            z = (bias + w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4
                 + w5 * f5 + w6 * f6 + w7 * f7 + w8 * f8 + w9 * f9)
            v = 1.0 / (1.0 + exp(-z)) if z >= 0 else exp(z) / (1.0 + exp(z))
            d = step * (2.0 * (v - target) * v * (1.0 - v))
            w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias = (
                w0 + d * f0, w1 + d * f1, w2 + d * f2, w3 + d * f3, w4 + d * f4,
                w5 + d * f5, w6 + d * f6, w7 + d * f7, w8 + d * f8, w9 + d * f9, bias + d)
            continue
        logits = []
        for (f0, f1, f2, f3, f4, f5, f6, f7, f8, f9), _ in pairs:
            logits.append(bias + w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4
                          + w5 * f5 + w6 * f6 + w7 * f7 + w8 * f8 + w9 * f9)
        top, total = max(logits), 0.0
        exps = [exp(z - top) for z in logits]
        for e in exps:  # added left to right, as in _softmax
            total += e
        for ((f0, f1, f2, f3, f4, f5, f6, f7, f8, f9), target), e in zip(pairs, exps):
            d = step * (e / total - target)
            w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias = (
                w0 + d * f0, w1 + d * f1, w2 + d * f2, w3 + d * f3, w4 + d * f4,
                w5 + d * f5, w6 + d * f6, w7 + d * f7, w8 + d * f8, w9 + d * f9, bias + d)
    weights[:] = w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, bias


def check_training_settings(epochs: int, learning_rate: float) -> None:
    """Raise ValueError unless ``epochs`` >= 0 and ``learning_rate`` is finite and positive."""
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning rate must be finite and positive, got {learning_rate}")


def fit(
    theta: ParamStore,
    store: DeltaStore,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    curriculum: bool = False,
) -> tuple[ParamStore, float, float]:
    """Gradient descent on the value and prior losses over a quality store.

    Returns the new parameters and the training loss before and after.
    Runs per-example SGD for ``epochs`` passes; with ``curriculum`` the
    examples are ordered by ascending variable count.  The returned
    parameters never have higher training loss than the input ones: if a
    learning rate overshoots, it is halved and the epochs rerun, falling back
    to the unchanged weights as a last resort.  A non-finite loss aborts with
    TrainDivergedError and leaves ``theta`` untouched.  The learning rate
    must be finite and positive.

    The store becomes rows once (``_Window``).  The loss before is one loss
    pass (``_loss_sums``), and an attempt is its epochs (``_sgd_epoch``) plus
    one loss pass after the last; after an earlier epoch the loss is computed
    only if ``_Window.loss_is_finite`` fails, so TrainDivergedError still
    names the first non-finite epoch.  With ``epochs`` 0 the parameters come
    back unchanged and both losses are the loss of ``theta``.
    """
    if store.is_empty:
        raise ValueError("quality store is empty")
    check_training_settings(epochs, learning_rate)
    window = _Window(store, curriculum)
    loss_before = _loss_sums(theta, window)
    if epochs == 0:
        return theta.copy(), loss_before, loss_before
    if not math.isfinite(loss_before):
        raise TrainDivergedError(f"initial loss is not finite: {loss_before}")

    lr = learning_rate
    result: ParamStore | None = None
    final_loss = loss_before
    for _ in range(4):
        candidate = theta.copy()
        for epoch in range(1, epochs + 1):
            _sgd_epoch(candidate, window.examples, lr)
            if epoch < epochs and window.loss_is_finite(candidate):
                continue
            candidate_loss = _loss_sums(candidate, window)
            if not math.isfinite(candidate_loss):
                raise TrainDivergedError(
                    f"loss became non-finite in epoch {epoch} at learning rate {lr}"
                )
        if candidate_loss <= loss_before:
            result = candidate
            final_loss = candidate_loss
            break
        lr *= 0.5
    if result is None:
        result = theta.copy()

    result.examples_seen = theta.examples_seen + len(window.examples) * epochs
    result.last_loss = final_loss
    return result, loss_before, final_loss
