import copy
import json
import math
import os
import random
import struct
import types
from typing import Iterable

import pytest

from reducto import learner
from reducto.driver import SETUP_NAMES, random_ksat, solve
from reducto.learner import (
    DEFAULT_EPOCHS,
    DEFAULT_LEARNING_RATE,
    DeltaStore,
    DistRecord,
    FEATURE_NAMES,
    LinearEvaluator,
    MoveStat,
    ParamStore,
    ParamVersionError,
    REPLAY_WINDOW,
    TrainDivergedError,
    ValueRecord,
    append_quality_log,
    featurize,
    fit,
    init_params,
    load_params,
    load_quality_log,
    loss_gradients,
    merge_window,
    params_text,
    parse_params,
    quality_records,
    save_params,
    store_loss,
    _Window,
    _dot,
    _loss_sums,
    _read_records,
    _sgd_epoch,
    _sigmoid,
    _softmax,
)
from reducto.sat import BOTTOM, Formula, TOP
from reducto.search import QualityData, SearchConfig

from helpers import random_formula


def random_store(rng, n_values=3, n_dists=2, dim=len(FEATURE_NAMES)):
    store = DeltaStore()
    for i in range(n_values):
        store.values[f"v{i}"] = ValueRecord(
            digest=f"v{i}",
            n_vars=rng.randint(1, 10),
            features=tuple(rng.random() for _ in range(dim)),
            value=rng.random(),
            visits=rng.randint(1, 5),
        )
    for i in range(n_dists):
        moves = {}
        for j in range(rng.randint(2, 4)):
            moves[f"m{i}_{j}"] = MoveStat(
                digest=f"m{i}_{j}",
                features=tuple(rng.random() for _ in range(dim)),
                count=rng.randint(0, 6),
            )
        rid = rng.choice(["resolution", "flip", "pure-literal"])
        store.dists[(f"d{i}", rid)] = DistRecord(f"d{i}", rid, rng.randint(1, 10), moves)
    return store


def random_params(rng):
    theta = ParamStore()
    theta.value_weights = [rng.uniform(-1, 1) for _ in range(len(FEATURE_NAMES) + 1)]
    theta.prior_weights = {
        "resolution": [rng.uniform(-1, 1) for _ in range(len(FEATURE_NAMES) + 1)],
        "flip": [rng.uniform(-1, 1) for _ in range(len(FEATURE_NAMES) + 1)],
        "pure-literal": [rng.uniform(-1, 1) for _ in range(len(FEATURE_NAMES) + 1)],
    }
    theta.examples_seen = rng.randint(0, 100)
    theta.last_loss = rng.random()
    return theta


class TestFeatures:
    def test_dimension_matches_spec(self):
        assert len(featurize(TOP)) == len(FEATURE_NAMES)

    def test_all_features_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(50):
            phi = random_formula(rng, 6, 10)
            assert all(0.0 <= f <= 1.0 for f in featurize(phi))

    def test_degenerate_formulas(self):
        assert all(f == 0.0 for f in featurize(TOP))
        assert all(math.isfinite(f) for f in featurize(BOTTOM))

    def test_renaming_invariance(self):
        phi = Formula([[1, -2], [2, 3], [-3]])
        renamed = Formula([[5, -9], [9, 2], [-2]])
        assert featurize(phi) == featurize(renamed)


class TestEvaluator:
    def test_fresh_params_value_half(self):
        ev = LinearEvaluator(init_params())
        assert ev.value(Formula([[1, -2]])) == 0.5

    def test_fresh_params_uniform_priors(self):
        ev = LinearEvaluator(init_params())
        moves = [Formula([[1]]), Formula([[2]]), Formula([[3]])]
        assert ev.priors(TOP, "resolution", moves) == [1 / 3, 1 / 3, 1 / 3]

    def test_single_move_prior_is_one(self):
        ev = LinearEvaluator(init_params())
        assert ev.priors(TOP, "flip", [Formula([[1]])]) == [1.0]

    def test_empty_move_list(self):
        ev = LinearEvaluator(init_params())
        assert ev.priors(TOP, "flip", []) == []

    def test_value_bounded_and_priors_normalized(self):
        rng = random.Random(7)
        theta = random_params(rng)
        ev = LinearEvaluator(theta)
        for _ in range(20):
            phi = random_formula(rng, 5, 8)
            assert 0.0 <= ev.value(phi) <= 1.0
            moves = [random_formula(rng, 5, 8) for _ in range(4)]
            priors = ev.priors(phi, "resolution", moves)
            assert all(p >= 0 for p in priors)
            assert abs(sum(priors) - 1.0) <= 1e-9

    def test_value_invariant_under_renaming(self):
        rng = random.Random(11)
        theta = random_params(rng)
        ev = LinearEvaluator(theta)
        assert ev.value(Formula([[1, -2], [2]])) == ev.value(Formula([[4, -7], [7]]))

    def test_bias_translation_leaves_priors_unchanged(self):
        rng = random.Random(13)
        theta = random_params(rng)
        moves = [random_formula(rng, 4, 5) for _ in range(3)]
        before = LinearEvaluator(theta).priors(TOP, "flip", moves)
        shifted = theta.copy()
        shifted.prior_weights["flip"][-1] += 7.5
        after = LinearEvaluator(shifted).priors(TOP, "flip", moves)
        assert all(abs(a - b) <= 1e-9 for a, b in zip(before, after))

    def test_unknown_reduction_falls_back_to_uniform(self):
        rng = random.Random(17)
        theta = random_params(rng)
        ev = LinearEvaluator(theta)
        assert ev.priors(TOP, "mystery", [TOP, BOTTOM]) == [0.5, 0.5]

    def test_dimension_mismatch_is_a_version_error(self):
        theta = init_params()
        theta.value_weights = [0.0, 0.0]
        with pytest.raises(ParamVersionError):
            LinearEvaluator(theta)


class TestInitAndSerialization:
    def test_init_is_deterministic(self):
        assert init_params() == ParamStore()
        assert params_text(init_params()) == params_text(ParamStore())

    def test_round_trip_is_bit_exact(self):
        rng = random.Random(19)
        for _ in range(20):
            theta = random_params(rng)
            assert parse_params(params_text(theta)) == theta

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(23)
        theta = random_params(rng)
        path = str(tmp_path / "params.json")
        save_params(theta, path)
        assert load_params(path) == theta

    def test_version_rejected(self):
        doc = json.loads(params_text(init_params()))
        doc["version"] = 99
        with pytest.raises(ParamVersionError):
            parse_params(json.dumps(doc))

    @pytest.mark.parametrize(
        "change",
        [
            lambda doc: [1],
            lambda doc: None,
            lambda doc: {"version": 1},
            lambda doc: {k: v for k, v in doc.items() if k != "prior_weights"},
            lambda doc: {**doc, "prior_weights": [[0.0] * 11]},
            lambda doc: {**doc, "value_weights": ["heavy"] * 11},
            lambda doc: {**doc, "value_weights": 0.0},
            lambda doc: {**doc, "prior_weights": {"flip": [float("nan")] * 11}},
            lambda doc: {**doc, "training_stats": [1]},
            lambda doc: {**doc, "training_stats": {"last_loss": "low"}},
            # float() and int() take these; the file comes from outside the
            # program, so a weight or a loss is a JSON number, never a string
            # or a boolean, and examples_seen a JSON integer.
            lambda doc: {**doc, "value_weights": ["0.5"] + doc["value_weights"][1:]},
            lambda doc: {**doc, "value_weights": [True] + doc["value_weights"][1:]},
            lambda doc: {**doc, "prior_weights": {"flip": [False] * 11}},
            lambda doc: {**doc, "training_stats": {"examples_seen": 2.7}},
            lambda doc: {**doc, "training_stats": {"examples_seen": "2"}},
            lambda doc: {**doc, "training_stats": {"examples_seen": True}},
            lambda doc: {**doc, "training_stats": {"last_loss": "0.25"}},
            lambda doc: {**doc, "training_stats": {"last_loss": True}},
            # A two-feature layout whose weight lengths match it.
            lambda doc: {
                **doc,
                "feature_spec": ["var_count", "clause_count"],
                "value_weights": [0.0] * 3,
                "prior_weights": {"flip": [0.0] * 3},
            },
            lambda doc: {**doc, "feature_spec": list(reversed(FEATURE_NAMES))},
        ],
        ids=[
            "list",
            "null",
            "version-only",
            "no-prior-weights",
            "prior-weights-list",
            "non-numeric-weight",
            "scalar-weights",
            "nan-weight",
            "stats-list",
            "non-numeric-loss",
            "string-weight",
            "bool-weight",
            "bool-prior-weights",
            "fractional-examples",
            "string-examples",
            "bool-examples",
            "string-loss",
            "bool-loss",
            "two-feature-spec",
            "reordered-spec",
        ],
    )
    def test_malformed_documents_are_version_errors(self, change):
        doc = json.loads(params_text(random_params(random.Random(29))))
        with pytest.raises(ParamVersionError):
            parse_params(json.dumps(change(doc)))

    def test_integer_weights_and_loss_are_json_numbers(self):
        doc = json.loads(params_text(init_params()))
        doc["value_weights"] = [1] + doc["value_weights"][1:]
        doc["training_stats"] = {"examples_seen": 3, "last_loss": 0}
        theta = parse_params(json.dumps(doc))
        assert type(theta.value_weights[0]) is float and theta.value_weights[0] == 1.0
        assert (theta.examples_seen, theta.last_loss) == (3, 0.0)
        assert type(theta.last_loss) is float

    def test_interrupted_write_leaves_old_params_intact(self, tmp_path, monkeypatch):
        path = str(tmp_path / "params.json")
        original = init_params()
        save_params(original, path)

        def exploding_replace(src, dst):
            raise OSError("killed mid-rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        try:
            save_params(random_params(random.Random(1)), path)
        except OSError:
            pass
        monkeypatch.undo()
        assert load_params(path) == original
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


def quality_from(values, dists):
    q = QualityData()
    q.values.update(values)
    q.distributions.update(dists)
    return q


def merge(store, delta):
    """Merge one search's quality data into ``store`` in place, as ``solve`` does."""
    merge_window(store, quality_records(delta, featurize))
    return store


class TestMerge:
    def setup_method(self):
        self.phi = Formula([[1, -2], [2]])
        self.move = Formula([[1]])
        self.delta = quality_from(
            {self.phi: (0.8, 4)},
            {(self.phi, "flip"): {self.move: 4}},
        )

    def test_merge_into_empty_equals_delta(self):
        store = merge(DeltaStore(), self.delta)
        rec = store.values[self.phi.digest]
        assert rec.value == 0.8 and rec.visits == 4
        assert store.dists[(self.phi.digest, "flip")].moves[self.move.digest].count == 4

    def test_merging_twice_doubles_counts_keeps_means(self):
        store = merge(DeltaStore(), self.delta)
        merge(store, self.delta)
        rec = store.values[self.phi.digest]
        assert rec.value == 0.8 and rec.visits == 8
        assert store.dists[(self.phi.digest, "flip")].moves[self.move.digest].count == 8

    def test_visit_weighted_mean(self):
        store = merge(DeltaStore(), quality_from({self.phi: (1.0, 1)}, {}))
        merge(store, quality_from({self.phi: (0.0, 3)}, {}))
        rec = store.values[self.phi.digest]
        assert rec.visits == 4
        assert abs(rec.value - 0.25) < 1e-12

    def test_merge_is_commutative(self):
        other = quality_from(
            {self.phi: (0.2, 2), TOP: (1.0, 1)},
            {(self.phi, "flip"): {self.move: 1, Formula([[2]]): 3}},
        )
        a = merge(merge(DeltaStore(), self.delta), other)
        b = merge(merge(DeltaStore(), other), self.delta)
        assert a == b

    def test_merge_empty_delta_is_identity(self):
        store = merge(DeltaStore(), self.delta)
        before = copy.deepcopy(store)
        merge(store, QualityData())
        assert store == before


def assert_moves_keyed_by_digest(records) -> None:
    for rec in records:
        if isinstance(rec, DistRecord):
            assert rec.moves and all(d == m.digest for d, m in rec.moves.items())


class TestMoveDigests:
    """``_row`` sorts a distribution's ``MoveStat`` tuples themselves, which is
    the digest order only because each digest is its key in ``moves``."""

    def test_every_record_path_keys_moves_by_digest(self, tmp_path):
        rng = random.Random(35)
        pool = [random_formula(rng, 5, 6) for _ in range(8)]
        path = str(tmp_path / "quality.jsonl")
        history = DeltaStore()
        for _ in range(10):
            records = quality_records(random_delta(rng, pool), featurize)
            assert_moves_keyed_by_digest(records)
            merge_window(history, records)  # _merge_record combines shared moves
            append_quality_log(path, records)
        assert_moves_keyed_by_digest(history.dists.values())
        with open(path) as handle:
            assert_moves_keyed_by_digest(learner._record_from_json(json.loads(line))
                                         for line in handle)
        store, skipped = load_quality_log(path)
        assert skipped == 0 and store == history
        assert_moves_keyed_by_digest(store.dists.values())

    def test_rows_list_moves_in_digest_order(self):
        rng = random.Random(35)
        for _ in range(40):
            store = varied_store(rng)
            for key, rec in store.dists.items():
                moves = list(rec.moves.values())
                rng.shuffle(moves)
                moves = [m._replace(digest=f"{rng.random():.6f}") for m in moves]
                store.dists[key] = rec._replace(moves={m.digest: m for m in moves})
            for rec in store.dists.values():
                head, pairs = learner._row(rec)
                assert head == rec.reduction
                assert pairs == tuple((m.features, t) for m, t in ref_dist_targets(rec))


class TestQualityLog:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "quality.jsonl")
        phi = Formula([[1, -2], [2]])
        delta = quality_from(
            {phi: (0.75, 2), TOP: (1.0, 1)},
            {(phi, "flip"): {Formula([[1]]): 2}},
        )
        written = append_quality_log(path, quality_records(delta, featurize))
        assert written == 3
        store, skipped = load_quality_log(path)
        assert skipped == 0
        expected = merge(DeltaStore(), delta)
        assert store == expected

    def test_repeated_records_merge_on_load(self, tmp_path):
        path = str(tmp_path / "quality.jsonl")
        phi, move = Formula([[1, -2], [2]]), Formula([[1]])
        delta = quality_from({phi: (0.8, 4)}, {(phi, "flip"): {move: 4}})
        append_quality_log(path, quality_records(delta, featurize))
        append_quality_log(path, quality_records(delta, featurize))
        store, _ = load_quality_log(path)
        assert store.values[phi.digest].visits == 8
        assert store.dists[(phi.digest, "flip")].moves[move.digest].count == 8
        expected = merge(merge(DeltaStore(), delta), delta)
        assert store == expected

    def test_the_reader_drops_nothing_trained_solves_write(self, tmp_path):
        # Every record a trained solve writes, under every setup, is inside
        # the reader's bounds: values in [0, 1], dists with a reduction and moves.
        path = str(tmp_path / "quality.jsonl")
        rng = random.Random(97)
        history, theta, values = DeltaStore(), ParamStore(), set()
        cfg = SearchConfig(horizon=6, budget=12)
        for name in SETUP_NAMES:
            for _ in range(8):
                n = rng.randint(3, 6)
                phi = random_ksat(rng, n, rng.randint(n, 5 * n))
                _, theta, report = solve(phi, name, theta, cfg, history=history)
                append_quality_log(path, report.records)
                values |= {r.value for r in report.records if isinstance(r, ValueRecord)}
        store, skipped = load_quality_log(path)
        assert skipped == 0
        # solve merged each run's records into history as it went.
        assert store == history and history.dists
        assert {0.0, 1.0} <= values

    def test_corrupt_records_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "quality.jsonl")
        phi = Formula([[1]])
        append_quality_log(path, quality_records(quality_from({phi: (1.0, 1)}, {}), featurize))
        dim = len(FEATURE_NAMES)
        with open(path, "a") as handle:
            handle.write("not json\n")
            for doc in (
                {"kind": "value", "digest": "x"},
                {
                    "kind": "value",
                    "digest": "y",
                    "n_vars": 1,
                    "features": [float("nan")] * dim,
                    "value": 0.5,
                    "visits": 1,
                },
                {
                    "kind": "value",
                    "digest": "z",
                    "n_vars": 1,
                    "features": [0.5] * dim,
                    "value": float("-inf"),
                    "visits": 1,
                },
                {
                    "kind": "dist",
                    "digest": "w",
                    "reduction": "flip",
                    "n_vars": 1,
                    "moves": [
                        {"digest": "m", "features": [0.5] * (dim - 1) + [float("inf")], "count": 1}
                    ],
                },
                # Feature vectors of the wrong length.
                {
                    "kind": "value",
                    "digest": "u",
                    "n_vars": 1,
                    "features": [0.5] * 3,
                    "value": 0.5,
                    "visits": 1,
                },
                {
                    "kind": "dist",
                    "digest": "t",
                    "reduction": "flip",
                    "n_vars": 1,
                    "moves": [{"digest": "m", "features": [0.5] * (dim + 1), "count": 1}],
                },
            ):
                # json writes the non-finite floats as NaN, -Infinity and Infinity.
                handle.write(json.dumps(doc) + "\n")
        good = json.dumps({"kind": "value", "digest": "s", "n_vars": 1,
                           "features": [0.5] * dim, "value": 0.5, "visits": 1})
        with open(path, "ab") as handle:
            # A record whose bytes are not UTF-8, and one with a feature json reads as inf.
            handle.write(good.encode().replace(b'"s"', b'"\xff"') + b"\n")
            handle.write(good.replace("[0.5", "[1e999", 1).encode() + b"\n")
            # Integer fields json reads as inf, which int() cannot convert.
            handle.write(good.replace('"visits": 1', '"visits": 1e400').encode() + b"\n")
            handle.write(good.replace('"n_vars": 1', '"n_vars": 1e400').encode() + b"\n")
            dist = {"kind": "dist", "digest": "r", "reduction": "flip", "n_vars": 1,
                    "moves": [{"digest": "m", "features": [0.5] * dim, "count": 1}]}
            handle.write(json.dumps(dist).replace('"count": 1', '"count": 1e400').encode() + b"\n")
            # Values outside [0, 1], a dist without a reduction, one without moves.
            handle.write(good.replace('"value": 0.5', '"value": 1e300').encode() + b"\n")
            handle.write(good.replace('"value": 0.5', '"value": 5').encode() + b"\n")
            handle.write(good.replace('"value": 0.5', '"value": -0.5').encode() + b"\n")
            handle.write(json.dumps({**dist, "reduction": None}).encode() + b"\n")
            handle.write(json.dumps({**dist, "reduction": ""}).encode() + b"\n")
            handle.write(json.dumps({**dist, "moves": []}).encode() + b"\n")
            # Digests that are not strings: training sorts rows and moves by them.
            move = dist["moves"][0]
            moves = [{**move, "digest": 5}, {**move, "digest": "a"}]
            handle.write(json.dumps({**dist, "moves": moves}).encode() + b"\n")
            handle.write(json.dumps({**dist, "digest": 5}).encode() + b"\n")
            handle.write(good.replace('"digest": "s"', '"digest": 5').encode() + b"\n")
            handle.write(good.replace('"digest": "s"', '"digest": null').encode() + b"\n")
        store, skipped = load_quality_log(path)
        assert skipped == 22
        assert len(store.values) == 1
        assert not store.dists

    def test_wrongly_typed_fields_are_skipped_and_counted(self, tmp_path):
        # Runs write visits, counts and n_vars as JSON integers, a value as a
        # JSON number and features as JSON floats; a string, a fraction or a
        # boolean there is corrupt, and so is an integer or null feature.
        dim = len(FEATURE_NAMES)
        value = {"kind": "value", "digest": "s", "n_vars": 1,
                 "features": [0.5] * dim, "value": 0.5, "visits": 1}
        dist = {"kind": "dist", "digest": "r", "reduction": "flip", "n_vars": 1,
                "moves": [{"digest": "m", "features": [0.5] * dim, "count": 1}]}
        move = dist["moves"][0]
        bad = [{**value, "visits": v} for v in ("2", 1.5, True)]
        bad += [{**value, "value": v} for v in ("0.5", True, None)]
        bad += [{**rec, "n_vars": v} for rec in (value, dist) for v in ("1", 1.5, True)]
        bad += [{**dist, "moves": [{**move, "count": v}]} for v in ("1", 0.7, True)]
        odd = [["0.5"] + [0.5] * (dim - 2) + [True], [True] * dim, [1] + [0.5] * (dim - 1),
               [None] * dim, "0.5" * dim]
        bad += [{**value, "features": f} for f in odd]
        bad += [{**dist, "moves": [{**move, "features": f}]} for f in odd]
        path = str(tmp_path / "quality.jsonl")
        with open(path, "w") as handle:
            # An integer value is a JSON number and loads as a float.
            for doc in [value, dist, {**value, "digest": "i", "value": 1}, *bad]:
                handle.write(json.dumps(doc) + "\n")
        store, skipped = load_quality_log(path)
        assert skipped == len(bad) == 25
        assert store.values["s"].visits == 1 and store.dists[("r", "flip")].moves["m"].count == 1
        assert type(store.values["i"].value) is float
        with open(path, "rb") as handle:
            assert (store, skipped) == ref_read_records(handle)

    def test_lines_read_as_json_loads_reads_them(self, tmp_path):
        # _read_records decodes a line of UTF-8 text directly and hands any
        # other line to json.loads; every line must give json.loads's record,
        # or be skipped and counted where json.loads fails.
        dim = len(FEATURE_NAMES)
        good = json.dumps({"kind": "value", "digest": "s", "n_vars": 1,
                           "features": [0.5] * dim, "value": 0.5, "visits": 1})
        dist = json.dumps({"kind": "dist", "digest": "r", "reduction": "flip", "n_vars": 1,
                           "moves": [{"digest": "m", "features": [0.25] * dim, "count": 2}]})
        lines = {
            "value": good.encode(),
            "dist": dist.encode(),
            "non-ascii": good.replace('"s"', '"\u00e9\u4e2d"').encode(),
            "utf-8 bom": b"\xef\xbb\xbf" + good.encode(),
            "utf-16": good.encode("utf-16"),
            "utf-16-le": good.encode("utf-16-le"),
            "cesu": good.replace('"s"', '"\ud83d\ude00"').encode("utf-8", "surrogatepass"),
            "nul-led": b"\x00" + good.encode(),
            "invalid utf-8": good.encode().replace(b'"s"', b'"\xff"'),
            "trailing data": good.encode() + b" x",
            "two objects": good.encode() + dist.encode(),
            "crlf": dist.encode() + b"\r\n",
            "whitespace only": b" \t\r\n",
            "truncated": good.encode()[:-7],
            "infinite count": dist.replace('"count": 2', '"count": 1e400').encode(),
        }
        read = {}
        for name, line in lines.items():
            read[name] = _read_records([line])
            assert read[name] == ref_read_records([line]), name
        assert {name for name, (store, _) in read.items() if not store.is_empty} == {
            "value", "dist", "non-ascii", "utf-8 bom", "utf-16", "utf-16-le", "cesu", "crlf"
        }
        assert {name for name, (_, skipped) in read.items() if skipped} == {
            "nul-led", "invalid utf-8", "trailing data", "two objects", "truncated",
            "infinite count",
        }
        path = tmp_path / "quality.jsonl"
        path.write_bytes(b"\n".join(lines.values()) + b"\n")
        with open(path, "rb") as handle:
            expected = ref_read_records(handle)
        assert expected[1] == 6
        assert load_quality_log(str(path)) == expected
        assert load_quality_log(str(path), last_lines=2 * len(lines)) == expected

    def test_number_texts_read_bit_for_bit(self, tmp_path):
        # A read converts each distinct number text once and reuses the
        # float.  -0.0 and 0.0 are equal floats, and 0.1, 0.10 and 1e-1 are
        # one float spelled three ways: each text must read as json.loads
        # reads it.  DeltaStore == equates -0.0 and 0.0, so reprs are compared.
        dim = len(FEATURE_NAMES)
        finite = ["-0.0", "0.0", "0.1", "0.10", "1e-1"]

        def spelled(i):
            return ((finite[i:] + finite[:i]) * dim)[:dim]

        def value_line(digest, features, value):
            return ('{"digest": "%s", "features": [%s], "kind": "value", "n_vars": 2, '
                    '"value": %s, "visits": 1}' % (digest, ", ".join(features), value)).encode()

        moves = ", ".join('{"count": %d, "digest": "m%d", "features": [%s]}'
                          % (i, i, ", ".join(spelled(i))) for i in range(len(finite)))
        lines = [value_line(f"v{i}", spelled(i), finite[i]) for i in range(len(finite))]
        lines += [
            ('{"digest": "r", "kind": "dist", "moves": [%s], "n_vars": 2, "reduction": "flip"}'
             % moves).encode(),
            value_line("inf", (["1e999"] + finite * dim)[:dim], "0.5"),  # non-finite: skipped
            b"\xef\xbb\xbf" + value_line("bom", spelled(1), "-0.0"),  # the json.loads path
        ]
        path = tmp_path / "quality.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        expected, skipped = ref_read_records(lines)
        assert skipped == 1 and set(expected.values) == {"v0", "v1", "v2", "v3", "v4", "bom"}
        assert repr(expected.values["v0"].features[0]) == "-0.0"
        assert repr(expected.values["v1"].features[0]) == "0.0"
        for store, n in (_read_records(lines), load_quality_log(str(path)),
                         load_quality_log(str(path), last_lines=len(lines))):
            assert n == skipped
            assert float_reprs(store) == float_reprs(expected)

    def test_each_number_text_is_converted_once_per_read(self, tmp_path, monkeypatch):
        memos = []

        class CountingMemo(learner._FloatMemo):
            def __init__(self):
                super().__init__()
                self.misses = []
                memos.append(self)

            def __missing__(self, text):
                self.misses.append(text)
                return super().__missing__(text)

        monkeypatch.setattr(learner, "_FloatMemo", CountingMemo)
        path = str(tmp_path / "quality.jsonl")
        texts = []

        def collect(text):
            texts.append(text)
            return float(text)

        for line in write_log(path, random.Random(35)).splitlines():
            json.loads(line, parse_float=collect)
        first = load_quality_log(path)
        second = load_quality_log(path)
        assert len(memos) == 2 and memos[0] is not memos[1]
        # Each distinct text is converted once, and the second read starts empty.
        for memo in memos:
            assert sorted(memo.misses) == sorted(set(texts))
        assert len(texts) > 2 * len(set(texts))
        with open(path, "rb") as handle:
            assert first == second == ref_read_records(handle)

    def test_negative_variable_counts_are_skipped_and_counted(self, tmp_path):
        # n_vars is a variable count: a run writes 0 for an empty formula and
        # never less, and a negative count would jump to the front of a
        # curriculum epoch.
        dim = len(FEATURE_NAMES)
        value = {"kind": "value", "digest": "s", "n_vars": 0,
                 "features": [0.5] * dim, "value": 0.5, "visits": 1}
        dist = {"kind": "dist", "digest": "r", "reduction": "flip", "n_vars": 0,
                "moves": [{"digest": "m", "features": [0.5] * dim, "count": 1}]}
        path = str(tmp_path / "quality.jsonl")
        with open(path, "w") as handle:
            for doc in [value, dist, {**value, "digest": "t", "n_vars": -1},
                        {**dist, "digest": "q", "n_vars": -3}]:
                handle.write(json.dumps(doc) + "\n")
        store, skipped = load_quality_log(path)
        assert skipped == 2
        assert set(store.values) == {"s"} and set(store.dists) == {("r", "flip")}

    def test_append_after_a_truncated_last_line_keeps_every_record(self, tmp_path):
        path = str(tmp_path / "quality.jsonl")
        phi, psi = Formula([[1]]), Formula([[1, -2], [2]])
        with open(path, "w") as handle:
            handle.write('{"kind": "value", "dig')  # a crash cut this record short
        delta = quality_from({phi: (1.0, 1), psi: (0.5, 2)}, {})
        assert append_quality_log(path, quality_records(delta, featurize)) == 2
        store, skipped = load_quality_log(path)
        assert skipped == 1
        assert store == merge(DeltaStore(), delta)
        assert load_quality_log(path, last_lines=2)[0] == store


def float_reprs(store: DeltaStore) -> tuple[list, list]:
    """Every field of ``store`` in store order, each float as its repr."""
    values = [(r.digest, r.n_vars, [*map(repr, r.features)], repr(r.value), r.visits)
              for r in store.values.values()]
    dists = [(key, r.n_vars, [(d, m.digest, [*map(repr, m.features)], m.count)
                              for d, m in r.moves.items()])
             for key, r in store.dists.items()]
    return values, dists


def write_log(path, rng, n_deltas=12):
    """A log of several runs' records over shared formulas."""
    pool = [random_formula(rng, 5, 6) for _ in range(10)]
    for _ in range(n_deltas):
        append_quality_log(path, quality_records(random_delta(rng, pool), featurize))
    with open(path) as handle:
        return handle.read()


class TestLogTail:
    """``load_quality_log(path, last_lines=n)`` against loading a copy of the last n lines."""

    def reference(self, tmp_path, lines):
        path = str(tmp_path / "reference.jsonl")
        with open(path, "w") as handle:
            handle.write("".join(lines))
        return load_quality_log(path)

    @pytest.mark.parametrize("block", [1, 7, 300, 1 << 16])
    def test_tail_equals_loading_the_last_lines(self, tmp_path, monkeypatch, block):
        # Small read blocks put seek boundaries inside lines: a line cut by
        # one is never read as a corrupt record.
        monkeypatch.setattr(learner, "_TAIL_BLOCK", block)
        path = str(tmp_path / "quality.jsonl")
        lines = write_log(path, random.Random(block)).splitlines(keepends=True)
        assert len(lines) > 20
        for n in (1, 2, 5, 17, len(lines) - 1, len(lines), len(lines) + 9):
            store, skipped = load_quality_log(path, last_lines=n)
            expected, _ = self.reference(tmp_path, lines[-n:])
            assert skipped == 0
            assert store == expected

    def test_missing_trailing_newline(self, tmp_path, monkeypatch):
        monkeypatch.setattr(learner, "_TAIL_BLOCK", 64)
        path = str(tmp_path / "quality.jsonl")
        lines = write_log(path, random.Random(3)).splitlines(keepends=True)
        with open(path, "w") as handle:
            handle.write("".join(lines).rstrip("\n"))
        for n in (1, 4, len(lines), len(lines) + 1):
            store, skipped = load_quality_log(path, last_lines=n)
            assert skipped == 0
            assert store == self.reference(tmp_path, lines[-n:])[0]

    def test_truncated_last_line_is_skipped_and_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(learner, "_TAIL_BLOCK", 64)
        path = str(tmp_path / "quality.jsonl")
        lines = write_log(path, random.Random(4)).splitlines(keepends=True)
        cut = lines[-1][: len(lines[-1]) // 2]
        with open(path, "w") as handle:
            handle.write("".join(lines[:-1]) + cut)
        for n in (1, 3, len(lines)):
            store, skipped = load_quality_log(path, last_lines=n)
            assert skipped == 1
            expected = self.reference(tmp_path, (lines[:-1] + [cut])[-n:])
            assert (store, skipped) == expected
        assert load_quality_log(path)[1] == 1

    def test_corrupt_lines_count_only_inside_the_tail(self, tmp_path):
        path = str(tmp_path / "quality.jsonl")
        with open(path, "w") as handle:
            handle.write("not json\n")
        lines = write_log(path, random.Random(5)).splitlines(keepends=True)
        assert load_quality_log(path)[1] == 1
        assert load_quality_log(path, last_lines=len(lines) - 1)[1] == 0
        assert load_quality_log(path, last_lines=len(lines))[1] == 1

    def test_short_and_empty_logs(self, tmp_path):
        path = str(tmp_path / "quality.jsonl")
        open(path, "w").close()
        assert load_quality_log(path, last_lines=REPLAY_WINDOW)[0].is_empty
        lines = write_log(path, random.Random(6), n_deltas=2).splitlines(keepends=True)
        assert len(lines) < REPLAY_WINDOW
        store, skipped = load_quality_log(path, last_lines=REPLAY_WINDOW)
        assert (store, skipped) == (load_quality_log(path)[0], 0)


def history_store(n_values, n_dists, dim=len(FEATURE_NAMES)):
    """Distinct synthetic records, in insertion order h0, h1, ..."""
    rng = random.Random(n_values)
    store = DeltaStore()
    for i in range(n_values):
        store.values[f"h{i}"] = ValueRecord(
            f"h{i}", 4, tuple(rng.random() for _ in range(dim)), rng.random(), 1
        )
    for i in range(n_dists):
        moves = {
            f"hm{i}_{j}": MoveStat(f"hm{i}_{j}", tuple(rng.random() for _ in range(dim)), j)
            for j in range(2)
        }
        store.dists[(f"h{i}", "flip")] = DistRecord(f"h{i}", "flip", 4, moves)
    return store


class TestReplayWindow:
    def test_window_is_newest_history_plus_the_run(self):
        rng = random.Random(71)
        pool = [random_formula(rng, 5, 6) for _ in range(8)]
        half = REPLAY_WINDOW // 2
        for size in (0, 3, half, 10 * REPLAY_WINDOW):
            # The oldest history records share formulas with the run.
            old, delta = random_delta(rng, pool), random_delta(rng, pool)

            def make_history():
                store = merge(DeltaStore(), old)
                synthetic = history_store(size, size)
                store.values.update(synthetic.values)
                store.dists.update(synthetic.dists)
                return store

            history = make_history()
            newest_values = list(history.values)[-half:]
            newest_dists = list(history.dists)[-half:]
            records = quality_records(delta, featurize)
            window = merge_window(history, records)
            assert history == ref_merge_quality(make_history(), delta)
            run_values = {r.digest for r in records if isinstance(r, ValueRecord)}
            run_dists = {(r.digest, r.reduction) for r in records if isinstance(r, DistRecord)}
            assert set(window.values) == set(newest_values) | run_values
            assert set(window.dists) == set(newest_dists) | run_dists
            assert window.record_count <= REPLAY_WINDOW + len(records)
            for key, rec in window.values.items():
                assert rec == history.values[key]
            for key, rec in window.dists.items():
                assert rec == history.dists[key]

    def test_solve_trains_on_as_many_records_after_ten_times_the_history(self):
        phi = random_ksat(random.Random(3), 6, 18)
        cfg = SearchConfig(horizon=12, budget=16)
        theta = init_params()
        epochs = 2
        grown = []
        for size in (REPLAY_WINDOW // 2, 10 * REPLAY_WINDOW // 2):
            history = history_store(size, size)
            assert history.record_count == 2 * size
            _, theta_after, report = solve(phi, "flip", theta, cfg, history=history, epochs=epochs)
            assert report.records
            grown.append(theta_after.examples_seen - theta.examples_seen)
            assert grown[-1] <= (REPLAY_WINDOW + len(report.records)) * epochs
        assert grown[0] == grown[1]


class TestLossAndGradients:
    def finite_difference(self, theta, store, eps=1e-6):
        grads = {"value": [], "prior": {}}
        for j in range(len(FEATURE_NAMES) + 1):
            up = theta.copy()
            down = theta.copy()
            up.value_weights[j] += eps
            down.value_weights[j] -= eps
            grads["value"].append((store_loss(up, store) - store_loss(down, store)) / (2 * eps))
        rids = {rid for _, rid in store.dists}
        for rid in rids:
            grads["prior"][rid] = []
            for j in range(len(FEATURE_NAMES) + 1):
                up = theta.copy()
                down = theta.copy()
                up.prior_weights.setdefault(rid, [0.0] * (len(FEATURE_NAMES) + 1))
                down.prior_weights.setdefault(rid, [0.0] * (len(FEATURE_NAMES) + 1))
                up.prior_weights[rid] = list(up.prior_weights[rid])
                down.prior_weights[rid] = list(down.prior_weights[rid])
                up.prior_weights[rid][j] += eps
                down.prior_weights[rid][j] -= eps
                grads["prior"][rid].append(
                    (store_loss(up, store) - store_loss(down, store)) / (2 * eps)
                )
        return grads

    @staticmethod
    def close(a, b, rel=1e-4, abs_tol=1e-7):
        return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))

    def test_gradients_match_finite_differences(self):
        rng = random.Random(29)
        for _ in range(5):
            store = random_store(rng, n_values=5, n_dists=3)
            theta = random_params(rng)
            loss, value_grad, prior_grads = loss_gradients(theta, store)
            assert math.isfinite(loss)
            numeric = self.finite_difference(theta, store)
            for a, b in zip(value_grad, numeric["value"]):
                assert self.close(a, b)
            for rid, grad in prior_grads.items():
                for a, b in zip(grad, numeric["prior"][rid]):
                    assert self.close(a, b)

    def test_one_sgd_step_is_a_gradient_step(self):
        # On a one-record store the batch gradient is that record's gradient,
        # so one SGD epoch moves every head by -lr times loss_gradients.
        rng = random.Random(59)
        lr = 0.1
        for i in range(20):
            theta = random_params(rng)
            if i % 2:
                del theta.prior_weights["flip"]
            for store in (
                random_store(rng, n_values=1, n_dists=0),
                random_store(rng, n_values=0, n_dists=1),
            ):
                _, value_grad, prior_grads = loss_gradients(theta, store)
                stepped = theta.copy()
                _sgd_epoch(stepped, _Window(store).examples, lr)
                zeros = [0.0] * (len(FEATURE_NAMES) + 1)
                heads = [(theta.value_weights, stepped.value_weights, value_grad)]
                for rid, grad in prior_grads.items():
                    heads.append((theta.prior_weights.get(rid, zeros), stepped.prior_weights[rid], grad))
                for before, after, grad in heads:
                    for w, w2, g in zip(before, after, grad):
                        assert abs(w2 - (w - lr * g)) <= 1e-12

    def test_loss_on_three_example_store(self):
        rng = random.Random(31)
        store = random_store(rng, n_values=3, n_dists=0)
        theta = init_params()
        expected = sum((0.5 - rec.value) ** 2 for rec in store.values.values()) / 3
        assert abs(store_loss(theta, store) - expected) < 1e-12


def bits(xs, nan_sign: bool = True) -> list[tuple[type, bytes]]:
    """Each number's type and IEEE double bit pattern: the sign of zero included,
    and the sign of NaN unless ``nan_sign`` is false."""
    return [(type(x), struct.pack("<d", x if nan_sign or x == x else math.nan)) for x in xs]


class TestKernels:
    """``_dot`` against the plain loop ``ref_dot``, and the fused SGD epoch and
    loss pass against the plain loops ``ref_sgd_epoch``, ``ref_store_loss``
    and ``ref_loss_gradients``: the same products added in the same order."""

    DIM = len(FEATURE_NAMES)
    TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309)
    LARGE = (1e300, -1e300, math.inf, -math.inf, math.nan)
    INTS = (0, 1, -1, 3, -7)

    def vector(self, rng, n, ints=False):
        # Ordinary floats of every magnitude; or some components from LARGE
        # and TINY; or every component from TINY, so that sums stay signed
        # zeros or subnormals.  Features may also hold integers.
        kind = rng.randrange(3)
        ints = self.INTS if ints else ()
        return [
            rng.choice(self.TINY + ints) if kind == 2
            else rng.choice(self.TINY + self.LARGE + ints) if kind == 1 and rng.random() < 0.3
            else rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
            for _ in range(n)
        ]

    def test_dot_matches_the_loop_bit_for_bit(self):
        rng = random.Random(83)
        kinds = dict.fromkeys(["nan", "inf", "+0", "-0", "subnormal", "int feature"], 0)
        # Sums that stay -0.0 need every term to be -0.0, which random draws
        # almost never give.
        negative_zeros = [-0.0] * (self.DIM + 1)
        fixed = [(negative_zeros, (1,) * self.DIM), (negative_zeros, (0.5,) * self.DIM)]
        draws = ((self.vector(rng, self.DIM + 1), self.vector(rng, self.DIM, ints=True))
                 for _ in range(3000))
        for weights, features in [*fixed, *draws]:
            features = tuple(features)
            z = _dot(weights, features)
            assert bits([z]) == bits([ref_dot(weights, features)])
            kinds["nan"] += math.isnan(z)
            kinds["inf"] += math.isinf(z)
            kinds["+0" if math.copysign(1.0, z) > 0 else "-0"] += z == 0.0
            kinds["subnormal"] += 0.0 < abs(z) < 2.2250738585072014e-308
            kinds["int feature"] += any(type(f) is int for f in features)
        assert all(kinds.values()), kinds

    def test_softmax_adds_left_to_right(self):
        # Added left to right from 0.0, 1 + 1e-16 + 1e-16 rounds to 1.0; a
        # compensated sum (builtin sum() since CPython 3.12, math.fsum) does not.
        logits = [0.0, math.log(1e-16), math.log(1e-16)]
        exps = [math.exp(z) for z in logits]
        total = 0.0
        for e in exps:
            total += e
        assert total != math.fsum(exps)
        assert bits(_softmax(logits)) == bits([e / total for e in exps])

    REDUCTIONS = ("resolution", "flip", "extension")

    def store(self, rng, kind):
        """Value records and distributions over ``REDUCTIONS`` at n_vars 1..4,
        so that curriculum order interleaves value rows with rows of several
        reductions; ``kind`` may drop either half."""
        store = DeltaStore()
        for i in range(rng.randint(1, 6) if kind != "dist only" else 0):
            store.values[f"v{i}"] = ValueRecord(
                f"v{i}", rng.randint(1, 4), tuple(self.vector(rng, self.DIM, ints=True)),
                rng.choice([0.0, 1.0, rng.random()]), 1,
            )
        for i in range(rng.randint(1, 6) if kind != "value only" else 0):
            moves = {
                f"m{j}": MoveStat(f"m{j}", tuple(self.vector(rng, self.DIM, ints=True)),
                                  rng.randint(0, 3))
                for j in range(rng.randint(1, 4))
            }
            rid = rng.choice(self.REDUCTIONS)
            store.dists[(f"d{i}", rid)] = DistRecord(f"d{i}", rid, rng.randint(1, 4), moves)
        return store

    def theta(self, rng):
        # "extension" never has a head: SGD gives it a fresh zero head and a
        # loss pass reads zeros.
        theta = ParamStore(value_weights=self.vector(rng, self.DIM + 1))
        for rid in self.REDUCTIONS[:2]:
            theta.prior_weights[rid] = self.vector(rng, self.DIM + 1)
        return theta

    # Where both operands of an addition are NaN, which of the two comes out
    # depends on the operand order the C compiler chose inside CPython, and
    # the loops add with ``-=`` where the kernels add a negated step; so the
    # kernels are compared up to the sign of NaN.  No NaN reaches a file:
    # ``fit`` raises TrainDivergedError first.
    @staticmethod
    def weight_bits(theta):
        return bits(theta.value_weights, nan_sign=False), {
            rid: bits(ws, nan_sign=False) for rid, ws in theta.prior_weights.items()
        }

    def test_update_matches_the_loop_bit_for_bit(self):
        rng = random.Random(89)
        kinds = dict.fromkeys(
            ["mixed", "value only", "dist only", "head revisited", "fresh head",
             "nan feature", "inf feature", "-0 feature", "subnormal feature",
             "nan", "inf", "-0", "subnormal"], 0
        )
        for i in range(1500):
            kind = ("mixed", "value only", "dist only")[i % 3]
            store = self.store(rng, kind)
            curriculum = rng.random() < 0.7
            theta = self.theta(rng)
            learning_rate = rng.choice([0.05, 1.0, 1e-300, 1e300, abs(rng.uniform(0, 10))])
            a, b = theta.copy(), theta.copy()
            examples = _Window(store, curriculum).examples
            _sgd_epoch(a, examples, learning_rate)
            ref_sgd_epoch(b, ref_ordered_examples(store, curriculum), learning_rate)
            assert self.weight_bits(a) == self.weight_bits(b)
            heads = [head for head, _ in examples]
            runs = [h for k, h in enumerate(heads) if k == 0 or h != heads[k - 1]]
            kinds[kind] += 1
            kinds["head revisited"] += len(set(runs)) < len(runs) and len(set(runs)) > 2
            kinds["fresh head"] += "extension" in a.prior_weights
            features = [f for _, pairs in examples for fs, _ in pairs for f in fs]
            kinds["nan feature"] += any(map(math.isnan, features))
            kinds["inf feature"] += any(map(math.isinf, features))
            kinds["-0 feature"] += any(f == 0.0 and math.copysign(1.0, f) < 0 for f in features)
            kinds["subnormal feature"] += any(0.0 < abs(f) < 2.2250738585072014e-308 for f in features)
            weights = [w for ws in (a.value_weights, *a.prior_weights.values()) for w in ws]
            kinds["nan"] += any(map(math.isnan, weights))
            kinds["inf"] += any(map(math.isinf, weights))
            kinds["-0"] += any(w == 0.0 and math.copysign(1.0, w) < 0 for w in weights)
            kinds["subnormal"] += any(0.0 < abs(w) < 2.2250738585072014e-308 for w in weights)
        assert all(kinds.values()), kinds

    def test_loss_pass_matches_the_loops_bit_for_bit(self):
        rng = random.Random(97)
        kinds = dict.fromkeys(["mixed", "value only", "dist only", "missing head", "nan", "inf"], 0)
        for i in range(1500):
            kind = ("mixed", "value only", "dist only")[i % 3]
            store = self.store(rng, kind)
            theta = self.theta(rng)
            loss = store_loss(theta, store)
            assert bits([loss], False) == bits([ref_store_loss(theta, store)], False)
            _, value_grad, prior_grads = loss_gradients(theta, store)
            _, ref_value_grad, ref_prior_grads = ref_loss_gradients(theta, store)
            assert self.weight_bits(ParamStore(value_grad, prior_grads)) == self.weight_bits(
                ParamStore(ref_value_grad, ref_prior_grads)
            )
            kinds[kind] += 1
            kinds["missing head"] += "extension" in prior_grads
            kinds["nan"] += math.isnan(loss)
            kinds["inf"] += math.isinf(loss)
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("weights, features", [
        pytest.param(DIM + 1, DIM - 1, id="short-features"),
        pytest.param(DIM + 1, DIM + 1, id="long-features"),
        pytest.param(DIM, DIM, id="short-weights"),
        pytest.param(DIM + 2, DIM, id="long-weights"),
    ])
    def test_a_vector_of_the_wrong_length_raises(self, weights, features):
        # A plain zip would stop at the shorter vector and give a number.  Only
        # the row's own head has weights of the tested length.
        w, f = [0.5] * weights, (0.25,) * features
        with pytest.raises(ValueError):
            _dot(w, f)
        for head in (None, "flip"):
            rows = [(head, ((f, 1.0),))]
            theta = ParamStore(prior_weights={"flip": [0.5] * (self.DIM + 1)})
            if head is None:
                theta.value_weights = list(w)
            else:
                theta.prior_weights[head] = list(w)
            window = types.SimpleNamespace(
                value_rows=rows if head is None else [], dist_rows=[] if head is None else rows
            )
            with pytest.raises(ValueError):
                _sgd_epoch(theta, rows, 0.1)
            with pytest.raises(ValueError):
                _loss_sums(theta, window)
            with pytest.raises(ValueError):
                _loss_sums(theta, window, {})


class TestLossPasses:
    """``fit`` runs a loss pass before training and after each attempt's last
    epoch, and after an earlier epoch only when the weight bound fails."""

    @staticmethod
    def count(monkeypatch):
        calls = {"loss passes": 0, "epochs": 0}
        loss_sums, sgd_epoch = learner._loss_sums, learner._sgd_epoch

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(learner, "_loss_sums", counted("loss passes", loss_sums))
        monkeypatch.setattr(learner, "_sgd_epoch", counted("epochs", sgd_epoch))
        return calls

    @pytest.mark.parametrize("epochs", [2, 20])
    def test_a_bounded_attempt_takes_two_loss_passes(self, monkeypatch, epochs):
        store = random_store(random.Random(79), n_values=4, n_dists=3)
        calls = self.count(monkeypatch)
        _, before, after = learner.fit(init_params(), store, epochs=epochs)
        assert after < before
        assert calls == {"loss passes": 2, "epochs": epochs}

    @pytest.mark.parametrize("feature, learning_rate", [(1e6, 1e-12), (0.5, 1e18)])
    def test_unbounded_training_takes_a_loss_pass_per_epoch(
        self, monkeypatch, feature, learning_rate
    ):
        # Value records only: their loss stays finite however large the weights.
        rng = random.Random(83)
        store = random_store(rng, n_values=4, n_dists=0)
        rec = store.values["v0"]
        store.values["v0"] = rec._replace(features=(feature,) + rec.features[1:])
        calls = self.count(monkeypatch)
        learner.fit(random_params(rng), store, epochs=5, learning_rate=learning_rate)
        assert calls["epochs"] >= 5
        assert calls["loss passes"] == 1 + calls["epochs"]


class TestTrain:
    def test_zero_epochs_is_identity(self):
        rng = random.Random(37)
        store = random_store(rng)
        theta = random_params(rng)
        theta2 = fit(theta, store, epochs=0)[0]
        assert theta2 == theta
        assert theta2 is not theta

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            fit(init_params(), DeltaStore())[0]

    @pytest.mark.parametrize("learning_rate", [0.0, -0.05, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, learning_rate):
        store = random_store(random.Random(39))
        with pytest.raises(ValueError, match="learning rate"):
            fit(init_params(), store, learning_rate=learning_rate)

    def test_loss_never_increases(self):
        rng = random.Random(41)
        for _ in range(10):
            store = random_store(rng, n_values=4, n_dists=3)
            theta = random_params(rng)
            before = store_loss(theta, store)
            theta2 = fit(theta, store)[0]
            assert store_loss(theta2, store) <= before + 1e-12

    def test_easy_value_targets_drive_value_up_monotonically(self):
        phi = Formula([[1, -2], [2]])
        store = merge(DeltaStore(), quality_from({phi: (1.0, 3)}, {}))
        theta = init_params()
        last = 0.5
        for _ in range(10):
            theta = fit(theta, store, epochs=1)[0]
            current = LinearEvaluator(theta).value(phi)
            assert current >= last - 1e-12
            last = current
        assert last > 0.5

    def test_prior_training_tracks_visit_distribution(self):
        # Moves must differ in feature space for the prior head to separate them.
        phi = Formula([[-1, -2]])
        a, b = Formula([[1]]), Formula([[-1], [-2], [-1, -2]])
        assert featurize(a) != featurize(b)
        delta = quality_from({}, {(phi, "flip"): {a: 9, b: 1}})
        store = merge(DeltaStore(), delta)
        theta = fit(init_params(), store, epochs=50, learning_rate=0.2)[0]
        priors = LinearEvaluator(theta).priors(phi, "flip", [a, b])
        assert priors[0] > 0.6

    def test_curriculum_orders_examples_by_variable_count(self):
        rng = random.Random(43)
        store = random_store(rng, n_values=6, n_dists=4)
        # Every feature vector is random, so a row's first vector names its record.
        n_vars = {rec.features: rec.n_vars for rec in store.values.values()}
        for rec in store.dists.values():
            n_vars.update((m.features, rec.n_vars) for m in rec.moves.values())
        examples = _Window(store, curriculum=True).examples
        sizes = [n_vars[pairs[0][0]] for _, pairs in examples]
        assert len(sizes) == store.record_count
        assert sizes == sorted(sizes)

    def test_training_is_deterministic(self):
        rng = random.Random(47)
        store = random_store(rng, n_values=4, n_dists=2)
        theta = random_params(rng)
        t1 = fit(theta, store, epochs=5)[0]
        t2 = fit(theta, store, epochs=5)[0]
        assert params_text(t1) == params_text(t2)

    def test_diverging_loss_raises_and_leaves_theta_unchanged(self):
        # Contradictory targets over the same feature pattern: a huge learning
        # rate saturates the softmax and one record's cross-entropy hits inf.
        ones = tuple([1.0] * len(FEATURE_NAMES))
        zeros = tuple([0.0] * len(FEATURE_NAMES))
        store = DeltaStore()
        store.dists[("d0", "flip")] = DistRecord(
            "d0", "flip", 2,
            {"m0": MoveStat("m0", ones, 1), "m1": MoveStat("m1", zeros, 0)},
        )
        store.dists[("d1", "flip")] = DistRecord(
            "d1", "flip", 2,
            {"m2": MoveStat("m2", ones, 0), "m3": MoveStat("m3", zeros, 1)},
        )
        theta = init_params()
        before = params_text(theta)
        with pytest.raises(TrainDivergedError):
            fit(theta, store, epochs=3, learning_rate=1e18)[0]
        assert params_text(theta) == before

    def test_feature_dimension_mismatch_rejected(self):
        rng = random.Random(53)
        store = random_store(rng, dim=3)
        with pytest.raises(ParamVersionError):
            fit(init_params(), store)[0]


# ---------------------------------------------------------------------------
# Reference equivalence: the learner before its forward pass was shared by
# store_loss, loss_gradients and SGD, and before merging and logging shared
# one record path.  The current code must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def varied_store(rng):
    """A random store that may lack value records, hold a distribution whose
    counts are all zero, and use a reduction id ``random_params`` has no head for."""
    dim = len(FEATURE_NAMES)
    store = random_store(rng, n_values=rng.randint(0, 5), n_dists=0)
    for i in range(rng.randint(0 if store.values else 1, 4)):
        all_zero = rng.random() < 0.25
        moves = {
            f"m{i}_{j}": MoveStat(
                f"m{i}_{j}",
                tuple(rng.random() for _ in range(dim)),
                0 if all_zero else rng.randint(0, 6),
            )
            for j in range(rng.randint(1, 4))
        }
        rid = rng.choice(["resolution", "flip", "pure-literal", "extension"])
        store.dists[(f"d{i}", rid)] = DistRecord(f"d{i}", rid, rng.randint(1, 10), moves)
    return store


def random_delta(rng, pool):
    """Quality data over formulas drawn from ``pool``, so that deltas share
    instances and a formula can be both an instance and a move."""
    q = QualityData()
    for phi in rng.sample(pool, rng.randint(0, 4)):
        q.values[phi] = (rng.random(), rng.randint(1, 6))
    for phi in rng.sample(pool, rng.randint(0, 3)):
        rid = rng.choice(["resolution", "flip"])
        q.distributions[(phi, rid)] = {m: rng.randint(0, 4) for m in rng.sample(pool, rng.randint(1, 4))}
    return q


def train_outcome(train_fn, theta, store, **kwargs):
    try:
        return params_text(train_fn(theta, store, **kwargs))
    except TrainDivergedError as exc:
        return f"diverged: {exc}"


class TestReferenceEquivalence:
    def test_loss_gradients_and_training_match_reference(self):
        rng = random.Random(61)
        kinds = {"no values": 0, "all-zero counts": 0, "missing head": 0, "diverged": 0}
        for _ in range(150):
            store = varied_store(rng)
            theta = random_params(rng)
            kinds["no values"] += not store.values
            kinds["all-zero counts"] += any(
                all(m.count == 0 for m in r.moves.values()) for r in store.dists.values()
            )
            kinds["missing head"] += any(rid == "extension" for _, rid in store.dists)
            assert store_loss(theta, store) == ref_store_loss(theta, store)
            # The loss is store_loss's own value; the gradients are the reference's.
            _, ref_value_grad, ref_prior_grads = ref_loss_gradients(theta, store)
            assert loss_gradients(theta, store) == (
                ref_store_loss(theta, store), ref_value_grad, ref_prior_grads
            )
            a, b = theta.copy(), theta.copy()
            _sgd_epoch(a, _Window(store).examples, 0.3)
            ref_sgd_epoch(b, ref_ordered_examples(store, curriculum=False), 0.3)
            assert params_text(a) == params_text(b)
            learning_rate = rng.choice([0.05, 0.5, 5.0, 1e18])
            for curriculum in (False, True):
                kwargs = dict(epochs=3, learning_rate=learning_rate, curriculum=curriculum)
                outcome = train_outcome(
                    lambda *a, **k: fit(*a, **k)[0], theta, store, **kwargs
                )
                assert outcome == train_outcome(ref_train, theta, store, **kwargs)
                kinds["diverged"] += outcome.startswith("diverged")
        assert all(kinds.values()), kinds

    def test_training_matches_reference_at_every_epoch_count(self, monkeypatch):
        # Learning rates at which the weight bound of _Window.loss_is_finite
        # holds throughout, fails after some epochs (300 does on these stores
        # at 20 epochs) or fails at once; and stores with a feature far above
        # 1, which fail it from the start.
        rng = random.Random(73)
        bound = learner._Window.loss_is_finite
        answers: list[bool] = []

        def spy(window, theta):
            answers.append(bound(window, theta))
            return answers[-1]

        monkeypatch.setattr(learner._Window, "loss_is_finite", spy)
        kinds = {"bound held": 0, "bound failed after holding": 0, "large feature": 0, "diverged": 0}
        for i in range(30):
            store = varied_store(rng)
            if i % 3 == 2:
                rec = rng.choice([*store.values.values(), *store.dists.values()])
                table = store.values
                if isinstance(rec, DistRecord):
                    table = rec.moves
                    rec = rng.choice(list(rec.moves.values()))
                table[rec.digest] = rec._replace(features=(1e6,) + rec.features[1:])
                kinds["large feature"] += 1
            theta = random_params(rng)
            for epochs in (1, 2, 20):
                for learning_rate in (0.05, 5.0, 50.0, 300.0, 1e18):
                    kwargs = dict(epochs=epochs, learning_rate=learning_rate, curriculum=i % 2 == 1)
                    answers.clear()
                    outcome = train_outcome(
                        lambda *a, **k: fit(*a, **k)[0], theta, store, **kwargs
                    )
                    assert outcome == train_outcome(ref_train, theta, store, **kwargs)
                    if i % 3 == 2:
                        assert not any(answers)
                    kinds["bound held"] += any(answers)
                    kinds["bound failed after holding"] += any(
                        a and not b for a, b in zip(answers, answers[1:])
                    )
                    kinds["diverged"] += outcome.startswith("diverged")
        assert all(kinds.values()), kinds

    def test_merging_and_logging_match_reference(self, tmp_path):
        rng = random.Random(67)
        pool = [random_formula(rng, 5, 6) for _ in range(12)]
        for i in range(40):
            deltas = [random_delta(rng, pool) for _ in range(rng.randint(1, 3))]
            store, ref_store = DeltaStore(), DeltaStore()
            path = str(tmp_path / f"{i}.jsonl")
            ref_lines = []
            for delta in deltas:
                records = quality_records(delta, featurize)
                merge_window(store, records)
                ref_merge_quality(ref_store, delta)
                # A search's evaluator has featurized some of the formulas
                # already; its vectors give the same records and log bytes.
                evaluator = LinearEvaluator(init_params())
                for phi in rng.sample(pool, 4):
                    evaluator.value(phi)
                assert quality_records(delta, evaluator.features) == records
                assert append_quality_log(path, records) == len(delta.values) + len(delta.distributions)
                ref_lines.extend(
                    json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                    for rec in ref_delta_records(delta)
                )
            assert store == ref_store
            with open(path) as handle:
                assert handle.read() == "".join(ref_lines)
            loaded, skipped = load_quality_log(path)
            assert skipped == 0
            assert loaded == ref_store


def ref_merge_value_record(store: DeltaStore, rec: ValueRecord) -> None:
    old = store.values.get(rec.digest)
    if old is None:
        store.values[rec.digest] = rec
        return
    visits = old.visits + rec.visits
    value = (old.value * old.visits + rec.value * rec.visits) / visits
    store.values[rec.digest] = ValueRecord(rec.digest, rec.n_vars, rec.features, value, visits)


def ref_merge_dist_record(store: DeltaStore, rec: DistRecord) -> None:
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


def ref_merge_quality(store: DeltaStore, delta: QualityData) -> DeltaStore:
    """Merge one search's quality data into ``store`` (mutates and returns it).

    Matching value records combine as visit-weighted means; matching
    distributions sum their visit counts.  Merging an empty delta is a no-op.
    """
    for inst, (value, visits) in delta.values.items():
        ref_merge_value_record(
            store,
            ValueRecord(inst.digest, len(inst.variables), featurize(inst), value, visits),
        )
    for (inst, rid), dist in delta.distributions.items():
        moves = {
            m.digest: MoveStat(m.digest, featurize(m), count) for m, count in dist.items()
        }
        ref_merge_dist_record(
            store, DistRecord(inst.digest, rid, len(inst.variables), moves)
        )
    return store


def ref_delta_records(delta: QualityData) -> Iterable[dict]:
    for inst, (value, visits) in delta.values.items():
        yield {
            "kind": "value",
            "digest": inst.digest,
            "n_vars": len(inst.variables),
            "features": list(featurize(inst)),
            "value": value,
            "visits": visits,
        }
    for (inst, rid), dist in delta.distributions.items():
        yield {
            "kind": "dist",
            "digest": inst.digest,
            "reduction": rid,
            "n_vars": len(inst.variables),
            "moves": [
                {"digest": m.digest, "features": list(featurize(m)), "count": count}
                for m, count in dist.items()
            ],
        }


def ref_check_dims(theta: ParamStore, store: DeltaStore) -> None:
    dim = len(FEATURE_NAMES)
    for rec in store.values.values():
        if len(rec.features) != dim:
            raise ParamVersionError("store feature dimension does not match the parameters")
    for rec in store.dists.values():
        for m in rec.moves.values():
            if len(m.features) != dim:
                raise ParamVersionError("store feature dimension does not match the parameters")


def ref_dist_targets(rec: DistRecord) -> list[tuple[MoveStat, float]]:
    stats = sorted(rec.moves.values(), key=lambda m: m.digest)
    total = sum(m.count for m in stats)
    if total == 0:
        return [(m, 1.0 / len(stats)) for m in stats]
    return [(m, m.count / total) for m in stats]


def ref_ordered_examples(store: DeltaStore, curriculum: bool) -> list[ValueRecord | DistRecord]:
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


def ref_dot(weights: list[float], features: tuple[float, ...]) -> float:
    """The bias, then w_j * f_j added for ascending j."""
    z = weights[-1]
    for w, f in zip(weights, features):
        z += w * f
    return z


def ref_add_scaled(weights: list[float], pairs: tuple, dz: list[float], step: float) -> None:
    for (features, _), d in zip(pairs, dz):
        d = step * d
        for j, f in enumerate(features):
            weights[j] += d * f
        weights[-1] += d


def ref_read_records(lines: Iterable[bytes]) -> tuple[DeltaStore, int]:
    """``_read_records`` with every line parsed by ``json.loads``."""
    store = DeltaStore()
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = learner._record_from_json(json.loads(line))
        except (ValueError, KeyError, TypeError, OverflowError):
            skipped += 1
            continue
        learner._merge_record(store, rec)
    return store, skipped


def ref_store_loss(theta: ParamStore, store: DeltaStore) -> float:
    """Mean squared value error plus mean cross-entropy of the prior heads."""
    loss = 0.0
    if store.values:
        sq = 0.0
        for rec in store.values.values():
            v = _sigmoid(ref_dot(theta.value_weights, rec.features))
            sq += (v - rec.value) ** 2
        loss += sq / len(store.values)
    if store.dists:
        zeros = [0.0] * (len(FEATURE_NAMES) + 1)
        ce = 0.0
        for rec in store.dists.values():
            weights = theta.prior_weights.get(rec.reduction, zeros)
            targets = ref_dist_targets(rec)
            probs = _softmax([ref_dot(weights, m.features) for m, _ in targets])
            for (_, target), q in zip(targets, probs):
                if target > 0.0:
                    ce -= target * math.log(q) if q > 0.0 else -math.inf
        loss += ce / len(store.dists)
    return loss


def ref_loss_gradients(
    theta: ParamStore, store: DeltaStore
) -> tuple[float, list[float], dict[str, list[float]]]:
    """Batch loss and its analytic gradients for the value and prior heads."""
    dim = len(FEATURE_NAMES)
    value_grad = [0.0] * (dim + 1)
    prior_grads: dict[str, list[float]] = {}
    loss = 0.0
    if store.values:
        scale = 1.0 / len(store.values)
        sq = 0.0
        for rec in store.values.values():
            v = _sigmoid(ref_dot(theta.value_weights, rec.features))
            sq += (v - rec.value) ** 2
            dz = 2.0 * (v - rec.value) * v * (1.0 - v) * scale
            for j, f in enumerate(rec.features):
                value_grad[j] += dz * f
            value_grad[dim] += dz
        loss += sq * scale
    if store.dists:
        zeros = [0.0] * (dim + 1)
        scale = 1.0 / len(store.dists)
        ce = 0.0
        for rec in store.dists.values():
            weights = theta.prior_weights.get(rec.reduction, zeros)
            grad = prior_grads.setdefault(rec.reduction, [0.0] * (dim + 1))
            targets = ref_dist_targets(rec)
            probs = _softmax([ref_dot(weights, m.features) for m, _ in targets])
            for (m, target), q in zip(targets, probs):
                if target > 0.0:
                    ce -= target * math.log(q) if q > 0.0 else -math.inf
                dz = (q - target) * scale
                for j, f in enumerate(m.features):
                    grad[j] += dz * f
                grad[dim] += dz
        loss += ce * scale
    return loss, value_grad, prior_grads


def ref_sgd_epoch(theta: ParamStore, examples: list, learning_rate: float) -> None:
    dim = len(FEATURE_NAMES)
    for rec in examples:
        if isinstance(rec, ValueRecord):
            w = theta.value_weights
            v = _sigmoid(ref_dot(w, rec.features))
            dz = 2.0 * (v - rec.value) * v * (1.0 - v)
            for j, f in enumerate(rec.features):
                w[j] -= learning_rate * dz * f
            w[dim] -= learning_rate * dz
        else:
            w = theta.prior_weights.setdefault(rec.reduction, [0.0] * (dim + 1))
            targets = ref_dist_targets(rec)
            probs = _softmax([ref_dot(w, m.features) for m, _ in targets])
            for (m, target), q in zip(targets, probs):
                dz = q - target
                for j, f in enumerate(m.features):
                    w[j] -= learning_rate * dz * f
                w[dim] -= learning_rate * dz


def ref_train(
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
    if store.is_empty:
        raise ValueError("quality store is empty")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    ref_check_dims(theta, store)
    if epochs == 0:
        return theta.copy()

    examples = ref_ordered_examples(store, curriculum)
    loss_before = ref_store_loss(theta, store)
    if not math.isfinite(loss_before):
        raise TrainDivergedError(f"initial loss is not finite: {loss_before}")

    lr = learning_rate
    result: ParamStore | None = None
    final_loss = loss_before
    for _ in range(4):
        candidate = theta.copy()
        for epoch in range(epochs):
            ref_sgd_epoch(candidate, examples, lr)
            epoch_loss = ref_store_loss(candidate, store)
            if not math.isfinite(epoch_loss):
                raise TrainDivergedError(
                    f"loss became non-finite in epoch {epoch + 1} at learning rate {lr}"
                )
        candidate_loss = ref_store_loss(candidate, store)
        if candidate_loss <= loss_before:
            result = candidate
            final_loss = candidate_loss
            break
        lr *= 0.5
    if result is None:
        result = theta.copy()

    result.examples_seen = theta.examples_seen + len(examples) * epochs
    result.last_loss = final_loss
    return result
