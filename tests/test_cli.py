import argparse
import json
import os
import re

import pytest

from reducto import cli
from reducto.cli import main
from reducto.dimacs import parse_dimacs
from reducto.learner import (
    REPLAY_WINDOW,
    ValueRecord,
    append_quality_log,
    load_params,
    load_quality_log,
    params_text,
    store_loss,
)
from reducto.sat import satisfies

SAT_TEXT = "p cnf 2 2\n1 -2 0\n2 0\n"
UNSAT_TEXT = "p cnf 1 2\n1 0\n-1 0\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REDUCTO_PARAMS", raising=False)
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_sat_instance(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        code, out, _ = run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
        assert code == 10
        assert "s SATISFIABLE" in out
        vline = next(l for l in out.splitlines() if l.startswith("v "))
        lits = [int(t) for t in vline[2:].split() if t != "0"]
        assert satisfies(frozenset(lits), parse_dimacs(SAT_TEXT))

    def test_v_line_lists_literals_by_variable(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", "p cnf 10 4\n-10 0\n2 0\n-3 0\n1 -2 0\n")
        code, out, _ = run(capsys, "solve", cnf, "--setup", "portfolio", "--no-train",
                           "--params", "p.json")
        assert code == 10
        assert "v 1 2 -3 -10 0" in out.splitlines()

    def test_unsat_instance(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", UNSAT_TEXT)
        code, out, _ = run(capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json")
        assert code == 20
        assert "s UNSATISFIABLE" in out

    def test_unknown_instance(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", UNSAT_TEXT)
        code, out, _ = run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
        assert code == 0
        assert "s UNKNOWN" in out

    def test_malformed_file(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", "p cnf nan 1\n1 0\n")
        code, _, err = run(capsys, "solve", cnf, "--params", "p.json")
        assert code == 1
        assert "error" in err

    def test_missing_file(self, workdir, capsys):
        code, _, err = run(capsys, "solve", "nope.cnf", "--params", "p.json")
        assert code == 1

    def test_stdin_input(self, workdir, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SAT_TEXT))
        code, out, _ = run(capsys, "solve", "-", "--setup", "flip", "--params", "p.json")
        assert code == 10

    def test_training_writes_params_and_delta_log(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        code, _, _ = run(capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json")
        assert code in (0, 10, 20)
        assert os.path.exists("p.json")
        assert os.path.exists("p.delta.jsonl")
        load_params("p.json")

    def test_no_train_leaves_no_params(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        code, _, _ = run(
            capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json", "--no-train"
        )
        assert not os.path.exists("p.json")
        assert not os.path.exists("p.delta.jsonl")
        assert not os.path.exists("p.json.lock")

    def test_no_train_solve_needs_no_writable_params_dir(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        params = str(workdir / "missing" / "p.json")
        code, out, err = run(capsys, "solve", cnf, "--params", params, "--no-train")
        assert code == 10, err
        assert "s SATISFIABLE" in out
        assert not os.path.exists(workdir / "missing")

    def test_env_var_sets_default_params_path(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("REDUCTO_PARAMS", str(workdir / "env-params.json"))
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        run(capsys, "solve", cnf, "--setup", "resolution")
        assert os.path.exists(workdir / "env-params.json")

    def test_corrupt_last_record_is_reported(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
        with open("p.delta.jsonl", "a") as handle:
            handle.write('{"kind": "value", "dig')
        code, _, err = run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
        assert code == 10
        assert "c skipped 1 corrupt quality records" in err

    def test_wrong_length_record_is_skipped_not_fatal(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
        doc = {"kind": "value", "digest": "x", "n_vars": 1, "features": [0.5] * 3,
               "value": 0.5, "visits": 1}
        with open("p.delta.jsonl", "a") as handle:
            handle.write(json.dumps(doc) + "\n")
        for _ in range(2):
            code, _, err = run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
            assert code == 10
            assert "c skipped 1 corrupt quality records" in err

    @pytest.mark.parametrize("text", ["[1]", '{"version": 1}', "{"])
    def test_malformed_params_file_is_one_error_line(self, workdir, capsys, text):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        params = write(workdir / "bad.json", text)
        for command in (["solve", cnf, "--params", params],
                        ["bench", "--setups", "flip", "--instances", "1", "--params", params]):
            code, out, err = run(capsys, *command)
            assert code == 1
            assert out == ""
            assert [l for l in err.splitlines() if l.startswith("error:")] == err.splitlines()
            assert len(err.splitlines()) == 1

    def test_solve_reads_only_the_end_of_the_log(self, workdir, capsys):
        # A corrupt line older than the replay window is never read.
        write(workdir / "p.delta.jsonl", "not json\n")
        filler = [ValueRecord(f"h{i}", 2, (0.5,) * 10, 0.5, 1) for i in range(REPLAY_WINDOW)]
        append_quality_log("p.delta.jsonl", filler)
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        code, _, err = run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
        assert code == 10
        assert "skipped" not in err
        assert load_quality_log("p.delta.jsonl")[1] == 1

    def test_prints_the_root_samples(self, workdir, capsys):
        # Unsatisfiable, so flip never wins; at horizon 1 no descent comes
        # back to the root, so the root runs a pass per unit of budget.
        cnf = write(workdir / "f.cnf", "p cnf 2 3\n-1 -2 0\n1 0\n2 0\n")
        code, out, _ = run(capsys, "solve", cnf, "--setup", "flip", "--no-train",
                           "--budget", "7", "--horizon", "1", "--params", "p.json")
        assert code == 0
        assert "c samples 7" in out.splitlines()
        code, out, _ = run(capsys, "solve", cnf, "--setup", "resolution", "--no-train",
                           "--params", "p.json")
        assert code == 20
        assert "c samples 1" in out.splitlines()

    def test_prints_the_training_loss_only_when_it_trains(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        code, out, _ = run(capsys, "solve", cnf, "--setup", "flip", "--params", "p.json")
        assert code == 10
        lines = [l for l in out.splitlines() if l.startswith("c train-loss ")]
        assert len(lines) == 1
        assert re.fullmatch(r"c train-loss \d+\.\d{6} \d+\.\d{6}", lines[0])
        code, out, _ = run(capsys, "solve", cnf, "--setup", "flip", "--no-train", "--params", "p.json")
        assert code == 10
        assert "train-loss" not in out

    def test_output_is_deterministic(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        outputs = set()
        for i in range(2):
            code, out, _ = run(
                capsys, "solve", cnf, "--setup", "resolution", "--params", f"p{i}.json",
            )
            assert code != 1
            outputs.add((code, out))
        assert len(outputs) == 1


class TestTrainCommand:
    def test_train_after_solves(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", UNSAT_TEXT)
        run(capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json")
        code, out, _ = run(
            capsys, "train", "--delta-log", "p.delta.jsonl", "--params", "p.json",
            "--epochs", "5",
        )
        assert code == 0
        lines = dict(
            l[2:].split(" ", 1) for l in out.splitlines() if l.startswith("c ")
        )
        assert float(lines["last-loss"]) <= float(lines["first-loss"]) + 1e-9

    def test_zero_epochs_keeps_params(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", UNSAT_TEXT)
        run(capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json")
        before = params_text(load_params("p.json"))
        code, _, _ = run(
            capsys, "train", "--delta-log", "p.delta.jsonl", "--params", "p.json",
            "--epochs", "0",
        )
        assert code == 0
        assert params_text(load_params("p.json")) == before

    @pytest.mark.parametrize("epochs", ["3", "0"])
    def test_printed_losses_are_the_store_losses(self, workdir, capsys, epochs):
        for text in (SAT_TEXT, UNSAT_TEXT):
            cnf = write(workdir / "f.cnf", text)
            run(capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json")
        store, _ = load_quality_log("p.delta.jsonl")
        before = load_params("p.json")
        code, out, _ = run(
            capsys, "train", "--delta-log", "p.delta.jsonl", "--params", "p.json",
            "--epochs", epochs,
        )
        assert code == 0
        lines = dict(l[2:].split(" ", 1) for l in out.splitlines() if l.startswith("c "))
        assert lines["first-loss"] == f"{store_loss(before, store):.6f}"
        assert lines["last-loss"] == f"{store_loss(load_params('p.json'), store):.6f}"
        if epochs == "0":
            assert lines["last-loss"] == lines["first-loss"]

    def test_missing_log_fails(self, workdir, capsys):
        code, _, err = run(capsys, "train", "--delta-log", "missing.jsonl")
        assert code == 1

    def test_unusable_log_fails(self, workdir, capsys):
        write(workdir / "junk.jsonl", "garbage\n")
        code, _, err = run(capsys, "train", "--delta-log", "junk.jsonl")
        assert code == 1
        assert "error" in err

    def test_curriculum_flag_accepted(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", UNSAT_TEXT)
        run(capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json")
        code, _, _ = run(
            capsys, "train", "--delta-log", "p.delta.jsonl", "--params", "p.json",
            "--curriculum", "--epochs", "2",
        )
        assert code == 0


class TestSelfcheckCommand:
    def test_small_selfcheck_passes(self, workdir, capsys):
        code, out, _ = run(
            capsys, "selfcheck", "--instances", "15", "--max-vars", "5",
            "--seed", "11", "--setup", "resolution",
        )
        assert code == 0
        assert "s SELFCHECK PASS" in out
        assert "c contradictions 0" in out

    def test_zero_instances_trivially_pass(self, workdir, capsys):
        code, out, _ = run(capsys, "selfcheck", "--instances", "0")
        assert code == 0
        assert "s SELFCHECK PASS" in out


class TestBenchCommand:
    def test_table_shape(self, workdir, capsys):
        code, out, _ = run(
            capsys, "bench", "--setups", "resolution,flip", "--instances", "4",
            "--max-vars", "4", "--seed", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("setup,instances,solved,solve_rate")
        assert len(lines) == 3
        assert lines[1].startswith("resolution,4,")
        assert lines[2].startswith("flip,4,")

    def test_table_deterministic_apart_from_wall_time(self, workdir, capsys):
        tables = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "bench", "--setups", "flip", "--instances", "4",
                "--max-vars", "4", "--seed", "2",
            )
            tables.append([l.rsplit(",", 1)[0] for l in out.strip().splitlines()])
        assert tables[0] == tables[1]

    def test_unknown_setup_rejected(self, workdir, capsys):
        code, _, err = run(capsys, "bench", "--setups", "quantum")
        assert code == 1
        assert "error" in err

    def test_trained_params_flag(self, workdir, capsys):
        cnf = write(workdir / "f.cnf", SAT_TEXT)
        run(capsys, "solve", cnf, "--setup", "resolution", "--params", "p.json")
        code, out, _ = run(
            capsys, "bench", "--setups", "flip", "--instances", "3",
            "--max-vars", "4", "--seed", "5", "--params", "p.json",
        )
        assert code == 0


class TestErrorLines:
    # Each of these ended in a traceback before main became the one place
    # that turns an exception into an error line.
    @pytest.mark.parametrize("argv", [
        pytest.param(["solve", "f.cnf", "--params", "no-such-dir/p.json"],
                     id="params-in-missing-dir"),
        pytest.param(["solve", "f.cnf", "--params", "p.json", "--delta-log", "no-such-dir/d.jsonl"],
                     id="delta-log-in-missing-dir"),
        pytest.param(["train", "--delta-log", "a-directory", "--params", "p.json"],
                     id="delta-log-is-a-directory"),
        pytest.param(["train", "--delta-log", "missing.jsonl", "--params", "p.json"],
                     id="delta-log-missing"),
        pytest.param(["selfcheck", "--instances", "10", "--max-vars", "40", "--seed", "1",
                      "--budget", "1", "--horizon", "1"], id="max-vars-above-oracle-limit"),
        pytest.param(["selfcheck", "--instances", "-1"], id="selfcheck-negative-instances"),
        pytest.param(["bench", "--instances", "-1"], id="bench-negative-instances"),
        pytest.param(["bench", "--setups", ","], id="bench-no-setups"),
        # Each of these settings was accepted, or overflowed, before any check.
        pytest.param(["solve", "f.cnf", "--no-train", "--exploration", "nan"], id="exploration-nan"),
        pytest.param(["solve", "f.cnf", "--no-train", "--exploration", "inf"], id="exploration-inf"),
        pytest.param(["selfcheck", "--instances", "3", "--ratio", "inf"], id="selfcheck-ratio-inf"),
        pytest.param(["selfcheck", "--instances", "3", "--ratio", "-1"], id="selfcheck-ratio-negative"),
        pytest.param(["selfcheck", "--instances", "3", "--ratio", "0"], id="selfcheck-ratio-zero"),
        pytest.param(["bench", "--instances", "3", "--ratio", "-1"], id="bench-ratio-negative"),
        pytest.param(["solve", "f.cnf", "--setup", "flip", "--params", "p.json", "--lr", "0"],
                     id="solve-lr-zero"),
        pytest.param(["solve", "f.cnf", "--setup", "flip", "--params", "p.json", "--lr", "-0.05"],
                     id="solve-lr-negative"),
    ])
    def test_failure_is_one_error_line(self, workdir, capsys, argv):
        write(workdir / "f.cnf", SAT_TEXT)
        (workdir / "a-directory").mkdir()
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert [l for l in err.splitlines() if l.startswith("error:")] == err.splitlines()
        assert len(err.splitlines()) == 1

    def test_unwritable_quality_log_fails_before_the_search(self, workdir, capsys, monkeypatch):
        write(workdir / "f.cnf", SAT_TEXT)
        calls = []
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: calls.append(args))
        code, out, err = run(
            capsys, "solve", "f.cnf", "--params", "p.json", "--delta-log", "no-such-dir/d.jsonl"
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert calls == []


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_bad_flag(self, capsys):
        assert main(["solve", "x.cnf", "--bogus"]) == 1

    def test_calls_share_one_parser_and_parse_independently(self, workdir, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        cnf = write(workdir / "f.cnf", UNSAT_TEXT)
        # flip cannot decide the instance; the later call's default setup can.
        code, out, _ = run(capsys, "solve", cnf, "--setup", "flip", "--no-train")
        assert code == 0 and "s UNKNOWN" in out
        assert main(["solve", cnf, "--bogus"]) == 1
        code, out, _ = run(capsys, "solve", cnf, "--no-train")
        assert code == 20 and "s UNSATISFIABLE" in out
        assert len(parsers) == 3
        assert all(p is cli.build_parser() for p in parsers)
