import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasar_opt.cli as cli
import quasar_opt.core as core
import quasar_opt.harness as harness
import quasar_opt.quasar as quasar_mod
import quasar_opt.sampling as sampling
from quasar_opt import (
    BoundsBox,
    DeConfig,
    ExperimentPlan,
    QuasarConfig,
    de_optimize,
    emit_summary,
    optimize,
    run_plan,
)
from quasar_opt.cli import main as cli_main
from quasar_opt.benchmarks import BASE_FUNCTIONS, make_suite, suite_manifest
from quasar_opt.harness import (ALGORITHMS, CSV_HEADER, TrialRecord,
                                derive_seed, load_records)

SRC = Path(__file__).resolve().parents[1] / "src"

TINY = dict(dims=[5], pop_sizes=[20], g_max=5, trials=3,
            master_seed=7, suite_seed=1, functions=["sphere"])


def read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished run of TINY with both algorithms; tests copy it before
    they change it."""
    out = tmp_path_factory.mktemp("finished")
    run_plan(ExperimentPlan(**TINY), out)
    return out


class Killed(Exception):
    pass


def kill_mid_write(monkeypatch, name):
    """Make Path.write_text write only the first 10 characters of a file
    whose name starts with ``name``, then raise Killed, as a kill mid-write
    would."""
    real_write = Path.write_text

    def killed_mid_write(path, text, *args, **kwargs):
        if path.name.startswith(name):
            real_write(path, text[:10], *args, **kwargs)
            raise Killed
        return real_write(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", killed_mid_write)


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with an in-process stand-in: each job runs
    as a worker would run it, with no set-up of its own before the first.
    Returns the max_workers of each pool created, so no test has to start
    processes to see the pool size."""
    created = []

    class InlinePool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return created


class TestDeriveSeed:
    def test_stable(self):
        a = derive_seed(1, "quasar", "sphere", 10, 100, 0)
        b = derive_seed(1, "quasar", "sphere", 10, 100, 0)
        assert a == b

    def test_sensitive_to_every_coordinate(self):
        base = derive_seed(1, "quasar", "sphere", 10, 100, 0)
        assert base != derive_seed(2, "quasar", "sphere", 10, 100, 0)
        assert base != derive_seed(1, "de", "sphere", 10, 100, 0)
        assert base != derive_seed(1, "quasar", "ackley", 10, 100, 0)
        assert base != derive_seed(1, "quasar", "sphere", 30, 100, 0)
        assert base != derive_seed(1, "quasar", "sphere", 10, 300, 0)
        assert base != derive_seed(1, "quasar", "sphere", 10, 100, 1)

    def test_64_bit_range(self):
        s = derive_seed(0, "de", "levy", 50, 1000, 29)
        assert 0 <= s < 2 ** 64

    # Seeds are the resume key of records.csv: a change here orphans every
    # existing file, so the values are pinned.
    @pytest.mark.parametrize("coords, seed", [
        ((42, "quasar", "sphere", 10, 100, 0), 7551343090872066021),
        ((42, "de", "rastrigin", 30, 300, 9), 8916577333730638963),
        ((0, "quasar", "ackley", 2, 5, 0), 4829345620556442818),
        ((7, "de", "levy", 100, 1000, 29), 7116412333038652244),
        ((2**63, "quasar", "bent_cigar", 50, 60, 3), 13878759456983874394),
    ])
    def test_pinned(self, coords, seed):
        assert derive_seed(*coords) == seed


class TestPlan:
    def test_cells_by_mode(self):
        plan = ExperimentPlan(mode="dim", dims=[10, 30], pop_sizes=[100, 300])
        assert plan.cells() == [(10, 100), (30, 100)]
        plan = ExperimentPlan(mode="sample", dims=[10, 30], pop_sizes=[100, 300])
        assert plan.cells() == [(10, 100), (10, 300)]
        plan = ExperimentPlan(mode="custom", dims=[10, 30], pop_sizes=[100, 300])
        assert len(plan.cells()) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(mode="bogus")
        with pytest.raises(ValueError):
            ExperimentPlan(trials=0)
        with pytest.raises(ValueError):
            ExperimentPlan(algorithms=["simulated-annealing"])
        with pytest.raises(ValueError, match="functions must be nonempty"):
            ExperimentPlan(functions=[])
        with pytest.raises(ValueError, match=r"unknown suite functions: "
                                             r"\['nope'\]"):
            ExperimentPlan(functions=["sphere", "nope"])

    def test_checked_plan_cannot_change(self):
        plan = ExperimentPlan(**TINY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.g_max = -1
        assert plan.g_max == TINY["g_max"]

    def test_checked_sequences_cannot_change(self):
        # The caller's lists are copied into tuples: appending to them, or
        # to the plan's fields, cannot stop a checked plan midway.
        dims, functions = [5], ["sphere"]
        plan = ExperimentPlan(**dict(TINY, dims=dims, functions=functions))
        dims.append(1)
        functions.append("nope")
        assert plan.dims == (5,) and plan.functions == ("sphere",)
        for name in ("dims", "pop_sizes", "algorithms", "functions"):
            with pytest.raises(AttributeError):
                getattr(plan, name).append(1)

    def test_repeated_entries_refused(self):
        with pytest.raises(ValueError, match=r"pop_sizes repeats \[20\]"):
            ExperimentPlan(dims=[5], pop_sizes=[20, 30, 20])
        with pytest.raises(ValueError, match=r"algorithms repeats \['de'\]"):
            ExperimentPlan(algorithms=["de", "quasar", "de"])

    # Each of these used to raise a bare TypeError from the repeat check,
    # which sorts and hashes the values, before any element was checked.
    @pytest.mark.parametrize("field,values,message", [
        ("pop_sizes", [20, "a", 20, "a"],
         "pop_sizes must be an integer, got 'a'"),
        ("dims", [[5], [5]], "dims must be an integer, got [5]"),
        ("algorithms", ["de", None, "de", None],
         "algorithms must list strings, got None"),
        ("functions", [1, "sphere", 1, "sphere"],
         "functions must list strings, got 1"),
    ])
    def test_bad_elements_named_before_repeats(self, field, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentPlan(**dict(TINY, **{field: values}))

    def test_population_below_an_algorithms_minimum_refused(self):
        # DE needs 4 members, QUASAR 5: pop 4 is fine for DE alone.
        ExperimentPlan(dims=[5], pop_sizes=[4], algorithms=["de"])
        with pytest.raises(ValueError, match="de cannot run pop 3"):
            ExperimentPlan(dims=[5], pop_sizes=[3], algorithms=["de"])
        # Only the pops the plan runs count: mode "dim" runs the first.
        ExperimentPlan(mode="dim", dims=[5], pop_sizes=[20, 3])

    # Each of these used to pass validation: a float g_max wrote unloadable
    # rows, float trials or dims raised TypeError mid-run, and a float or
    # negative suite_seed ran another suite than plan.json records.
    @pytest.mark.parametrize("field,value", [
        ("g_max", 2.0), ("g_max", True), ("trials", 2.0), ("dims", (5.0,)),
        ("suite_seed", 1.5), ("suite_seed", -1),
    ])
    def test_integer_fields_named_up_front(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            ExperimentPlan(**dict(TINY, **{field: value}))

    # A string used to pass as the list of its letters (algorithms "de"
    # was refused as ('d', 'e'), functions "sphere" as unknown letters),
    # and a bare int raised a TypeError that named no field.
    @pytest.mark.parametrize("field,value", [
        ("dims", 10), ("dims", "10"), ("pop_sizes", 20), ("pop_sizes", "20"),
        ("algorithms", "de"), ("functions", "sphere"), ("functions", 1),
    ])
    def test_string_or_scalar_list_named_up_front(self, field, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be a list, got {value!r}")):
            ExperimentPlan(**dict(TINY, **{field: value}))

    def test_negative_master_seed_runs(self, tmp_path):
        plan = ExperimentPlan(**dict(TINY, master_seed=-5, trials=1))
        run_plan(plan, tmp_path)
        _, rows = read_rows(tmp_path / "records.csv")
        assert [int(r[6]) for r in rows] == [
            derive_seed(-5, algo, "sphere", 5, 20, 0) for algo in ALGORITHMS]


class TestRunPlan:
    def test_csv_header_pinned(self):
        # Derived from TrialRecord's field order; existing files need it.
        assert CSV_HEADER == ("algo,function,dim,pop,gmax,trial,seed,"
                              "final_error,runtime_sec,evals")

    def test_row_cardinality(self, tmp_path):
        plan = ExperimentPlan(algorithms=["quasar", "de"], **TINY)
        run_plan(plan, tmp_path)
        header, rows = read_rows(tmp_path / "records.csv")
        assert header == CSV_HEADER
        assert len(rows) == 1 * 1 * 2 * 3  # functions * cells * algos * trials

    def test_resume_is_idempotent(self, tmp_path, monkeypatch):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path)
        calls = {"n": 0}
        real = harness.run_trial

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", counting)
        run_plan(plan, tmp_path)
        assert calls["n"] == 0
        _, rows = read_rows(tmp_path / "records.csv")
        assert len(rows) == 3

    def test_partial_resume_completes_missing_rows(self, tmp_path):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path)
        records = (tmp_path / "records.csv").read_text().strip().splitlines()
        (tmp_path / "records.csv").write_text("\n".join(records[:-1]) + "\n")
        run_plan(plan, tmp_path)
        _, rows = read_rows(tmp_path / "records.csv")
        assert len(rows) == 3

    def test_torn_final_row_is_rerun(self, tmp_path):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path)
        path = tmp_path / "records.csv"
        _, finished = read_rows(path)
        # Cut inside the last row's final field: it has no newline, so it
        # is not read, though its fields would still parse.
        path.write_bytes(path.read_bytes()[:-2])
        assert len(load_records(path)) == 2
        run_plan(plan, tmp_path)
        _, rows = read_rows(path)
        strip = lambda rows: [r[:8] + r[9:] for r in rows]  # drop runtime col
        assert strip(rows) == strip(finished)
        resumed = path.read_bytes()
        run_plan(plan, tmp_path)
        assert path.read_bytes() == resumed

    def test_torn_header_resumes(self, tmp_path):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path / "fresh")
        torn = tmp_path / "torn"
        torn.mkdir()
        (torn / "records.csv").write_text(CSV_HEADER[:16])
        run_plan(plan, torn)
        header, rows = read_rows(torn / "records.csv")
        _, fresh = read_rows(tmp_path / "fresh" / "records.csv")
        strip = lambda rows: [r[:8] + r[9:] for r in rows]  # drop runtime col
        assert header == CSV_HEADER
        assert strip(rows) == strip(fresh)

    def test_plan_json_survives_a_kill_mid_write(self, tmp_path, monkeypatch):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path)
        plan_json = (tmp_path / "plan.json").read_text()
        kill_mid_write(monkeypatch, "plan.json")
        with pytest.raises(Killed):
            run_plan(plan, tmp_path)
        monkeypatch.undo()
        assert (tmp_path / "plan.json").read_text() == plan_json
        run_plan(plan, tmp_path)
        assert (tmp_path / "plan.json").read_text() == plan_json
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "plan.json", "plot_data.csv", "records.csv", "summary.json"]

    @pytest.mark.parametrize("name", ["summary.json", "plot_data.csv"])
    def test_summary_files_survive_a_kill_mid_write(self, tmp_path,
                                                    monkeypatch, name):
        plan = ExperimentPlan(**TINY)
        run_plan(plan, tmp_path)
        before = (tmp_path / name).read_bytes()
        kill_mid_write(monkeypatch, name)
        with pytest.raises(Killed):
            run_plan(plan, tmp_path)
        monkeypatch.undo()
        assert (tmp_path / name).read_bytes() == before
        run_plan(plan, tmp_path)
        assert (tmp_path / name).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "plan.json", "plot_data.csv", "records.csv", "summary.json"]

    @pytest.mark.parametrize("text", ["", '{"g_max": 5', "[]"],
                             ids=["empty", "torn", "not_an_object"])
    def test_unreadable_plan_json_named(self, tmp_path, capsys, text):
        run_plan(ExperimentPlan(algorithms=["quasar"], **TINY), tmp_path)
        (tmp_path / "plan.json").write_text(text)
        code = cli_main(["run", "--dims", "5", "--pops", "20", "--gmax", "5",
                         "--trials", "3", "--seed", "7", "--algos", "quasar",
                         "--functions", "sphere", "--out", str(tmp_path)])
        assert code == 2
        assert f"{tmp_path / 'plan.json'}: unreadable plan" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("g_max", 7, "line 2: gmax 5 and seed {seed} are not this plan's "
                     "(7, {seed})"),
        ("master_seed", 8, "line 2: gmax 5 and seed {seed} are not this "
                           "plan's (5, {new_seed})"),
    ], ids=["gmax", "master_seed"])
    def test_rows_of_another_plan_refused(self, tmp_path, monkeypatch,
                                          field, value, message):
        run_plan(ExperimentPlan(algorithms=["quasar"], **TINY), tmp_path)
        (tmp_path / "plan.json").unlink()
        path = tmp_path / "records.csv"
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        records = path.read_bytes()

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        stale = ExperimentPlan(algorithms=["quasar"],
                               **dict(TINY, **{field: value}))
        with pytest.raises(ValueError) as err:
            run_plan(stale, tmp_path)
        seed = derive_seed(7, "quasar", "sphere", 5, 20, 0)
        new_seed = derive_seed(8, "quasar", "sphere", 5, 20, 0)
        assert f"{path}: {message.format(seed=seed, new_seed=new_seed)}" \
            in str(err.value)
        assert path.read_bytes() == records
        assert not (tmp_path / "plan.json").exists()

    def test_rows_without_plan_json_refused(self, tmp_path, capsys,
                                            monkeypatch):
        # Rows do not carry suite_seed, so without plan.json a rerun with
        # another suite would append trials of a different suite.
        args = ["run", "--dims", "5", "--pops", "20", "--trials", "2",
                "--gmax", "2", "--functions", "sphere", "--algos", "quasar",
                "--out", str(tmp_path)]
        assert cli_main(args + ["--suite-seed", "1"]) == 0
        (tmp_path / "plan.json").unlink()
        path = tmp_path / "records.csv"
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        records = path.read_bytes()

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        capsys.readouterr()
        assert cli_main(args + ["--suite-seed", "2"]) == 2
        assert f"{path} has rows but {tmp_path / 'plan.json'} is missing" in \
            capsys.readouterr().err
        assert path.read_bytes() == records
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("gmax,message", [
        ("5", "has rows but {out}/plan.json is missing"),
        ("7", "line 2: gmax 5 and seed"),
    ], ids=["no_plan_json", "gmax"])
    def test_refused_resume_changes_no_byte(self, tmp_path, capsys,
                                            monkeypatch, finished_run, gmax,
                                            message):
        # The torn last row must survive a refusal: only a run that goes
        # ahead cuts it.
        out = tmp_path / "d"
        shutil.copytree(finished_run, out)
        (out / "plan.json").unlink()
        path = out / "records.csv"
        path.write_bytes(path.read_bytes()[:-2])
        torn = path.read_bytes()

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        capsys.readouterr()
        assert cli_main(["run", "--dims", "5", "--pops", "20", "--gmax", gmax,
                         "--trials", "3", "--seed", "7", "--functions",
                         "sphere", "--out", str(out)]) == 2
        assert message.format(out=out) in capsys.readouterr().err
        assert path.read_bytes() == torn
        assert sorted(p.name for p in out.iterdir()) == [
            "plot_data.csv", "records.csv", "summary.json"]

    def test_non_ascii_function_row_refused_as_foreign(self, tmp_path,
                                                       capsys, finished_run):
        # derive_seed hashes the key's UTF-8 bytes, so a row naming a
        # function outside ASCII is checked like any other row.
        out = tmp_path / "d"
        shutil.copytree(finished_run, out)
        path = out / "records.csv"
        data = path.read_bytes().replace(b",sphere,", ",sphère,".encode(), 1)
        path.write_bytes(data)
        algo, function, dim, pop, gmax, trial, seed = \
            data.decode().splitlines()[1].split(",")[:7]
        capsys.readouterr()
        assert cli_main(["run", "--dims", "5", "--pops", "20", "--gmax", "5",
                         "--trials", "3", "--seed", "7", "--functions",
                         "sphere", "--out", str(out)]) == 2
        expected = derive_seed(7, algo, function, int(dim), int(pop),
                               int(trial))
        assert f"{path}: line 2: gmax 5 and seed {seed} are not this " \
               f"plan's (5, {expected})" in capsys.readouterr().err
        assert path.read_bytes() == data

    def test_blank_line_refused_with_its_number(self, tmp_path, capsys,
                                                finished_run):
        # A blank line is a malformed row, so the foreign row after it
        # cannot be reported under another line number.
        out = tmp_path / "d"
        shutil.copytree(finished_run, out)
        path = out / "records.csv"
        header, first, second, third, *rest = \
            path.read_text().splitlines(True)
        fields = third.split(",")
        fields[6] = str(int(fields[6]) + 1)
        data = "".join([header, first, "\n", second, ",".join(fields), *rest])
        path.write_text(data)
        for args in (["run", "--dims", "5", "--pops", "20", "--gmax", "5",
                      "--trials", "3", "--seed", "7", "--functions", "sphere",
                      "--out", str(out)], ["summarize", "--in", str(out)]):
            capsys.readouterr()
            assert cli_main(args) == 2
            assert f"{path}: line 3: expected 10 fields, got 0" in \
                capsys.readouterr().err
            assert path.read_text() == data

    def test_header_only_records_without_plan_json_start_fresh(self, tmp_path):
        # A header-only records.csv holds no row that plan.json would have
        # to vouch for.
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path / "fresh")
        (tmp_path / "records.csv").write_text(CSV_HEADER + "\n")
        run_plan(plan, tmp_path)
        _, rows = read_rows(tmp_path / "records.csv")
        _, fresh = read_rows(tmp_path / "fresh" / "records.csv")
        strip = lambda rows: [r[:8] + r[9:] for r in rows]  # drop runtime col
        assert strip(rows) == strip(fresh)
        assert (tmp_path / "plan.json").read_text() == \
            (tmp_path / "fresh" / "plan.json").read_text()

    def test_changed_result_fields_refused(self, tmp_path, capsys):
        run_plan(ExperimentPlan(algorithms=["quasar"], **TINY), tmp_path)
        plan_json = (tmp_path / "plan.json").read_text()
        records = (tmp_path / "records.csv").read_text()
        stale = dict(TINY, g_max=50, master_seed=8)
        with pytest.raises(ValueError) as err:
            run_plan(ExperimentPlan(algorithms=["quasar"], **stale), tmp_path)
        assert "g_max: 5 there, 50 now" in str(err.value)
        assert "master_seed: 7 there, 8 now" in str(err.value)
        assert "suite_seed" not in str(err.value)
        code = cli_main(["run", "--dims", "5", "--pops", "20", "--gmax", "5",
                         "--trials", "3", "--seed", "7", "--suite-seed", "2",
                         "--algos", "quasar", "--functions", "sphere",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "suite_seed: 1 there, 2 now" in capsys.readouterr().err
        assert (tmp_path / "plan.json").read_text() == plan_json
        assert (tmp_path / "records.csv").read_text() == records

    def test_larger_plan_resumes(self, tmp_path):
        run_plan(ExperimentPlan(algorithms=["quasar"], **TINY), tmp_path)
        before = (tmp_path / "records.csv").read_text()
        grown = dict(TINY, dims=[5, 6], pop_sizes=[20, 30], trials=4,
                     functions=["sphere", "rastrigin"])
        run_plan(ExperimentPlan(algorithms=["quasar", "de"], **grown), tmp_path)
        after = (tmp_path / "records.csv").read_text()
        assert after.startswith(before)
        assert len(after.splitlines()) == 1 + 4 * 2 * 2 * 4  # cells*fns*algos*trials

    def test_deterministic_across_directories(self, tmp_path):
        plan = ExperimentPlan(algorithms=["quasar", "de"], **TINY)
        run_plan(plan, tmp_path / "a")
        run_plan(plan, tmp_path / "b")
        _, rows_a = read_rows(tmp_path / "a" / "records.csv")
        _, rows_b = read_rows(tmp_path / "b" / "records.csv")
        strip = lambda rows: [r[:8] + r[9:] for r in rows]  # drop runtime col
        assert strip(rows_a) == strip(rows_b)

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path / "serial")
        monkeypatch.setenv(harness.WORKERS_ENV, "2")
        run_plan(plan, tmp_path / "parallel")
        _, rows_s = read_rows(tmp_path / "serial" / "records.csv")
        _, rows_p = read_rows(tmp_path / "parallel" / "records.csv")
        errors = lambda rows: [r[7] for r in rows]
        assert errors(rows_s) == errors(rows_p)

    @pytest.mark.parametrize("env,pools", [("1", []), ("2", [2]),
                                           ("5000", [3])])
    def test_pool_never_larger_than_the_jobs(self, tmp_path, monkeypatch,
                                             inline_pool, env, pools):
        monkeypatch.setenv(harness.WORKERS_ENV, env)
        run_plan(ExperimentPlan(algorithms=["quasar"], **TINY), tmp_path)
        assert inline_pool == pools
        _, rows = read_rows(tmp_path / "records.csv")
        assert len(rows) == 3

    def test_resume_builds_no_suite(self, tmp_path, monkeypatch):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path)
        harness._suite.cache_clear()
        calls = []
        real = harness.make_suite
        monkeypatch.setattr(harness, "make_suite",
                            lambda *a: calls.append(a) or real(*a))
        run_plan(plan, tmp_path)
        assert calls == []

    @pytest.mark.parametrize("error", [ValueError, FloatingPointError])
    def test_failed_trial_row_serial_and_pooled(self, tmp_path, monkeypatch,
                                                error):
        plan = ExperimentPlan(**TINY)
        bad = derive_seed(7, "quasar", "sphere", 5, 20, 1)
        real = quasar_mod.optimize

        def fails_once(fn, bounds, cfg):
            if cfg.seed == bad:
                raise error("objective failed")
            return real(fn, bounds, cfg)

        # Forked workers inherit the patched optimizer.
        monkeypatch.setattr(quasar_mod, "optimize", fails_once)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            functools.partial(
                                concurrent.futures.ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context("fork")))
        run_plan(plan, tmp_path / "serial")
        monkeypatch.setenv(harness.WORKERS_ENV, "2")
        run_plan(plan, tmp_path / "pool")
        strip = lambda rows: [r[:8] + r[9:] for r in rows]  # drop runtime col
        _, serial = read_rows(tmp_path / "serial" / "records.csv")
        _, pooled = read_rows(tmp_path / "pool" / "records.csv")
        assert strip(pooled) == strip(serial)
        for out in ("serial", "pool"):
            _, rows = read_rows(tmp_path / out / "records.csv")
            failed = [r for r in rows if int(r[6]) == bad]
            assert [r[7:] for r in failed] == [["nan", "nan", "0"]]
            assert all(np.isfinite(float(r[7])) and np.isfinite(float(r[8]))
                       and int(r[9]) > 0 for r in rows if r not in failed)
            assert len(rows) == 2 * 3
            summary = json.loads((tmp_path / out / "summary.json").read_text())
            assert summary["n_failed_trials"] == 1

    @settings(derandomize=True, database=None, max_examples=3, deadline=None)
    @given(st.builds(
        ExperimentPlan,
        dims=st.lists(st.integers(2, 6), min_size=1, max_size=2, unique=True),
        pop_sizes=st.lists(st.integers(5, 12), min_size=1, max_size=2,
                           unique=True),
        g_max=st.integers(0, 3),
        trials=st.integers(1, 2),
        master_seed=st.integers(0, 2**31),
        suite_seed=st.integers(0, 9),
        functions=st.lists(st.sampled_from(sorted(BASE_FUNCTIONS)),
                           min_size=1, max_size=3, unique=True)))
    def test_random_plan_pool_matches_serial(self, plan):
        """A 2-worker pool writes the serial records.csv, runtimes aside."""
        def records(out, workers):
            with mock.patch.dict(os.environ, {harness.WORKERS_ENV: workers}):
                run_plan(plan, out)
            header, rows = read_rows(out / "records.csv")
            runtime = header.split(",").index("runtime_sec")
            return [r[:runtime] + r[runtime + 1:] for r in rows]

        with tempfile.TemporaryDirectory() as tmp:
            serial = records(Path(tmp) / "serial", "1")
            assert len(serial) == (len(plan.cells()) * plan.trials
                                   * len(plan.functions) * 2)
            assert serial == records(Path(tmp) / "pool", "2")

    def test_save_traces(self, tmp_path):
        plan = ExperimentPlan(algorithms=["quasar"], save_traces=True, **TINY)
        run_plan(plan, tmp_path)
        traces = sorted((tmp_path / "traces").glob("*.csv"))
        assert len(traces) == 3
        trace = np.loadtxt(traces[0])
        assert trace.shape == (TINY["g_max"] + 1,)
        assert np.all(np.diff(trace) <= 0)


class TestSamplerWarmUp:
    """The Sobol table loads once per process, before the first run's clock
    starts, so no trial's runtime_sec holds that one-time set-up."""

    @pytest.fixture
    def events(self, monkeypatch):
        """'load' for each read of the table and 'clock' for each clock
        reading of a run (its start and its end), in the order they
        happen."""
        events = []
        real_load = sampling._joe_kuo
        sampling._direction_numbers.cache_clear()
        monkeypatch.setattr(sampling, "_joe_kuo",
                            lambda d: events.append("load") or real_load(d))
        clock = core.time.perf_counter
        monkeypatch.setattr(core, "time", SimpleNamespace(
            perf_counter=lambda: events.append("clock") or clock()))
        return events

    @pytest.mark.parametrize("run,cfg", [(optimize, QuasarConfig),
                                         (de_optimize, DeConfig)])
    def test_optimizers_load_before_their_clock(self, events, run, cfg):
        box = BoundsBox.cube(-1.0, 1.0, 3)
        run(lambda x: float(x @ x), box, cfg(pop_size=8, g_max=2))
        assert events == ["load", "clock", "clock"]

    def test_serial_warms_once_before_first_trial(self, tmp_path, events):
        run_plan(ExperimentPlan(algorithms=["quasar"], **TINY), tmp_path)
        assert events == ["load"] + ["clock"] * 6

    def test_finished_directory_does_not_warm(self, tmp_path, monkeypatch):
        plan = ExperimentPlan(algorithms=["quasar"], **TINY)
        run_plan(plan, tmp_path)
        events = []
        monkeypatch.setattr(sampling, "_direction_numbers",
                            lambda d: events.append("load"))
        run_plan(plan, tmp_path)
        assert events == []

    def test_pool_workers_warm_before_their_trials(self, tmp_path, events,
                                                   monkeypatch, inline_pool):
        monkeypatch.setenv(harness.WORKERS_ENV, "2")
        run_plan(ExperimentPlan(algorithms=["quasar"], **TINY), tmp_path)
        assert events == ["load"] + ["clock"] * 6


def write_records(path, rows):
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")


def synthetic_rows(errors_by_algo, functions=("f1", "f2"), dim=10, pop=50):
    rows = []
    for fi, fn in enumerate(functions):
        for algo, errs in errors_by_algo.items():
            for t, e in enumerate(errs[fi]):
                rows.append(f"{algo},{fn},{dim},{pop},5,{t},1,{e!r},0.5,100")
    return rows


EDGE_ERRORS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
               5e-324, 2.2250738585072014e-308 / 3, 0.1, 1 / 3, 1e308]

trial_records = st.builds(
    TrialRecord,
    algo=st.sampled_from(ALGORITHMS),
    function=st.sampled_from(sorted(BASE_FUNCTIONS)),
    dim=st.integers(2, 10**4), pop=st.integers(4, 10**5),
    gmax=st.integers(0, 10**6), trial=st.integers(0, 10**4),
    seed=st.integers(0, 2**64 - 1),
    final_error=st.one_of(st.sampled_from(EDGE_ERRORS), st.floats()),
    runtime_sec=st.floats(0.0, 1e6), evals=st.integers(0, 10**9))


class TestRecordsCsv:
    @settings(derandomize=True, database=None, max_examples=200)
    @given(st.lists(trial_records, min_size=1, max_size=5))
    def test_csv_row_round_trip(self, records):
        # final_error is written with repr, so it must come back bit for
        # bit (NaN, signed zero, subnormals); runtime_sec keeps 6 decimals.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(path, [r.csv_row() for r in records])
            loaded = load_records(path)
        assert len(loaded) == len(records)
        for got, want in zip(loaded, records):
            assert repr(got.final_error) == repr(want.final_error)
            assert got.runtime_sec == float(f"{want.runtime_sec:.6f}")
            assert (dataclasses.replace(got, final_error=0.0, runtime_sec=0.0)
                    == dataclasses.replace(want, final_error=0.0,
                                           runtime_sec=0.0))


# Finite doubles: signed zeros, subnormals and magnitudes up to 1e300.
finite_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_subnormal=True))


class TestMedian:
    @settings(derandomize=True, database=None, max_examples=500)
    @given(st.one_of(
        st.lists(finite_floats, min_size=1, max_size=60),
        # Few distinct values, so most lists are full of duplicates.
        st.lists(finite_floats, min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=60))))
    def test_equals_np_median(self, values):
        values = np.array(values)
        got = harness._median(values)
        assert type(got) is float
        assert repr(got) == repr(float(np.median(values)))


class TestEmitSummary:
    def test_dominant_algorithm_friedman(self, tmp_path):
        # quasar strictly best in every scenario: rank sum = #scenarios.
        rows = synthetic_rows({
            "quasar": [[0.1] * 6, [0.2] * 6],
            "de": [[1.0] * 6, [2.0] * 6],
        })
        write_records(tmp_path / "records.csv", rows)
        table = emit_summary(tmp_path / "records.csv")
        assert table.rank_sums["quasar"] == 2.0
        assert table.rank_sums["de"] == 4.0

    def test_two_algorithm_equality(self, tmp_path):
        errs = [[0.5, 0.4, 0.3, 0.7, 0.6, 0.2]] * 2
        rows = synthetic_rows({"quasar": errs, "de": errs})
        write_records(tmp_path / "records.csv", rows)
        table = emit_summary(tmp_path / "records.csv")
        for sc in table.scenarios:
            assert sc.gmerf["de"] == pytest.approx(1.0)
            assert sc.p_error["de"] > 0.9
        assert table.gmerf_overall["de"] == pytest.approx(1.0)

    def test_hand_built_2x2_matches_stats_oracles(self, tmp_path):
        from quasar_opt import gmerf as gmerf_fn
        q1, d1 = [1.0, 2.0, 4.0, 1.0, 2.0], [2.0, 4.0, 8.0, 2.0, 4.0]
        q2, d2 = [0.1, 0.2, 0.4, 0.1, 0.2], [0.4, 0.8, 1.6, 0.4, 0.8]
        rows = synthetic_rows({"quasar": [q1, q2], "de": [d1, d2]})
        write_records(tmp_path / "records.csv", rows)
        table = emit_summary(tmp_path / "records.csv")
        assert table.scenarios[0].gmerf["de"] == pytest.approx(gmerf_fn(d1, q1))
        assert table.scenarios[1].gmerf["de"] == pytest.approx(gmerf_fn(d2, q2))
        assert table.gmerf_overall["de"] == pytest.approx(
            np.sqrt(gmerf_fn(d1, q1) * gmerf_fn(d2, q2)))

    def test_summary_json_round_trip(self, tmp_path):
        rows = synthetic_rows({
            "quasar": [[0.1, 0.3, 0.2, 0.15, 0.25, 0.1]] * 2,
            "de": [[0.4, 0.5, 0.45, 0.35, 0.55, 0.6]] * 2,
        })
        write_records(tmp_path / "records.csv", rows)
        table = emit_summary(tmp_path / "records.csv")
        parsed = json.loads((tmp_path / "summary.json").read_text())
        assert parsed == json.loads(json.dumps(dataclasses.asdict(table)))

    def test_plot_data_csv(self, tmp_path):
        rows = synthetic_rows({
            "quasar": [[0.1] * 5, [0.2] * 5],
            "de": [[1.0] * 5, [2.0] * 5],
        })
        write_records(tmp_path / "records.csv", rows)
        emit_summary(tmp_path / "records.csv")
        lines = (tmp_path / "plot_data.csv").read_text().strip().splitlines()
        assert lines[0] == "algo,function,dim,pop,gm_error,mean_runtime_sec"
        assert len(lines) == 1 + 2 * 2  # scenarios * algorithms

    def test_failed_rows_skipped_and_counted(self, tmp_path):
        rows = synthetic_rows({
            "quasar": [[0.1] * 5, [0.2] * 5],
            "de": [[1.0] * 5, [2.0] * 5],
        })
        rows.append("quasar,f1,10,50,5,9,1,nan,nan,0")
        write_records(tmp_path / "records.csv", rows)
        table = emit_summary(tmp_path / "records.csv")
        assert table.n_failed_trials == 1
        assert all(sc.n_trials == 5 for sc in table.scenarios)

    def test_malformed_row_reports_line_number(self, tmp_path):
        write_records(tmp_path / "records.csv",
                      ["quasar,f1,10,50,5,0,1,0.5,0.5,100",
                       "quasar,f1,10,50,5,badtrial,1,0.5,0.5,100"])
        with pytest.raises(ValueError, match="line 3"):
            load_records(tmp_path / "records.csv")

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "records.csv").write_text("a,b,c\n")
        with pytest.raises(ValueError, match="line 1"):
            load_records(tmp_path / "records.csv")


class TestCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = cli_main([
            "run", "--mode", "custom", "--dims", "5", "--pops", "20",
            "--gmax", "5", "--trials", "2", "--seed", "3",
            "--algos", "quasar,de", "--functions", "sphere,rastrigin",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "records.csv").exists()
        assert (out / "summary.json").exists()
        capsys.readouterr()
        assert cli_main(["summarize", "--in", str(out)]) == 0
        captured = capsys.readouterr()
        assert "friedman rank sums" in captured.out

    @pytest.mark.parametrize("field", range(len(CSV_HEADER.split(","))),
                             ids=CSV_HEADER.split(","))
    def test_summarize_leaves_a_torn_final_row_unread(self, tmp_path,
                                                      finished_run, field):
        # A kill mid-row can tear the last row inside any of its fields.
        # Each directory holds only its records, so both summaries are new.
        data = (finished_run / "records.csv").read_bytes()
        start = data.rfind(b"\n", 0, -1) + 1
        last = data[start:-1].split(b",")
        cut = (start + sum(len(v) + 1 for v in last[:field])
               + max(1, len(last[field]) // 2))
        torn, whole = tmp_path / "torn", tmp_path / "whole"
        for out, records in ((torn, data[:cut]), (whole, data[:start])):
            out.mkdir()
            (out / "records.csv").write_bytes(records)
            assert cli_main(["summarize", "--in", str(out)]) == 0
        for name in ("summary.json", "plot_data.csv"):
            assert (torn / name).read_bytes() == (whole / name).read_bytes()

    def test_python_m_runs_the_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "quasar_opt", *argv],
                                  env=env, cwd=tmp_path, capture_output=True,
                                  text=True, timeout=120)

        done = run("suite", "--dim", "2", "--seed", "1")
        assert done.returncode == 0, done.stderr
        assert done.stdout == suite_manifest(make_suite(2, 1)) + "\n"
        done = run("run", "--trials", "0", "--out", str(tmp_path / "x"))
        assert done.returncode == 2
        assert "trials must be at least 1" in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_summarize_missing_directory_creates_nothing(self, tmp_path,
                                                         capsys):
        missing = tmp_path / "missing" / "sub"
        assert cli_main(["summarize", "--in", str(missing)]) == 2
        assert "records.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_suite_manifest(self, capsys):
        assert cli_main(["suite", "--dim", "6", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        entries = json.loads(out)
        assert len(entries) == 10
        assert entries[0]["dim"] == 6
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dc3a275543fe3e86b0f678d28f8d8dd18e95afc4c3cd02bf7bf679b622508ea5")

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_worker_count_refused(self, tmp_path, capsys, monkeypatch,
                                      value):
        monkeypatch.setenv(harness.WORKERS_ENV, value)
        out = tmp_path / "w"
        code = cli_main(["run", "--dims", "5", "--pops", "20", "--gmax", "2",
                         "--trials", "1", "--functions", "sphere",
                         "--out", str(out)])
        assert code == 2
        assert f"QUASAR_WORKERS must be an integer >= 1, got {value!r}" in \
            capsys.readouterr().err
        assert not (out / "plan.json").exists()

    @pytest.fixture
    def plans(self, monkeypatch):
        """The plans the CLI hands to run_plan, which runs none of them."""
        plans = []

        def capture(plan, out):
            plans.append(plan)
            raise ValueError("captured")

        monkeypatch.setattr(cli, "run_plan", capture)
        return plans

    def test_run_defaults_are_the_plans(self, tmp_path, plans):
        cli_main(["run", "--out", str(tmp_path)])
        assert plans == [ExperimentPlan()]

    def test_run_flags_set_plan_fields(self, tmp_path, plans):
        cli_main(["run", "--pops", "40,50", "--gmax", "7", "--seed", "3",
                  "--algos", "de", "--out", str(tmp_path)])
        assert plans == [ExperimentPlan(pop_sizes=[40, 50], g_max=7,
                                        master_seed=3, algorithms=["de"])]

    def test_contract_violation_exit_code(self, tmp_path, capsys):
        code = cli_main(["run", "--trials", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["--dims", "5", "--pops", "4"], "quasar cannot run pop 4"),
        (["--dims", "5,5", "--pops", "20"], "dims repeats [5]"),
        (["--dims", "1", "--pops", "20"], "need dimension >= 2"),
        (["--dims", "5", "--pops", "20", "--algos", "lshade"],
         "algorithms must be a nonempty subset of ('quasar', 'de'), "
         "got ('lshade',)"),
    ])
    def test_bad_plan_refused_before_any_trial(self, tmp_path, capsys,
                                               monkeypatch, args, message):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        out = tmp_path / "bad"
        code = cli_main(["run", *args, "--gmax", "3", "--trials", "2",
                         "--functions", "sphere", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_suite_seed_named_and_leaves_no_plan(self, tmp_path,
                                                           capsys):
        out = tmp_path / "z"
        argv = ["run", "--dims", "5", "--pops", "20", "--trials", "1",
                "--gmax", "2", "--functions", "sphere", "--out", str(out)]
        assert cli_main([*argv, "--suite-seed", "-1"]) == 2
        assert "suite_seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()
        # So the corrected plan runs in the same directory.
        assert cli_main([*argv, "--suite-seed", "2"]) == 0

    def test_unknown_function_rejected(self, tmp_path, capsys):
        out = tmp_path / "y"
        argv = ["run", "--dims", "5", "--pops", "20", "--trials", "1",
                "--out", str(out)]
        code = cli_main([*argv, "--functions", "sphere,made_up",
                         "--gmax", "2"])
        assert code == 2
        assert "unknown suite functions: ['made_up']" in capsys.readouterr().err
        assert not out.exists()
        # Nothing was left behind, so a corrected plan with another g_max
        # runs in the same directory.
        assert cli_main([*argv, "--functions", "sphere", "--gmax", "3"]) == 0
        _, rows = read_rows(out / "records.csv")
        assert [(r[1], r[4]) for r in rows] == [("sphere", "3")] * 2

    def test_repeated_function_refused(self, tmp_path, capsys):
        # plan.json used to record the repeat, though no job was doubled.
        with pytest.raises(ValueError, match=r"functions repeats \['sphere'\]"):
            ExperimentPlan(functions=("sphere", "sphere"))
        out = tmp_path / "w"
        code = cli_main(["run", "--dims", "5", "--pops", "20", "--trials",
                         "1", "--gmax", "2", "--functions", "sphere,sphere",
                         "--out", str(out)])
        assert code == 2
        assert "functions repeats ['sphere']" in capsys.readouterr().err
        assert not out.exists()
