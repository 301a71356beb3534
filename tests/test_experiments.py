import concurrent.futures
import json
import os
import re

import numpy as np
import pytest

from jamcom import experiments as xp
from jamcom import optimizer as op
from jamcom.channel import csit_error_variance, evenly_spaced_pilots
from jamcom.experiments import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    _apply_quick,
    cli_main,
    emit_csv,
    emit_plotdata,
    parse_csv,
    run_experiment,
)

THETA = 4 * np.pi / 9
BETA = 2 * np.pi / 9


def tiny_config(**overrides):
    doc = dict(
        n_t=4, K=2, L=1, N=8,
        pilot_sets=[2],
        snr_db_list=[10.0],
        scheme_list=["RSMA", "SDMA"],
        channel_model={"type": "deterministic", "theta": THETA, "beta": BETA},
        strategy=1, M=2, seed=3, eps_r=1e-3, max_outer=40,
    )
    doc.update(overrides)
    return ExperimentConfig(**doc)


class TestConfig:
    def test_unknown_keys_rejected(self):
        doc = {"n_t": 4, "K": 2, "L": 1, "N": 8, "pilot_sets": [2],
               "snr_db_list": [10], "scheme_list": ["RSMA"],
               "channel_model": {"type": "deterministic", "theta": 1.0, "beta": 0.5},
               "frobnicate": True}
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_missing_keys_rejected(self):
        # every field without a default is required
        with pytest.raises(ValueError, match=re.escape(
                "missing config keys: ['K', 'L', 'N', 'channel_model', 'pilot_sets', "
                "'scheme_list', 'snr_db_list']")):
            ExperimentConfig.from_json(json.dumps({"n_t": 4}))

    def test_empty_scheme_list_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(scheme_list=[])

    def test_empty_snr_list_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(snr_db_list=[])

    def test_pilot_bounds_enforced(self):
        with pytest.raises(ValueError):
            tiny_config(pilot_sets=[(1, 99)])

    @pytest.mark.parametrize("field,value", [("M", 0), ("M", 2.5), ("max_outer", 0),
                                             ("eps_r", -1.0), ("eps_r", float("nan")),
                                             ("seed", -1), ("alpha", -0.5),
                                             ("alpha", float("nan")), ("alpha", float("inf")),
                                             ("base_rho", float("nan"))])
    def test_bad_run_settings_rejected(self, field, value):
        with pytest.raises(ValueError):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field,value", [("M", True), ("max_outer", True), ("seed", True),
                                             ("seed", False), ("n_t", 2.5), ("K", 2.0),
                                             ("L", True), ("N", 8.0), ("strategy", True),
                                             ("strategy", 2.0), ("pilot_sets", [True]),
                                             ("pilot_sets", [2.0]), ("pilot_sets", [[True, 5]])])
    def test_boolean_and_fractional_counts_rejected_from_json(self, field, value):
        # "M": true passed and ended in a TypeError inside the sampler,
        # "max_outer": true ran one iteration and "seed": true used seed 1; a
        # fractional n_t, K or N raised a TypeError that named no field, as did
        # a pilot count 2.0; "strategy": true and a pilot count true ran as 1,
        # and the CSV's "True" then failed parse_csv
        doc = json.loads(tiny_config().to_json())
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [("snr_db_list", "15"), ("snr_db_list", [True]),
                                             ("snr_db_list", 15.0), ("snr_db_list", [10.0, "20"]),
                                             ("alpha", True), ("base_rho", True), ("eps_r", True),
                                             ("alpha", "0.6")])
    def test_strings_and_booleans_rejected_as_numbers_from_json(self, field, value):
        # "snr_db_list": "15" swept 1 dB and 5 dB, one point per character,
        # [true] ran at 1 dB, and true ran as 1.0 for alpha, base_rho and eps_r
        doc = json.loads(tiny_config().to_json())
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("model,key", [
        ({"type": "selective", "channel_seed": 1.7}, "channel_seed"),
        ({"type": "selective", "channel_seed": True}, "channel_seed"),
        ({"type": "selective", "n_taps": 2.5}, "n_taps"),
        ({"type": "selective", "n_taps": True}, "n_taps"),
        ({"type": "selective", "delay_spread": True}, "delay_spread"),
        ({"type": "selective", "spacing": True}, "spacing"),
        ({"type": "deterministic", "theta": True, "beta": BETA}, "theta"),
        ({"type": "deterministic", "theta": THETA, "beta": True}, "beta"),
        ({"type": "deterministic", "theta": THETA, "beta": BETA, "au_spread": True},
         "au_spread")])
    def test_channel_model_counts_and_numbers_checked_from_json(self, model, key):
        # "channel_seed": 1.7 ran channel seed 1 and "n_taps": 2.5 two taps;
        # true was taken as 1 for every one of these fields
        doc = json.loads(tiny_config().to_json())
        doc["channel_model"] = model
        with pytest.raises(ValueError, match=f"channel_model.{key} must be"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("spread", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_au_spread_rejected_from_json(self, spread):
        # a NaN spread made a NaN covariance, and from_json failed in eigh
        doc = json.loads(tiny_config().to_json())
        doc["channel_model"]["au_spread"] = spread
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_repeated_pilot_subcarrier_rejected_from_json(self):
        # [2, 2] ran as one pilot counted twice: the CSV read pilot_count 2
        # and each floor was half the single-pilot floor
        doc = json.loads(tiny_config().to_json())
        doc["pilot_sets"] = [[2, 2]]
        with pytest.raises(ValueError, match="repeats a subcarrier"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("overrides,match", [
        ({"K": 0}, r"K.* must be .*>= 1"),
        ({"L": -1}, r"L .*>= 0"),
        ({"scheme_list": ["NOMA"]}, "scheme_list entries must be RSMA or SDMA"),
        ({"strategy": 3}, "strategy must be 1 or 2"),
        ({"pilot_sets": []}, "pilot_sets must be nonempty"),
        ({"channel_model": {"type": "rayleigh"}}, "channel_model.type must be one of")],
        ids=["K", "L", "scheme", "strategy", "pilot-sets", "channel-type"])
    def test_bad_config_rejected_with_its_rule(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**overrides)

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            ExperimentConfig.from_json("[1, 2]")

    def test_explicit_pilot_lists(self):
        cfg = tiny_config(pilot_sets=[(1, 4, 7)])
        assert cfg.resolve_pilots(cfg.pilot_sets[0]) == (1, 4, 7)

    def test_round_trips_through_json(self):
        cfg = tiny_config()
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg


class TestRunExperiment:
    def test_rows_cover_grid_in_order(self):
        cfg = tiny_config(snr_db_list=[5.0, 15.0], scheme_list=["SDMA"])
        table = run_experiment(cfg)
        assert [(r.snr_db, r.scheme) for r in table.rows] == [
            (5.0, "SDMA"), (15.0, "SDMA")]
        for row in table.rows:
            assert row.status in ("optimal", "maxiter")
            assert np.isfinite(row.sum_rate)

    def test_vacuous_floor_matches_direct_optimizer_call(self):
        from jamcom import channel as ch
        from jamcom import optimizer as opt

        cfg = tiny_config(base_rho=0.0, scheme_list=["SDMA"])
        table = run_experiment(cfg)
        row = table.rows[0]

        chan = ch.make_deterministic_scenario(THETA, BETA, 4, 8)
        P_t = 10.0
        csit = ch.CsitModel(h_hat=chan.h,
                            sigma_ie2=ch.csit_error_variance(P_t, 8, cfg.alpha),
                            alpha=cfg.alpha)
        stats = ch.au_statistics_uniform_phase(2 * BETA, 4, 8, 1,
                                               evenly_spaced_pilots(2, 8))
        seed = int(np.random.SeedSequence(entropy=cfg.seed,
                                          spawn_key=(0,)).generate_state(1)[0])
        direct = opt.optimize(csit, stats, opt.SolveConfig(
            P_t=P_t, scheme="SDMA", M=cfg.M, seed=seed,
            eps_r=cfg.eps_r, max_outer=cfg.max_outer,
            thresholds=opt.build_thresholds(stats, 0.0, P_t)))
        assert row.sum_rate == direct.report.R_sum
        assert row.rate_u == tuple(float(v) for v in direct.report.R_k)

    def test_dominance_and_margin_invariants(self):
        cfg = tiny_config(snr_db_list=[10.0, 20.0])
        table = run_experiment(cfg)
        by = {(r.snr_db, r.scheme): r for r in table.rows}
        for snr in (10.0, 20.0):
            assert by[(snr, "RSMA")].sum_rate >= by[(snr, "SDMA")].sum_rate - 1e-6
        for row in table.rows:
            if row.status == "optimal":
                assert row.jam_margin >= -1e-6

    @pytest.mark.parametrize("L", [1, 0])
    def test_selective_sweep_with_and_without_adversaries(self, L):
        # L = 1 takes the isotropic adversary statistics and the pilot-count
        # threshold, 0.9 * 1 / (4 / 2); L = 0 has no floors and a zero margin
        cfg = tiny_config(n_t=2, K=1, L=L, N=4, pilot_sets=[(1,)], M=4,
                          channel_model={"type": "selective", "channel_seed": 3})
        table = run_experiment(cfg)
        assert [r.scheme for r in table.rows] == ["RSMA", "SDMA"]
        for row in table.rows:
            assert row.status in ("optimal", "maxiter") and np.isfinite(row.sum_rate)
            if L:
                assert row.jam_margin >= -1e-6 and row.detail["rho"] == 0.45
            else:
                assert row.jam_margin == 0.0 and row.detail["rho"] == 0.0

    def test_rsma_rows_do_not_depend_on_the_scheme_list(self, tmp_path):
        # every cell runs SDMA and hands it to RSMA as its restriction: at 5 dB
        # with two pilots an RSMA-only sweep once compared with its own
        # restriction instead and read 0.956277706 against 0.956273251
        cfg = dict(n_t=4, K=2, L=1, N=8, pilot_sets=[2], snr_db_list=[5.0], M=4, seed=0,
                   strategy=1, channel_model={"type": "selective", "channel_seed": 3})
        lines = {}
        for schemes in (["RSMA"], ["RSMA", "SDMA"]):
            table = run_experiment(ExperimentConfig(scheme_list=schemes, **cfg))
            rsma = [r for r in table.rows if r.scheme == "RSMA"]
            path = tmp_path / f"{len(schemes)}.csv"
            emit_csv(ResultTable(K=2, rows=rsma), str(path))
            lines[len(schemes)] = (path.read_text(), [(r.iters, r.status) for r in rsma])
        assert lines[1] == lines[2]

    def test_parallel_equals_serial(self):
        cfg = tiny_config(snr_db_list=[8.0, 16.0], scheme_list=["SDMA"])
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial.csv_tuples() == parallel.csv_tuples()

    def test_pool_never_larger_than_the_sweep(self, monkeypatch):
        # the pool forks all its workers at the first submit, so a worker
        # count above the number of (snr, pilot_set) points would fork idle ones
        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        run_experiment(tiny_config(snr_db_list=[8.0, 16.0], scheme_list=["SDMA"]), workers=8)
        assert asked == [2]
        run_experiment(tiny_config(scheme_list=["SDMA"]), workers=8)   # one point: no pool
        assert asked == [2]
        for workers in (0, -3, 2.0, True):    # True ran serially
            with pytest.raises(ValueError, match="workers"):
                run_experiment(tiny_config(), workers=workers)


class TestPersistence:
    def _table(self):
        rows = [
            ResultRow(snr_db=10.0, scheme="RSMA", strategy=1, pilot_count=2,
                      sum_rate=3.25, common_rate=0.5, rate_u=(1.25, 1.5),
                      jam_margin=1e-7, iters=12, wall_ms=0.0),
            ResultRow(snr_db=20.0, scheme="SDMA", strategy=1, pilot_count=2,
                      sum_rate=6.5, common_rate=0.0, rate_u=(3.25, 3.25),
                      jam_margin=2e-7, iters=9, wall_ms=0.0),
        ]
        return ResultTable(K=2, rows=rows)

    def test_csv_round_trip(self, tmp_path):
        table = self._table()
        path = tmp_path / "results.csv"
        emit_csv(table, str(path))
        back = parse_csv(str(path))
        assert back.csv_tuples() == table.csv_tuples()

    def test_csv_header_fixed(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self._table(), str(path))
        header = path.read_text().splitlines()[0]
        assert header == ("snr_db,scheme,strategy,pilot_count,sum_rate,"
                          "common_rate,rate_u1,rate_u2,jam_margin,iters,wall_ms,status")

    def test_failed_replace_removes_the_temporary_file(self, tmp_path):
        # a path naming a directory fails at the replace: no .tmp is left
        target = tmp_path / "results.csv"
        target.mkdir()
        with pytest.raises(OSError):
            emit_csv(self._table(), str(target))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]
        assert target.is_dir()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(ResultTable(K=2, rows=[]), str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            emit_plotdata(ResultTable(K=2, rows=[]), str(tmp_path))

    def test_curve_file_count(self, tmp_path):
        rows = []
        for scheme in ("RSMA", "SDMA"):
            for pc in (2, 4, 8):
                for snr in (0.0, 10.0):
                    rows.append(ResultRow(
                        snr_db=snr, scheme=scheme, strategy=1, pilot_count=pc,
                        sum_rate=1.0 + snr / 10, common_rate=0.0,
                        rate_u=(0.5, 0.5), jam_margin=0.0, iters=1, wall_ms=0.0))
        paths = emit_plotdata(ResultTable(K=2, rows=rows), str(tmp_path))
        assert len(paths) == 6
        body = open(paths[0]).read().splitlines()
        assert len(body) == 2 and len(body[0].split()) == 2


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        doc = dict(
            n_t=4, K=2, L=1, N=8, pilot_sets=[2], snr_db_list=[10.0],
            scheme_list=["RSMA", "SDMA"],
            channel_model={"type": "deterministic", "theta": THETA, "beta": BETA},
            strategy=1, M=2, seed=3, eps_r=1e-3, max_outer=40,
        )
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli_main(["--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_prints_usage(self, capsys):
        rc = cli_main(["--wat"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown flag" in err and "usage" in err

    def test_config_flag_required(self, capsys):
        assert cli_main([]) == 1

    def test_flag_without_value_prints_usage(self, capsys):
        assert cli_main(["--config"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--config needs a value" in err and "usage" in err

    def test_bad_scheme_value(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["--config", cfg, "--scheme", "fancy"]) == 1

    @pytest.mark.parametrize("overrides,flags", [({"M": 0}, []), ({"eps_r": -1}, []),
                                                 ({}, ["--seed", "-1"]),
                                                 ({}, ["--workers", "0"]),
                                                 ({}, ["--workers", "-2"])])
    def test_bad_run_settings_exit_one_before_any_cell(self, tmp_path, capsys, overrides,
                                                       flags):
        cfg = self._write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli_main(["--config", cfg, "--out", str(out)] + flags) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"channel_model": {"type": "selective", "n_taps": 0}}, "n_taps"),
        ({"channel_model": {"type": "deterministic", "beta": BETA}}, "'theta'"),
        ({"channel_model": {"type": "deterministic", "theta": THETA, "beta": BETA,
                            "au_spread": -1.0}}, "delta"),
        ({"snr_db_list": [float("nan")]}, "P_t"),
        ({"snr_db_list": [4000.0]}, "P_t"),
        ({"eps_r": float("nan")}, "eps_r"),
        ({"alpha": -0.5}, "alpha"),
        ({"alpha": float("nan")}, "alpha"),
        ({"base_rho": float("nan")}, "base_rho"),
        # both sets hold two pilots: their rows and curve file would merge
        ({"pilot_sets": [[1, 5], [2, 6]]}, "repeat a pilot count"),
        ({"M": True}, "M, max_outer and seed must be integers"),
        ({"pilot_sets": [[2, 2]]}, "repeats a subcarrier"),
        ({"strategy": True}, "strategy must be an integer"),
        ({"pilot_sets": [2.0]}, "pilot_sets entries must be"),
        ({"snr_db_list": "15"}, "snr_db_list"),
        ({"snr_db_list": [True]}, "snr_db_list"),
        ({"snr_db_list": 15.0}, "snr_db_list"),
        ({"alpha": True}, "alpha must be a number"),
        ({"base_rho": True}, "base_rho must be a number"),
        ({"eps_r": True}, "eps_r must be a number"),
        ({"channel_model": {"type": "selective", "channel_seed": 1.7}}, "channel_seed"),
        ({"channel_model": {"type": "selective", "n_taps": 2.5}}, "n_taps"),
        ({"channel_model": {"type": "deterministic", "theta": True, "beta": BETA}}, "theta"),
        ({"out_dir": 5}, "out_dir must be a string")])
    def test_bad_cell_inputs_exit_one_before_any_cell(self, tmp_path, capsys, overrides,
                                                      message):
        # each of these once ended in a traceback from inside the first cell
        cfg = self._write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli_main(["--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_dir_naming_a_file_exits_one_before_any_cell(self, tmp_path, capsys,
                                                              monkeypatch, source):
        # makedirs raised FileExistsError, a traceback, when --out or the
        # config's out_dir named an existing file
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setattr(op, "optimize", lambda *a, **kw: pytest.fail("a cell ran"))
        if source == "flag":
            argv = ["--config", self._write_config(tmp_path), "--out", str(taken)]
        else:
            argv = ["--config", self._write_config(tmp_path, out_dir=str(taken))]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert taken.read_text() == ""

    def test_output_write_failure_exits_one_without_a_partial_csv(self, tmp_path, capsys,
                                                                  monkeypatch):
        # a directory named results.csv, where emit_csv would raise
        # IsADirectoryError, is found before the sweep: exit 1, nothing written
        self._check_output_directory_clash(tmp_path, capsys, monkeypatch, "results.csv")

    @pytest.mark.parametrize("name", ["details.json", "curve_sdma_p2.dat",
                                      "trace_cell000.jsonl"])
    def test_output_path_naming_a_directory_exits_one_before_the_sweep(
            self, tmp_path, capsys, monkeypatch, name):
        self._check_output_directory_clash(tmp_path, capsys, monkeypatch, name)

    def _check_output_directory_clash(self, tmp_path, capsys, monkeypatch, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = self._write_config(tmp_path, scheme_list=["SDMA"])
        monkeypatch.setattr(xp, "run_experiment", lambda *a, **kw: pytest.fail("a sweep ran"))
        assert cli_main(["--config", cfg, "--out", str(out), "--trace"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).is_dir()

    def test_unwritable_out_exits_one_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        cfg = self._write_config(tmp_path, scheme_list=["SDMA"])
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            False if path == str(out) else access(path, mode)))
        monkeypatch.setattr(xp, "run_experiment", lambda *a, **kw: pytest.fail("a sweep ran"))
        assert cli_main(["--config", cfg, "--out", str(out)]) == 1
        assert "not writable" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_write_failure_after_the_sweep_exits_one(self, tmp_path, capsys, monkeypatch):
        # an OSError while the outputs are written is still an error line
        def full(*a):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(xp, "emit_plotdata", full)
        cfg = self._write_config(tmp_path, scheme_list=["SDMA"])
        assert cli_main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_t": 4, "bogus": 1}))
        assert cli_main(["--config", str(path)]) == 1

    def test_run_writes_outputs(self, tmp_path):
        cfg = self._write_config(tmp_path, scheme_list=["SDMA"])
        out = tmp_path / "out"
        rc = cli_main(["--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists()
        assert (out / "details.json").exists()
        assert (out / "curve_sdma_p2.dat").exists()
        # the extrapolation, cold-retry, IPM-exit, early-stop, repair and
        # fallback counters and the sample stages reach details.json
        for detail in json.loads((out / "details.json").read_text()):
            assert set(detail["diagnostics"]["counts"]) == {
                "extrapolation_accepted", "extrapolation_rate_rejected",
                "extrapolation_floor_rejected", "extrapolation_free_projected",
                "solve_cold_retry", "ipm_optimal", "ipm_infeasible", "ipm_non_finite",
                "ipm_max_iter", "stop_solve_failed", "stop_floor_shortfall",
                "stop_wsr_decrease", "split_clipped", "split_clamped", "rsma_fallback"}
            diag = detail["diagnostics"]
            assert diag["sample_stages"] == [[2, diag["outer_iterations"]]]   # M=2: one stage

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = self._write_config(tmp_path, scheme_list=["SDMA"])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_scheme_and_strategy_overrides(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "o"
        rc = cli_main(["--config", cfg, "--out", str(out), "--scheme", "sdma",
                       "--strategy", "2"])
        assert rc == 0
        table = parse_csv(str(out / "results.csv"))
        assert {r.scheme for r in table.rows} == {"SDMA"}
        assert {r.strategy for r in table.rows} == {2}

    def test_trace_files_written(self, tmp_path):
        cfg = self._write_config(tmp_path, scheme_list=["SDMA"])
        out = tmp_path / "t"
        rc = cli_main(["--config", cfg, "--out", str(out), "--trace"])
        assert rc == 0
        trace = out / "trace_cell000.jsonl"
        assert trace.exists()
        first = json.loads(trace.read_text().splitlines()[0])
        assert {"outer", "draws", "wsr_nats", "max_violation"} <= set(first)
        assert first["draws"] == 2
        # the file holds the cell's report trace, as details.json records it
        details = json.loads((out / "details.json").read_text())
        records = [json.loads(ln) for ln in trace.read_text().splitlines()]
        assert records == details[0]["diagnostics"]["trace"]

    def test_timing_records_wall_clock_times(self, tmp_path):
        cfg = self._write_config(tmp_path, scheme_list=["SDMA"])
        out = tmp_path / "timed"
        assert cli_main(["--config", cfg, "--out", str(out), "--timing"]) == 0
        rows = parse_csv(str(out / "results.csv")).rows
        assert rows and all(r.wall_ms > 0.0 for r in rows)

    def test_quick_mode_runs_reduced_scale(self, tmp_path):
        cfg = self._write_config(tmp_path, N=32, M=16, pilot_sets=[16],
                                 scheme_list=["SDMA"])
        out = tmp_path / "q"
        rc = cli_main(["--config", cfg, "--out", str(out), "--quick"])
        assert rc == 0
        table = parse_csv(str(out / "results.csv"))
        assert table.rows[0].pilot_count == 8  # pilot counts clamped to quick N
        # the row names why the run stopped at its start
        assert table.rows[0].status == "solve_failed"
        # its one solve is not optimal (the floors and margin take the whole
        # budget), so the run stops at its start with the solve counted
        for detail in json.loads((out / "details.json").read_text()):
            diag = detail["diagnostics"]
            assert (diag["counts"]["ipm_optimal"] + diag["counts"]["stop_solve_failed"]
                    == diag["outer_iterations"])

    def test_quick_mode_keeps_each_clamped_pilot_count_once(self):
        cfg = tiny_config(N=32, pilot_sets=[8, 16, [1, 2, 3], 4, 12])
        assert _apply_quick(cfg).pilot_sets == (8, 3, 4)

    def test_failed_cell_is_recorded_and_exits_two(self, tmp_path, capsys, monkeypatch):
        # an optimizer failure costs its own cell only: the row records it, the
        # other scheme's cell is unchanged and the exit status reports it
        cfg = tiny_config()
        sdma = run_experiment(cfg).rows[1]
        optimize = op.optimize

        def fail_rsma(csit, stats, config, **kw):
            if config.scheme == "RSMA":
                raise op.OptimizerError("subproblem solve failed: forced")
            return optimize(csit, stats, config, **kw)

        monkeypatch.setattr(op, "optimize", fail_rsma)
        rsma_row, sdma_row = run_experiment(cfg).rows
        assert (rsma_row.scheme, rsma_row.status) == ("RSMA", "infeasible")
        assert rsma_row.sum_rate == 0.0 and rsma_row.iters == 0
        assert np.isnan(rsma_row.jam_margin)
        assert rsma_row.detail["error"] == "subproblem solve failed: forced"
        assert sdma_row.csv_tuple() == sdma.csv_tuple() and sdma_row.status == sdma.status
        path = self._write_config(tmp_path)
        assert cli_main(["--config", path, "--out", str(tmp_path / "out")]) == 2
        out = capsys.readouterr().out
        assert "2 cells" in out and "(1 failed)" in out
