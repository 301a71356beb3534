import json
import os

import numpy as np
import pytest

from jamcom.channel import csit_error_variance, evenly_spaced_pilots
from jamcom.experiments import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
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
        with pytest.raises(ValueError, match="missing config keys"):
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
            thresholds=opt.build_thresholds(stats, 0.0, P_t),
            solver_tol=cfg.solver_tol))
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

    def test_parallel_equals_serial(self):
        cfg = tiny_config(snr_db_list=[8.0, 16.0], scheme_list=["SDMA"])
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        assert serial.csv_tuples() == parallel.csv_tuples()


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
                          "common_rate,rate_u1,rate_u2,jam_margin,iters,wall_ms")

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

    def test_bad_scheme_value(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["--config", cfg, "--scheme", "fancy"]) == 1

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
        assert {"outer", "wsr_nats", "max_violation"} <= set(first)

    def test_quick_mode_runs_reduced_scale(self, tmp_path):
        cfg = self._write_config(tmp_path, N=32, M=16, pilot_sets=[16],
                                 scheme_list=["SDMA"])
        out = tmp_path / "q"
        rc = cli_main(["--config", cfg, "--out", str(out), "--quick"])
        assert rc == 0
        table = parse_csv(str(out / "results.csv"))
        assert table.rows[0].pilot_count == 8  # pilot counts clamped to quick N
