"""CLI contract: golden-file byte determinism, exit codes, schemas."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqquant import boundaries, cli, confseq, empdist

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


GOLDEN_CASES = {
    "bounds.csv": ["bounds", "--methods", "dkw_fixed,szorenyi,clt_pointwise",
                   "--t", "100,1000,10000", "--p", "0.5", "--alpha", "0.05"],
    "track.csv": ["track", str(FIXTURES / "stream10.txt"), "--p", "0.5",
                  "--method", "stitched_simple", "--intersect"],
    "band.csv": ["band", str(FIXTURES / "stream10.txt"), "--checkpoints", "5,10",
                 "--alpha", "0.05"],
    "abtest.csv": ["abtest", str(FIXTURES / "ab8.txt"), "--p", "0.5", "--r", "0.758"],
    "ks.csv": ["ks", str(FIXTURES / "ks6.txt"), "--mode", "two_sample", "--latch"],
    "bai.csv": ["bai", "--scenario", "uniform_shift", "--pi", "0.5", "--eps", "0.05",
                "--delta", "0.2", "--cs-kinds", "stitched_qlucb", "--runs", "2",
                "--k-arms", "3", "--seed", "7"],
    # pin the beta-binomial tracker past the first radius-table chunk
    # (t > 1024) and the scalar mixture radii bit for bit
    "track_beta_binomial.csv": ["track", str(FIXTURES / "cauchy1100.txt"), "--p", "0.25",
                                "--method", "beta_binomial"],
    "bounds_mixtures.csv": ["bounds", "--methods", "beta_binomial,stitched,normal_mixture",
                            "--t", "1,2,10,100,1000,1024,1025,3000", "--p", "0.25,0.5,0.9"],
    # pin every sequential-test statistic on ~200 seeded lines: Cauchy arms,
    # the last arm shifted by 0.5 (0.3 and rounded to 0.1 for the tied stream)
    "abtest_one_sided.csv": ["abtest", str(FIXTURES / "ab_shift200.txt"), "--mode", "one_sided"],
    "abtest_global.csv": ["abtest", str(FIXTURES / "ab3_210.txt"), "--mode", "global"],
    "abtest_ties.csv": ["abtest", str(FIXTURES / "ab_ties200.txt"), "--delta-star", "0.3"],
    "ks_dominance.csv": ["ks", str(FIXTURES / "ks_dom200.txt"), "--mode", "dominance"],
    "ks_two_sample.csv": ["ks", str(FIXTURES / "ks_dom200.txt"), "--mode", "two_sample"],
    "ks_one_sample.csv": ["ks", str(FIXTURES / "cauchy1100.txt"), "--mode", "one_sample",
                          "--ref", "cauchy:0,1"],
    # pin every bounds method, the stitched and normal-mixture trackers, and
    # every QLUCB confidence-sequence kind
    "bounds_all.csv": ["bounds", "--methods", ",".join(cli.BOUNDS_METHODS),
                       "--t", "32,33,100,1000,1024,1025,10000,1000000",
                       "--p", "0.05,0.5,0.9"],
    "track_stitched.csv": ["track", str(FIXTURES / "cauchy1100.txt"), "--p", "0.25",
                           "--method", "stitched"],
    "track_normal_mixture.csv": ["track", str(FIXTURES / "cauchy1100.txt"), "--p", "0.9",
                                 "--method", "normal_mixture"],
    "bai_cs_kinds.csv": ["bai", "--scenario", "uniform_shift", "--pi", "0.5", "--eps", "0.05",
                         "--delta", "0.2", "--cs-kinds",
                         "stitched_qlucb,beta_binomial_one_sided,dkw_union_baseline",
                         "--runs", "2", "--k-arms", "3", "--seed", "7"],
    # pin the simulated test-versus-naive comparison on two scenarios, and the
    # JSON encoding of rows written one at a time
    **{f"abtest_simulate_{scenario}.csv": ["abtest", "--simulate", "--scenario", scenario,
                                           "--p", "0.5", "--eps", "0.05", "--runs", "2",
                                           "--max-pairs", "400", "--seed", "7"]
       for scenario in ("uniform_shift", "cauchy_shift")},
    "track.json": ["track", str(FIXTURES / "stream10.txt"), "--p", "0.5",
                   "--method", "stitched_simple", "--intersect", "--format", "json"],
    # pin the band export past 1000 rows, on continuous data and on the same
    # values rounded to 0.1 (ties, with -0.0 and 0.0 in one run), in both formats
    **{f"band_{name}.{fmt}": ["band", str(FIXTURES / fixture), "--checkpoints", "1,10,100,1100",
                              "--format", fmt]
       for name, fixture in (("cauchy", "cauchy1100.txt"), ("ties", "cauchy1100_ties.txt"))
       for fmt in ("csv", "json")},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs(name):
    rc, out, err = run_cli(GOLDEN_CASES[name])
    assert rc == 0, err
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", ["abtest.csv", "abtest_one_sided.csv", "abtest_global.csv",
                                  "ks.csv", "ks_dominance.csv", "ks_one_sample.csv"])
def test_sequential_tests_use_no_sorted_list(monkeypatch, name):
    # every abtest and ks mode keeps each arm in one sorted float array
    monkeypatch.setattr(empdist, "SortedList", None)
    rc, out, err = run_cli(GOLDEN_CASES[name])
    assert rc == 0, err
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", ["track.csv", "bai.csv"])
def test_reruns_are_byte_identical(name):
    _, first, _ = run_cli(GOLDEN_CASES[name])
    _, second, _ = run_cli(GOLDEN_CASES[name])
    assert first == second


class TestBounds:
    def test_dkw_normalized_radius(self):
        rc, out, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                              "--alpha", "0.05"])
        assert rc == 0
        row = [l for l in out.splitlines() if l.startswith("100,")][0]
        assert float(row.split(",")[4]) == pytest.approx(1.358, abs=1e-3)

    def test_beta_binomial_echoes_r(self):
        rc, out, _ = run_cli(["bounds", "--methods", "beta_binomial", "--tune-m", "32",
                              "--p", "0.5", "--t", "100", "--alpha", "0.05"])
        assert rc == 0
        echo = [l for l in out.splitlines() if l.startswith("# r[p=0.5]=")][0]
        assert float(echo.split("=")[-1]) == pytest.approx(0.758, abs=1e-3)

    def test_empty_t_grid_is_usage_error(self):
        rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", ""])
        assert (rc, out) == (2, "")
        assert err.startswith("usage error: t list '' is empty"), err

    def test_unknown_method_is_usage_error(self):
        rc, _, err = run_cli(["bounds", "--methods", "nonsense", "--t", "100"])
        assert rc == 2
        assert "valid methods" in err

    @pytest.mark.parametrize("argv", [
        ["--methods", "dkw_fixed,szorenyi", "--t", "100,10"],  # szorenyi needs t >= 32
        ["--methods", "dkw_fixed", "--t", "0"],
    ])
    def test_data_error_writes_nothing(self, argv):
        rc, out, err = run_cli(["bounds", *argv])
        assert rc == 3
        assert out == ""
        assert err.startswith("data error:")


class TestTrack:
    def test_small_stream_gives_sentinels(self):
        rc, out, _ = run_cli(["track", str(FIXTURES / "stream10.txt"), "--p", "0.5",
                              "--method", "beta_binomial"])
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "t,"))]
        assert all(r[2] == "-inf" and r[3] == "inf" for r in rows[:4])

    def test_point_estimate_is_upper_quantile(self):
        rc, out, _ = run_cli(["track", str(FIXTURES / "stream10.txt"), "--p", "0.5",
                              "--method", "stitched_simple"])
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "t,"))]
        # after 1, 2, 3 observations of (0.31, 0.77, 0.12): medians 0.31, 0.77, 0.31
        assert [r[4] for r in rows[:3]] == ["0.31", "0.77", "0.31"]

    def test_parse_error_names_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nnot-a-number\n")
        rc, _, err = run_cli(["track", str(bad), "--p", "0.5"])
        assert rc == 3
        assert "line 2" in err


class TestBand:
    def test_header_only_on_empty_input(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc, out, _ = run_cli(["band", str(empty), "--checkpoints", "5"])
        assert rc == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines == ["t,x,ecdf,lo,hi"]

    @pytest.mark.parametrize("checkpoints", ["0,5,10", "-3,10,5", "10,5,5"])
    def test_checkpoint_below_one_blocks_no_later_one(self, checkpoints):
        stream = str(FIXTURES / "stream10.txt")
        rc, out, _ = run_cli(["band", stream, f"--checkpoints={checkpoints}"])
        assert rc == 0
        assert out == run_cli(["band", stream, "--checkpoints", "5,10"])[1]
        assert [l.split(",")[0] for l in out.splitlines()[5:]] == ["5"] * 5 + ["10"] * 10

    def test_width_constant_and_expected(self):
        rc, out, _ = run_cli(["band", str(FIXTURES / "stream10.txt"),
                              "--checkpoints", "10", "--alpha", "0.05", "--m", "1"])
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "t,"))]
        w = boundaries.lil_radius(10, 0.85, boundaries.lil_C(0.85, 0.05), 1.0)
        for r in rows:
            f, lo, hi = float(r[2]), float(r[3]), float(r[4])
            assert lo == pytest.approx(max(0.0, f - w), rel=1e-12)
            assert hi == pytest.approx(min(1.0, f + w), rel=1e-12)


class TestAbtest:
    def test_pvalues_at_most_one(self):
        rc, out, _ = run_cli(["abtest", str(FIXTURES / "ab8.txt"), "--p", "0.5"])
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "t,"))]
        assert all(float(r[2]) <= 1.0 for r in rows)

    def test_unknown_label_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a,1.0\nb,2.0\nc,3.0\n")
        rc, _, err = run_cli(["abtest", str(bad), "--p", "0.5"])
        assert rc == 3
        assert "unknown label" in err

    def test_global_mode_accepts_many_labels(self, tmp_path):
        data = tmp_path / "g.txt"
        data.write_text("ctl,0.5\nt1,0.6\nt2,0.7\nctl,0.4\nt1,0.5\nt2,0.9\n")
        rc, out, _ = run_cli(["abtest", str(data), "--mode", "global", "--p", "0.5"])
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "t,"))]
        assert rows and all(0.0 < float(r[2]) <= 1.0 for r in rows)

    def test_simulate_echoes_scenario(self):
        rc, out, _ = run_cli(["abtest", "--simulate", "--scenario", "uniform_shift",
                              "--p", "0.5", "--runs", "1", "--seed", "1",
                              "--max-pairs", "20000"])
        assert rc == 0
        assert "# scenario=uniform_shift" in out
        assert "# eps=0.025" in out
        assert "# seed=1" in out

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_simulate_without_runs_is_usage_error(self, runs):
        rc, out, err = run_cli(["abtest", "--simulate", "--runs", runs])
        assert rc == 2
        assert out == ""
        assert "runs must be >= 1" in err

    def test_running_min_is_monotone(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(60):
            lines.append(f"a,{rng.random()}")
            lines.append(f"b,{rng.random() + 0.5}")
        data = tmp_path / "ab.txt"
        data.write_text("\n".join(lines) + "\n")
        rc, out, _ = run_cli(["abtest", str(data), "--p", "0.5", "--running-min"])
        assert rc == 0
        pvs = [float(l.split(",")[2]) for l in out.splitlines()
               if not l.startswith(("#", "t,"))]
        assert all(a >= b for a, b in zip(pvs, pvs[1:]))


class TestKs:
    def test_identical_streams_never_reject(self, tmp_path):
        lines = []
        for i in range(50):
            lines.append(f"x,{i * 0.01}")
            lines.append(f"y,{i * 0.01}")
        data = tmp_path / "same.txt"
        data.write_text("\n".join(lines) + "\n")
        rc, out, _ = run_cli(["ks", str(data), "--mode", "two_sample"])
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "t,"))]
        assert all(r[3] == "false" for r in rows)
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_threshold_matches_lil_arithmetic(self):
        rc, out, _ = run_cli(["ks", str(FIXTURES / "ks6.txt"), "--mode", "two_sample"])
        rows = [l.split(",") for l in out.splitlines() if not l.startswith(("#", "t,"))]
        c = boundaries.lil_C(0.85, 0.025)
        for r in rows:
            t = int(r[0])
            assert float(r[2]) == pytest.approx(
                2 * boundaries.lil_radius(t, 0.85, c, 1.0), rel=1e-12
            )

    def test_unequal_counts_is_pairing_error(self, tmp_path):
        data = tmp_path / "odd.txt"
        data.write_text("x,1.0\ny,2.0\nx,3.0\n")
        rc, _, err = run_cli(["ks", str(data), "--mode", "two_sample"])
        assert rc == 3
        assert "unequal" in err

    def test_one_sample_with_reference(self, tmp_path):
        data = tmp_path / "u.txt"
        data.write_text("0.2\n0.4\n0.9\n")
        rc, out, _ = run_cli(["ks", str(data), "--mode", "one_sample",
                              "--ref", "uniform:0,1"])
        assert rc == 0
        assert len([l for l in out.splitlines() if not l.startswith(("#", "t,"))]) == 3

    @pytest.mark.parametrize("ref", ["uniform:0", "normal:0", "cauchy:1,2,3"])
    def test_reference_parameter_count_is_usage_error(self, ref):
        rc, out, err = run_cli(["ks", str(FIXTURES / "stream10.txt"), "--mode", "one_sample",
                                "--ref", ref])
        assert rc == 2
        assert out == ""
        assert repr(ref) in err


class TestBai:
    def test_seed_echoed_and_env_fallback(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "31337")
        rc, out, _ = run_cli(["bai", "--pi", "0.5", "--eps", "0.05", "--delta", "0.2",
                              "--cs-kinds", "stitched_qlucb", "--runs", "1",
                              "--k-arms", "3"])
        assert rc == 0
        assert "# seed=31337" in out

    def test_unknown_scenario_usage_error(self):
        rc, _, err = run_cli(["bai", "--scenario", "nope", "--runs", "1"])
        assert rc == 2
        assert "scenario" in err


class TestFormatsAndConfig:
    def test_json_format(self):
        rc, out, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                              "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["columns"] == ["t", "p", "method", "radius", "radius_times_sqrt_t"]
        assert payload["rows"][0][2] == "dkw_fixed"
        assert payload["rows"][0][4] == pytest.approx(1.358, abs=1e-3)

    def test_json_serializes_sentinels_as_strings(self):
        rc, out, _ = run_cli(["track", str(FIXTURES / "stream10.txt"), "--p", "0.5",
                              "--format", "json"])
        payload = json.loads(out)
        assert payload["rows"][0][2] == "-inf"
        assert payload["rows"][0][3] == "inf"

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=0.2\ntune-m=64\n")
        rc, out, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                              "--alpha", "0.05", "--config", str(cfg)])
        assert rc == 0
        assert "# alpha=0.05" in out  # flag wins
        assert "# tune_m=64.0" in out  # config fills the gap

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.csv"
        rc, _, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                            "--out", str(target)])
        assert rc == 0
        assert target.read_text().startswith("#")

    def test_float_cells_round_trip(self):
        rc, out, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "12345"])
        row = [l for l in out.splitlines() if l.startswith("12345,")][0]
        radius = row.split(",")[3]
        assert float(radius) == boundaries.baseline_radius("dkw_fixed", 12345, alpha=0.05)


# every subcommand and mode: the golden invocations plus abtest --simulate
_ALL_MODES = dict(GOLDEN_CASES, abtest_simulate=[
    "abtest", "--simulate", "--scenario", "cauchy_shift", "--runs", "2", "--max-pairs", "50"])


class TestEmitter:
    BATCH = [(1, math.inf, -math.inf, -0.0, True), (2, 0.1, 1e-300, "x", False),
             (30000, 1e22, 5e-324, "label", True)]
    META = {"k": -0.0, "flag": False, "n": 3, "s": "v", "w": math.inf}

    def _emit(self, fmt, write):
        out = io.StringIO()
        emitter = cli.Emitter(out, fmt, ["a", "b", "c", "d", "e"], self.META)
        write(emitter)
        emitter.close()
        return out.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_writes_what_row_writes(self, fmt):
        batched = self._emit(fmt, lambda e: e.rows(self.BATCH))
        one_by_one = self._emit(fmt, lambda e: [e.row(*cells) for cells in self.BATCH])
        assert batched == one_by_one

    def test_csv_cells(self):
        assert self._emit("csv", lambda e: e.rows(self.BATCH)).splitlines() == [
            "# k=-0.0", "# flag=false", "# n=3", "# s=v", "# w=inf", "a,b,c,d,e",
            "1,inf,-inf,-0.0,true", "2,0.1,1e-300,x,false", "30000,1e+22,5e-324,label,true"]

    def test_json_cells(self):
        payload = json.loads(self._emit("json", lambda e: e.rows(self.BATCH)))
        assert payload["meta"] == {"k": -0.0, "flag": False, "n": 3, "s": "v", "w": "inf"}
        assert payload["rows"] == [[1, "inf", "-inf", -0.0, True], [2, 0.1, 1e-300, "x", False],
                                   [30000, 1e22, 5e-324, "label", True]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [[(1, 2.0, 3.0, "x")], [(1, 2.0, 3.0, "x", True, 0)],
                                     BATCH + [(4, 0.5)], [(4, 0.5)] + BATCH])
    def test_ragged_rows_raise(self, fmt, bad):
        for write in (lambda e: e.rows(bad), lambda e: [e.row(*cells) for cells in bad]):
            with pytest.raises(ValueError, match="5 cells"):
                self._emit(fmt, write)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_batch_writes_nothing(self, fmt):
        assert self._emit(fmt, lambda e: e.rows([])) == self._emit(fmt, lambda e: None)
        assert self._emit(fmt, lambda e: e.rows(iter([]))) == self._emit(fmt, lambda e: None)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_iterator_batch_writes_what_a_list_writes(self, fmt):
        assert self._emit(fmt, lambda e: e.rows(map(tuple, self.BATCH))) == \
            self._emit(fmt, lambda e: e.rows(self.BATCH))

    def test_mixed_int_float_column(self):
        batch = [(1, 1.0, 1, True, "a"), (1.0, 1, True, 1, 2), (-0.0, 0, 0.0, False, 0.5)]
        lines = self._emit("csv", lambda e: e.rows(batch)).splitlines()[-3:]
        assert lines == ["1,1.0,1,true,a", "1.0,1,true,1,2", "-0.0,0,0.0,false,0.5"]

    @pytest.mark.parametrize("batch", [[(1, 2.0, 3.0, "x", np.float64(0.5))],
                                       [(1, 2.0, 3.0, "x", 0.5), (2, 2.0, 3.0, "x", np.int64(1))]])
    def test_numpy_scalar_is_a_key_error(self, batch):
        with pytest.raises(KeyError):
            self._emit("csv", lambda e: e.rows(batch))

    def test_rows_writes_what_row_writes_on_a_band_batch(self):
        band = confseq.CdfBand(alpha=0.05)
        for x in np.random.default_rng(3).standard_cauchy(41000).tolist():
            band.update(x)
        batch = [(len(band), *cells) for cells in band.band()]
        assert len(batch) == 41000
        assert self._emit("csv", lambda e: e.rows(batch)) == \
            self._emit("csv", lambda e: [e.row(*cells) for cells in batch])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(_ALL_MODES))
    def test_every_cell_is_a_plain_python_value(self, monkeypatch, name, fmt):
        # the CSV encoder is keyed by exact type, so a numpy scalar must never reach it; a batch
        # is encoded a column at a time, so the column encoder records each cell's type too
        seen = set()
        for attr in ("_fmt_cell", "_json_cell"):
            encode = getattr(cli, attr)
            monkeypatch.setattr(cli, attr,
                                lambda x, encode=encode: (seen.add(type(x)), encode(x))[1])
        encode_column = cli._column_text
        monkeypatch.setattr(cli, "_column_text",
                            lambda col: (seen.update(map(type, col)), encode_column(col))[1])
        rc, out, err = run_cli(_ALL_MODES[name] + ["--format", fmt])
        assert rc == 0, err
        assert seen and seen <= {bool, int, float, str}


class TestKsLatch:
    def test_latched_reject_is_monotone(self, tmp_path):
        rng = np.random.default_rng(8)
        lines = []
        for _ in range(400):
            lines.append(f"x,{rng.random()}")
            lines.append(f"y,{rng.random() + 3.0}")
        data = tmp_path / "sep.txt"
        data.write_text("\n".join(lines) + "\n")
        rc, out, _ = run_cli(["ks", str(data), "--mode", "two_sample", "--latch"])
        assert rc == 0
        flags = [l.split(",")[3] == "true" for l in out.splitlines()
                 if not l.startswith(("#", "t,"))]
        assert any(flags)
        first = flags.index(True)
        assert all(flags[first:])


class TestNormalMixtureTuning:
    def test_default_r_reproduces_reference_value(self):
        rc, out, _ = run_cli(["bounds", "--methods", "normal_mixture", "--t", "100",
                              "--alpha", "0.05", "--tune-m", "32"])
        assert rc == 0
        row = [l for l in out.splitlines() if l.startswith("100,")][0]
        # r = (32/8)/7.936 = 0.50402: radius matches the r=0.504 reference to 1e-3
        assert float(row.split(",")[3]) == pytest.approx(0.3368, abs=1e-3)


class TestInputErrors:
    NON_FINITE = {
        "track": (["track", "--p", "0.5"], "1.0\n{}\n"),
        "band": (["band", "--checkpoints", "5"], "1.0\n{}\n"),
        "abtest": (["abtest", "--p", "0.5"], "a,1.0\nb,{}\n"),
        "ks": (["ks", "--mode", "two_sample"], "x,1.0\ny,{}\n"),
    }

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize("command", sorted(NON_FINITE))
    def test_non_finite_value_is_data_error(self, tmp_path, command, token):
        argv, text = self.NON_FINITE[command]
        data = tmp_path / "bad.txt"
        data.write_text(text.format(token))
        rc, _, err = run_cli(argv[:1] + [str(data)] + argv[1:])
        assert rc == 3
        assert err.startswith("data error: line 2")

    @pytest.mark.parametrize("command", sorted(NON_FINITE))
    def test_missing_input_is_data_error_without_output(self, tmp_path, command):
        argv, _ = self.NON_FINITE[command]
        missing = tmp_path / "absent.txt"
        rc, out, err = run_cli(argv[:1] + [str(missing)] + argv[1:])
        assert rc == 3
        assert out == ""
        assert err.startswith("data error: cannot read input")

    def test_unreadable_input_leaves_output_file_unwritten(self, tmp_path):
        target = tmp_path / "out.csv"
        rc, _, _ = run_cli(["track", str(tmp_path), "--p", "0.5", "--out", str(target)])
        assert rc == 3
        assert not target.exists()


class TestOutputErrors:
    COMMANDS = {
        "bounds": ["bounds", "--methods", "dkw_fixed", "--t", "100"],
        "track": ["track", str(FIXTURES / "stream10.txt"), "--p", "0.5"],
        "band": ["band", str(FIXTURES / "stream10.txt"), "--checkpoints", "5"],
        "abtest": ["abtest", str(FIXTURES / "ab8.txt"), "--p", "0.5", "--r", "0.758"],
        "abtest_simulate": ["abtest", "--simulate", "--runs", "2", "--max-pairs", "200"],
        "ks": ["ks", str(FIXTURES / "ks6.txt"), "--mode", "two_sample"],
        "bai": ["bai", "--pi", "0.5", "--eps", "0.05", "--delta", "0.2", "--runs", "2",
                "--k-arms", "3"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unopenable_output_is_usage_error_without_output(self, tmp_path, command):
        target = tmp_path / "missing_dir" / "out.csv"
        rc, out, err = run_cli(self.COMMANDS[command] + ["--out", str(target)])
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error: cannot open output")
        assert not target.parent.exists()


class TestOutputReplacedOnSuccess:
    FAILING = ["bounds", "--methods", "dkw_fixed", "--t", "0"]

    def test_failed_run_leaves_existing_output_unchanged(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("previous output\n")
        rc, out, err = run_cli(self.FAILING + ["--out", str(target)])
        assert rc == 3
        assert err.startswith("data error:")
        assert target.read_text() == "previous output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_failed_run_creates_no_output(self, tmp_path):
        target = tmp_path / "out.csv"
        rc, _, _ = run_cli(self.FAILING + ["--out", str(target)])
        assert rc == 3
        assert list(tmp_path.iterdir()) == []

    def test_successful_run_replaces_existing_output(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("previous output\n")
        rc, stdout, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100"])
        assert rc == 0
        rc, _, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                            "--out", str(target)])
        assert rc == 0
        assert target.read_text() == stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_device_output_is_written_in_place(self):
        rc, _, _ = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                            "--out", os.devnull])
        assert rc == 0
        assert not os.path.isfile(os.devnull)

    def test_directory_output_is_usage_error(self, tmp_path):
        rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                                "--out", str(tmp_path)])
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error: cannot open output")


class TestNonUtf8Input:
    def test_input_file_is_data_error_naming_the_line(self, tmp_path):
        data = tmp_path / "bad.txt"
        data.write_bytes(b"1.0\n\xff\xfe\n2.0\n")
        rc, _, err = run_cli(["track", str(data), "--p", "0.5"])
        assert rc == 3
        assert err.startswith("data error: line 2: not valid UTF-8")

    def test_label_is_data_error_naming_the_line(self, tmp_path):
        data = tmp_path / "bad.txt"
        data.write_bytes(b"a,1.0\nb,2.0\n\xff,3.0\n")
        rc, _, err = run_cli(["abtest", str(data)])
        assert rc == 3
        assert err.startswith("data error: line 3: not valid UTF-8")

    def test_config_file_is_usage_error_naming_the_line(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"alpha=0.1\ntune-m=\xff\xfe\n")
        rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                                "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"usage error: {cfg}:2: not valid UTF-8")

    def test_valid_non_ascii_text_is_read(self, tmp_path):
        data = tmp_path / "pairs.txt"
        data.write_text("\u00e9,1.0\n\u00fc,2.0\n", encoding="utf-8")
        rc, _, err = run_cli(["abtest", str(data)])
        assert rc == 0, err


_FUZZ_COMMANDS = {
    "track": ["track", "--p", "0.5"],
    "band": ["band", "--checkpoints", "2,4"],
    "abtest_two_sided": ["abtest", "--mode", "two_sided"],
    "abtest_one_sided": ["abtest", "--mode", "one_sided"],
    "abtest_global": ["abtest", "--mode", "global"],
    "ks_one_sample": ["ks", "--mode", "one_sample"],
    "ks_two_sample": ["ks", "--mode", "two_sample"],
}
# short inputs of random bytes, or of lines mixing valid rows with the
# tokens the parsers must reject
_FUZZ_LINE = st.one_of(
    st.sampled_from([b"", b"1.5", b"-2", b"0", b"1e308", b"a,1", b"b,-0.5", b"c,3",
                     b"a,1e-300", b"nan", b"b,inf", b",", b"a,", b"a,1,2", b"\xff\xfe",
                     b"a,\xc3", b"\xe9,1", b"\x00", b" \t"]),
    st.binary(max_size=6),
)
_FUZZ_INPUT = st.one_of(
    st.binary(max_size=40),
    st.lists(_FUZZ_LINE, max_size=12).map(b"\n".join),
    st.lists(_FUZZ_LINE, max_size=12).map(b"\r\n".join),
)


# a valid line, then a line that is not valid UTF-8
_NON_UTF8_INPUT = {"numeric": b"1.0\n\xff\xfe\n2.0\n", "labeled": b"a,1.0\n\xff\xfe,2.0\n"}


class TestArbitraryInputBytes:
    """Any input file or standard input exits 0, 2, 3 or 4, with a classified message on failure."""

    @pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=_FUZZ_INPUT)
    def test_exit_code_contract(self, tmp_path, command, payload):
        data = tmp_path / "input.bin"
        data.write_bytes(payload)
        argv = _FUZZ_COMMANDS[command]
        rc, _, err = run_cli(argv[:1] + [str(data)] + argv[1:])
        assert rc in (0, 2, 3, 4)
        if rc:
            assert err.startswith(("usage error:", "data error:", "numerical failure:"))

    @pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
    def test_stdin_is_read_as_files_are(self, tmp_path, command):
        # under a UTF-8 stdin encoding, Python decodes stdin strictly unless
        # the CLI switches it to the decoding files get
        argv = _FUZZ_COMMANDS[command]
        labeled = command.startswith("abtest") or command == "ks_two_sample"
        payload = _NON_UTF8_INPUT["labeled" if labeled else "numeric"]
        data = tmp_path / "input.bin"
        data.write_bytes(payload)
        from_file = run_cli(argv[:1] + [str(data)] + argv[1:])
        env = dict(os.environ, PYTHONIOENCODING="utf-8",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "seqquant.cli", *argv], input=payload,
                              capture_output=True, env=env, timeout=120)
        from_stdin = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
        assert from_stdin == from_file
        assert from_file[0] == 3
        assert from_file[2].startswith("data error: line 2: not valid UTF-8")


class TestLevelOutOfRange:
    """--p outside (0, 1) is a usage error before anything is written, whatever the method."""

    CASES = {
        "bounds": ["bounds", "--methods", "dkw_fixed,beta_binomial", "--t", "100",
                   "--p", "0.5,1.5"],
        "track": ["track", str(FIXTURES / "stream10.txt"), "--p", "1.5",
                  "--method", "beta_binomial"],
        "track_default": ["track", str(FIXTURES / "stream10.txt"), "--p", "1.5"],
        "abtest": ["abtest", str(FIXTURES / "ab8.txt"), "--p", "1.5"],
        "abtest_simulate": ["abtest", "--simulate", "--p", "0", "--runs", "1"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_usage_error_without_output(self, case):
        rc, out, err = run_cli(self.CASES[case])
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error: --p must lie in (0, 1)")


class TestConfigErrors:
    STREAM = str(FIXTURES / "stream10.txt")
    PAIRS = str(FIXTURES / "ks6.txt")
    BAD_PARAMETERS = {
        "track_stitched_simple_alpha": ["track", STREAM, "--p", "0.5",
                                        "--method", "stitched_simple", "--alpha", "1.5"],
        "track_beta_binomial_r": ["track", STREAM, "--p", "0.5",
                                  "--method", "beta_binomial", "--r", "-1"],
        "track_normal_mixture_r": ["track", STREAM, "--p", "0.5",
                                   "--method", "normal_mixture", "--r", "-1"],
        "band_m": ["band", STREAM, "--checkpoints", "5", "--m", "0.5"],
        "ks_A": ["ks", PAIRS, "--A", "0.5"],
        "ks_m": ["ks", PAIRS, "--m", "0.5"],
    }

    @pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
    def test_bad_radius_parameter_writes_nothing(self, case):
        rc, out, err = run_cli(self.BAD_PARAMETERS[case])
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_missing_config_is_usage_error(self, tmp_path):
        rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                                "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error: cannot read config")

    def test_unknown_key_names_key_and_line(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# defaults\ntune-m=64\nalhpa=0.2\n")
        rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                                "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"usage error: {cfg}:3: unknown key 'alhpa'")

    def test_values_are_typed_by_their_flag(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("r=0.5\nA=0.9\n")
        rc, out, err = run_cli(["track", str(FIXTURES / "stream10.txt"), "--p", "0.5",
                                "--method", "beta_binomial", "--config", str(cfg)])
        assert rc == 2 and "unknown key 'A'" in err  # track has no --A
        cfg.write_text("r=0.5\n")
        rc, out, _ = run_cli(["track", str(FIXTURES / "stream10.txt"), "--p", "0.5",
                              "--method", "beta_binomial", "--config", str(cfg)])
        assert rc == 0
        assert "# r=0.5" in out
        cfg.write_text("A=0.9\nalpha=0.2\n")
        rc, out, _ = run_cli(["band", str(FIXTURES / "stream10.txt"), "--checkpoints", "5",
                              "--A", "0.8", "--config", str(cfg)])
        assert rc == 0
        assert "# A=0.8" in out and "# alpha=0.2" in out

    def test_bad_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("runs=many\n")
        rc, out, err = run_cli(["bai", "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"usage error: {cfg}:1: bad value 'many'")

    def test_bad_value_is_usage_error_when_the_flag_is_given(self, tmp_path):
        # every config line is checked, also one that a command-line flag overrides
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=high\n")
        rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                                "--alpha", "0.3", "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"usage error: {cfg}:1: bad value 'high'")

    def test_abbreviated_flag_wins_over_config(self, tmp_path):
        # argparse accepts a unique prefix of a long flag; it counts as given
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha=0.2\ntune-m=64\n")
        for flag in (["--alph", "0.3"], ["--alph=0.3"]):
            rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100", *flag,
                                    "--config", str(cfg)])
            assert rc == 0, err
            assert "# alpha=0.3" in out
            assert "# tune_m=64.0" in out
        rc, out, err = run_cli(["bounds", "--methods", "dkw_fixed", "--t", "100",
                                "--tune", "16", "--config", str(cfg)])
        assert rc == 0, err
        assert "# tune_m=16.0" in out and "# alpha=0.2" in out

    @pytest.mark.parametrize("value", ["tru", "on", "", "2"])
    def test_unrecognised_switch_value_is_usage_error(self, tmp_path, value):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"intersect={value}\n")
        rc, out, err = run_cli(["track", self.STREAM, "--p", "0.5", "--config", str(cfg)])
        assert (rc, out) == (2, ""), err
        assert err.startswith(f"usage error: {cfg}:1: bad value {value!r} for 'intersect'"), err

    @pytest.mark.parametrize("value, on", [("1", True), ("TRUE", True), ("Yes", True),
                                           ("0", False), ("false", False), ("NO", False)])
    def test_switch_values_in_any_case(self, tmp_path, value, on):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"intersect={value}\n")
        argv = ["track", self.STREAM, "--p", "0.5"]
        rc, out, err = run_cli(argv + ["--config", str(cfg)])
        assert rc == 0, err
        assert out == run_cli(argv + ["--intersect"] * on)[1]
