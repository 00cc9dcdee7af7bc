import argparse
import os
import re
import stat
import threading

import numpy as np
import pytest

from wormnet.cli import build_parser, main
from wormnet.epidemic import CSV_HEADER, TimeSeries
from wormnet.graph import read_edge_list
from wormnet.harness import SECTIONS


def _generate(tmp_path, *extra):
    path = tmp_path / "net.edges"
    rc = main([
        "generate", "--family", "powerlaw", "--n", "150", "--alpha", "2.5",
        "--k-min", "1", "--k-max", "15", "--seed", "2", "--out", str(path),
        *extra,
    ])
    assert rc == 0
    return path


def _assert_names_missing_file(err, path):
    """``err`` is the one-line error of a command whose input ``path`` is missing."""
    assert err == f"wormnet: error: [Errno 2] No such file or directory: '{path}'\n"


class TestGenerate:
    def test_writes_readable_edge_list(self, tmp_path, capsys):
        path = _generate(tmp_path)
        g = read_edge_list(path)
        assert g.n == 150
        assert "wrote" in capsys.readouterr().out

    def test_preset_with_size_override(self, tmp_path):
        path = tmp_path / "a.edges"
        rc = main(["generate", "--preset", "net-a", "--n", "20", "--out", str(path)])
        assert rc == 0
        g = read_edge_list(path)
        assert g.num_edges == 20 * 19 // 2

    def test_missing_family_and_preset_fails(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x.edges")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_multimodal_peaks_argument(self, tmp_path):
        path = tmp_path / "m.edges"
        rc = main([
            "generate", "--family", "multimodal", "--n", "100",
            "--peaks", "2:0.5,6:0.5", "--seed", "1", "--out", str(path),
        ])
        assert rc == 0
        degs = read_edge_list(path).degrees()
        assert np.isin(degs, [2, 3, 6, 7]).all()

    @pytest.mark.parametrize("argv, message", [
        (["--family", "powerlaw", "--alpha", "2.5", "--k-min", "1", "--k-max", "5"],
         "powerlaw family requires n"),
        (["--family", "complete"], "complete family requires n"),
        (["--preset", "net-a", "--family", "complete", "--n", "5"],
         "exactly one of preset/family/file"),
        (["--family", "multimodal", "--n", "10", "--peaks", "2:0.5,6"],
         "bad value '2:0.5,6' for key 'peaks'"),
        (["--family", "powerlaw", "--n", "100", "--alpha", "nan", "--k-min", "1", "--k-max", "10"],
         "[network] powerlaw requires alpha > 1"),
        (["--family", "multimodal", "--n", "10", "--peaks", "2:nan,4:1"],
         "[network] peak weights must be positive"),
        (["--preset", "net-d", "--alpha", "3.5", "--directed", "--n", "300"],
         "[network] preset does not take ['alpha', 'directed']"),
        (["--family", "complete", "--n", "5", "--seed", "-1"],
         "[network] seed must be >= 0, got -1"),
        (["--family", "complete", "--n", "-1"], "generate: [network] n must be >= 0"),
        (["--preset", "net-a", "--seed", "-1"], "[network] seed must be >= 0, got -1"),
        (["--family", "configmodel", "--degree-histogram", "{tmp}/h.hist"],
         "h.hist:2: counts sum past 3037000497, the most a Graph can hold"),
        # a single-degree support whose every draw has an odd sum: the spec refuses it
        (["--family", "powerlaw", "--n", "7", "--alpha", "2.5", "--k-min", "3", "--k-max", "3"],
         "generate: [network] k_min = k_max = 3 with n = 7 gives an odd degree sum"),
        # an odd degree sum whose parity fix would need a degree of n or more
        (["--family", "multimodal", "--n", "5", "--peaks", "4:0.5,1:0.5", "--seed", "1"],
         "cannot adjust degree parity without exceeding n - 1"),
    ])
    def test_bad_network_is_one_line_error(self, tmp_path, capsys, argv, message):
        (tmp_path / "h.hist").write_text("1 4\n3 10000000000000\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        rc = main(["generate", *argv, "--out", str(tmp_path / "x.edges")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("wormnet: error:")
        assert len(err.strip().splitlines()) == 1
        assert message in err
        assert not (tmp_path / "x.edges").exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 2.98 GiB for an array"),
         "wormnet: error: Unable to allocate 2.98 GiB for an array\n"),
        (MemoryError(), "wormnet: error: MemoryError\n"),
    ])
    def test_out_of_memory_is_one_line_error(self, tmp_path, capsys, monkeypatch,
                                             error, message):
        def read_degree_histogram(path):
            raise error

        monkeypatch.setattr("wormnet.netgen.read_degree_histogram", read_degree_histogram)
        (tmp_path / "h.hist").write_text("3 4\n")
        out = tmp_path / "x.edges"
        rc = main(["generate", "--family", "configmodel",
                   "--degree-histogram", str(tmp_path / "h.hist"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_missing_degree_histogram_fails_before_writing(self, tmp_path, capsys):
        hist, out = tmp_path / "gone.hist", tmp_path / "x.edges"
        rc = main(["generate", "--family", "configmodel", "--degree-histogram", str(hist),
                   "--out", str(out)])
        assert rc == 1
        _assert_names_missing_file(capsys.readouterr().err, hist)
        assert not out.exists()


    def test_degree_histogram_byte_that_is_not_utf8_fails_with_its_line(self, tmp_path, capsys):
        hist, out = tmp_path / "deg.hist", tmp_path / "x.edges"
        hist.write_bytes(b"1 2\n2 \xff1\n")
        rc = main(["generate", "--family", "configmodel", "--degree-histogram", str(hist),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"wormnet: error: {hist}:2: byte 0xff is not UTF-8\n"
        assert not out.exists()


class TestSimulate:
    def test_missing_graph_fails_before_writing(self, tmp_path, capsys):
        graph, out = tmp_path / "gone.edges", tmp_path / "run.csv"
        rc = main(["simulate", "--graph", str(graph), "--targeting", "scan", "--rate", "1",
                   "--out", str(out)])
        assert rc == 1
        _assert_names_missing_file(capsys.readouterr().err, graph)
        assert not out.exists()

    def test_produces_time_series(self, tmp_path):
        graph = _generate(tmp_path)
        out = tmp_path / "run.csv"
        rc = main([
            "simulate", "--graph", str(graph), "--targeting", "neighbor",
            "--rate", "5", "--dt", "0.1", "--tmax", "5", "--seed", "1",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER
        ts = TimeSeries.from_csv(out)
        assert ts.n == 150

    def test_throttled_and_vaccinated_run(self, tmp_path):
        graph = _generate(tmp_path)
        out = tmp_path / "run.csv"
        rc = main([
            "simulate", "--graph", str(graph), "--targeting", "neighbor",
            "--rate", "20", "--throttle-rate", "1", "--working-set", "4",
            "--vaccinate", "targeted", "--fraction", "0.05",
            "--dt", "0.1", "--tmax", "5", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        ts = TimeSeries.from_csv(out)
        assert ts.rows[0][4] == 8  # floor(0.05 * 150 + 0.5) vaccinated nodes

    def test_vaccinate_requires_fraction(self, tmp_path, capsys):
        graph = _generate(tmp_path)
        rc = main([
            "simulate", "--graph", str(graph), "--targeting", "neighbor",
            "--rate", "5", "--vaccinate", "random", "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "vaccinate requires 'fraction'" in capsys.readouterr().err

    def test_shuffled_rows_simulate_as_the_sorted_file_does(self, tmp_path):
        # the sorted file skips Graph's sort, and its shuffled copy takes it
        graph = _generate(tmp_path, "--directed")
        header, *rows = graph.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.edges"
        shuffled.write_text(header + "".join(np.random.default_rng(0).permutation(rows)))
        assert shuffled.read_text() != graph.read_text()
        for path, out in ((graph, "sorted.csv"), (shuffled, "shuffled.csv")):
            assert main(["simulate", "--graph", str(path), "--targeting", "neighbor",
                         "--rate", "10", "--seed-infected", "3", "--dt", "0.05", "--tmax", "5",
                         "--seed", "7", "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "sorted.csv").read_bytes() == (tmp_path / "shuffled.csv").read_bytes()

    def test_edge_list_byte_that_is_not_utf8_fails_with_its_line(self, tmp_path, capsys):
        graph, out = tmp_path / "net.edges", tmp_path / "run.csv"
        graph.write_bytes(b"undirected\n0 1\n1 2 # caf\xff\n")
        rc = main(["simulate", "--graph", str(graph), "--targeting", "scan", "--rate", "1",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"wormnet: error: {graph}:3: byte 0xff is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        ("undirected\n0 99999999999999999999\n", ":2: node id out of int64 range"),
        ("directed\n0 1\n9223372036854775808 0\n", ":3: node id out of int64 range"),
        ("undirected 99999999999999999999\n0 1\n", ":1: node count 99999999999999999999 exceeds"),
    ])
    def test_oversized_id_is_one_line_error(self, tmp_path, capsys, content, message):
        graph = tmp_path / "big.edges"
        graph.write_text(content)
        rc = main([
            "simulate", "--graph", str(graph), "--targeting", "scan", "--rate", "1",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("wormnet: error:")
        assert len(err.strip().splitlines()) == 1
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["--rate", "nan"], "[worm] rate must be > 0 and finite"),
        (["--rate", "inf"], "[worm] rate must be > 0 and finite"),
        (["--rate", "5", "--throttle-rate", "nan"], "[controls] throttle_rate must be > 0"),
        (["--rate", "5", "--pinfect", "2"], "[worm] pinfect must lie in (0, 1]"),
        (["--rate", "5", "--throttle-rate", "1", "--working-set", "-1"],
         "[controls] working_set must be >= 0"),
        (["--rate", "5", "--dt", "nan"], "dt must be > 0 and finite"),
        (["--rate", "5", "--dt", "inf"], "dt must be > 0 and finite"),
        (["--rate", "5", "--tmax", "nan"], "[run] tmax must be > 0"),
        (["--rate", "5", "--seed-infected", "0"], "[run] seed_infected must be >= 1, got 0"),
        (["--rate", "5", "--seed", "-3"], "[run] seed must be >= 0, got -3"),
        (["--rate", "5", "--address-space", "7"],
         "[worm] address_space applies to scan targeting only"),
        (["--rate", "5", "--fraction", "0.5"], "[controls] fraction requires 'vaccinate'"),
        (["--rate", "5", "--working-set", "2"],
         "[controls] working_set requires 'throttle_rate'"),
        (["--rate", "5", "--queue-capacity", "3"],
         "[controls] queue_capacity requires 'throttle_rate'"),
    ])
    def test_nan_or_inf_is_one_line_error(self, tmp_path, capsys, argv, message):
        graph = _generate(tmp_path)
        out = tmp_path / "o.csv"
        rc = main(["simulate", "--graph", str(graph), "--targeting", "neighbor", *argv,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("wormnet: error:")
        assert len(err.strip().splitlines()) == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, controls", [
        ([], ""),
        (["--throttle-rate", "1", "--working-set", "3", "--vaccinate", "targeted",
          "--fraction", "0.05"],
         "[controls]\nthrottle_rate = 1\nworking_set = 3\nvaccinate = targeted\n"
         "fraction = 0.05\n"),
    ])
    def test_is_replicate_0_of_an_experiment(self, tmp_path, flags, controls):
        graph = _generate(tmp_path)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--graph", str(graph), "--targeting", "neighbor",
                     "--rate", "8", *flags, "--seed-infected", "2", "--dt", "0.05",
                     "--tmax", "6", "--seed", "9", "--out", str(out)]) == 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[network]\nfile = {graph}\n\n[worm]\ntargeting = neighbor\n"
                       f"rate = 8\n\n{controls}\n[run]\nreplicates = 2\nseed_infected = 2\n"
                       "dt = 0.05\ntmax = 6\nseed = 9\n")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 0
        assert out.read_bytes() == (tmp_path / "exp" / "rep_000.csv").read_bytes()

    def test_missing_graph_file(self, tmp_path, capsys):
        rc = main([
            "simulate", "--graph", str(tmp_path / "nope.edges"),
            "--targeting", "scan", "--rate", "1", "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestThreshold:
    def test_empirical_csv(self, tmp_path, capsys):
        graph = _generate(tmp_path)
        out = tmp_path / "thr.csv"
        rc = main([
            "threshold", "--graph", str(graph), "--strategy", "targeted",
            "--s-min", "0.02", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strategy,f_c,method,s_min,trials,ci_halfwidth"
        fields = lines[1].split(",")
        assert fields[0] == "targeted" and fields[2] == "empirical"
        assert 0.0 <= float(fields[1]) <= 1.0
        assert "f_c(" in capsys.readouterr().out

    def test_analytical_method(self, tmp_path):
        graph = _generate(tmp_path)
        out = tmp_path / "thr.csv"
        rc = main([
            "threshold", "--graph", str(graph), "--strategy", "random",
            "--method", "analytical", "--out", str(out),
        ])
        assert rc == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert fields[2] == "analytical"
        assert fields[3] == ""  # no s_min for the analytical route

    @pytest.mark.parametrize("content", ["undirected\n", "directed 4\n"])
    @pytest.mark.parametrize("strategy", ["random", "targeted"])
    def test_analytical_on_graph_without_edges_is_one_line_error(
            self, tmp_path, capsys, content, strategy):
        graph = tmp_path / "empty.edges"
        graph.write_text(content)
        out = tmp_path / "thr.csv"
        rc = main(["threshold", "--graph", str(graph), "--strategy", strategy,
                   "--method", "analytical", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "wormnet: error: degree sequence must be non-negative with mean degree > 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["random", "targeted"])
    def test_empirical_on_graph_without_nodes_is_one_line_error(self, tmp_path, capsys,
                                                                strategy):
        graph = tmp_path / "empty.edges"
        graph.write_text("undirected\n")
        out = tmp_path / "thr.csv"
        rc = main(["threshold", "--graph", str(graph), "--strategy", strategy,
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "wormnet: error: graph has no nodes\n"
        assert not out.exists()

    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        graph = _generate(tmp_path)
        out = tmp_path / "thr.csv"
        rc = main(["threshold", "--graph", str(graph), "--strategy", "random",
                   "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "wormnet: error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestThrottleDemo:
    def test_golden_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,dest\n" + "".join(f"0,{i}\n" for i in range(5)))
        out = tmp_path / "decisions.csv"
        rc = main([
            "throttle-demo", "--trace", str(trace), "--rate", "1",
            "--working-set", "4", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,dest,decision,delay"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("content, message", [
        ("time,destination\n0,1\n", "1: expected header 't,dest', got 'time,destination'"),
        ("t,dest\n0,1\n\n0.5,x\n", "4: bad row '0.5,x'"),
        ("t,dest\n0,1\nnan,2\n", "3: bad row 'nan,2'"),
        ("t,dest\n0,1\ninf,3\n", "3: bad row 'inf,3'"),
    ])
    def test_bad_trace_header_or_row(self, tmp_path, capsys, content, message):
        trace = tmp_path / "tr.csv"
        trace.write_text(content)
        rc = main([
            "throttle-demo", "--trace", str(trace), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"wormnet: error: {trace}:{message}\n"

    def test_trace_byte_that_is_not_utf8_fails_with_its_line(self, tmp_path, capsys):
        trace, out = tmp_path / "tr.csv", tmp_path / "o.csv"
        trace.write_bytes(b"t,dest\n0,1\n0.5,\xff2\n")
        rc = main(["throttle-demo", "--trace", str(trace), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"wormnet: error: {trace}:3: byte 0xff is not UTF-8\n"
        assert not out.exists()

    def test_a_queue_capacity_of_zero_is_refused(self, tmp_path, capsys):
        # leaving --queue-capacity out gives an unbounded queue; 0 is no bound
        trace, out = tmp_path / "tr.csv", tmp_path / "o.csv"
        trace.write_text("t,dest\n0,1\n")
        rc = main(["throttle-demo", "--trace", str(trace), "--queue-capacity", "0",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "wormnet: error: queue_capacity must be >= 1\n"
        assert not out.exists()


class TestExperimentAndCompare:
    CFG = """\
[network]
family = powerlaw
n = 150
alpha = 2.5
k_min = 1
k_max = 15
seed = 2

[worm]
targeting = neighbor
rate = 8

[run]
replicates = 2
dt = 0.05
tmax = 8
seed = 5
"""

    def test_full_flow(self, tmp_path, capsys):
        base_cfg = tmp_path / "base.cfg"
        base_cfg.write_text(self.CFG)
        treated_cfg = tmp_path / "treated.cfg"
        treated_cfg.write_text(self.CFG + "\n[controls]\nthrottle_rate = 1\n")

        assert main(["experiment", "--config", str(base_cfg),
                     "--out", str(tmp_path / "base")]) == 0
        assert main(["experiment", "--config", str(treated_cfg),
                     "--out", str(tmp_path / "treated")]) == 0
        assert (tmp_path / "base" / "summary.csv").exists()

        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", "--baseline", str(tmp_path / "base"),
            "--treated", str(tmp_path / "treated"), "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,baseline,treated,slowdown"
        printed = capsys.readouterr().out
        assert "growth_rate" in printed

    def test_resolved_config_reruns_to_the_same_bytes(self, tmp_path):
        # 0.12349999999 of 1000 nodes vaccinates 123; recorded to 10 digits, as
        # 0.1235, the fraction would vaccinate 124
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[network]\nfamily = complete\nn = 1000\n\n[worm]\ntargeting = scan\n"
                       "rate = 1\n\n[controls]\nvaccinate = random\nfraction = 0.12349999999\n"
                       "\n[run]\ntmax = 1\nseed = 1\n")
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["experiment", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["experiment", "--config", str(first / "resolved.cfg"),
                     "--out", str(again)]) == 0
        assert (first / "rep_000.csv").read_text().splitlines()[1] == "0,0,876,1,123,0,0"
        assert sorted(os.listdir(again)) == sorted(os.listdir(first))
        for name in os.listdir(first):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_config_value_may_hold_a_hash(self, tmp_path, monkeypatch):
        # a comment is a whole line, so a graph file named net#1.edges loads,
        # and the resolved.cfg that records it re-runs to the same bytes
        monkeypatch.chdir(tmp_path)
        os.rename(_generate(tmp_path), "net#1.edges")
        (tmp_path / "exp.cfg").write_text("# a scan worm on net#1\n[network]\nfile = net#1.edges\n"
                                          "\n[worm]\ntargeting = scan\nrate = 1\n"
                                          "\n[run]\ntmax = 1\nseed = 1\n")
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["experiment", "--config", "exp.cfg", "--out", str(first)]) == 0
        assert "file = net#1.edges" in (first / "resolved.cfg").read_text().splitlines()
        assert main(["experiment", "--config", str(first / "resolved.cfg"),
                     "--out", str(again)]) == 0
        assert sorted(os.listdir(again)) == sorted(os.listdir(first))
        for name in os.listdir(first):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_outputs_get_umask_mode_and_symlinks_are_kept(self, tmp_path, monkeypatch):
        old_umask = os.umask(0o022)
        try:
            monkeypatch.chdir(tmp_path)
            graph = _generate(tmp_path)
            assert main(["simulate", "--graph", str(graph), "--targeting", "scan",
                         "--rate", "1", "--tmax", "1", "--out", "run.csv"]) == 0
            assert main(["threshold", "--graph", str(graph), "--strategy", "targeted",
                         "--out", "thr.csv"]) == 0
            self._experiments(tmp_path, "preset = net-a\nn = 30")
            os.mkdir("keep")
            with open("keep/cmp.csv", "w") as fh:
                fh.write("old\n")
            os.symlink("keep/cmp.csv", "cmp.csv")
            assert main(["compare", "--baseline", "base", "--treated", "treated",
                         "--out", "cmp.csv"]) == 0
        finally:
            os.umask(old_umask)
        assert os.readlink("cmp.csv") == "keep/cmp.csv"
        assert (tmp_path / "keep" / "cmp.csv").read_text().startswith("metric,")
        assert os.listdir("keep") == ["cmp.csv"]
        written = ["net.edges", "run.csv", "thr.csv", "keep/cmp.csv",
                   *(f"{arm}/{name}" for arm in ("base", "treated")
                     for name in os.listdir(arm))]
        assert {stat.S_IMODE(os.stat(name).st_mode) for name in written} == {0o644}
        assert not any(name.startswith(".tmp-") for d in (".", "base", "treated")
                       for name in os.listdir(d))

    def test_compare_writes_a_fifo_in_place(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._experiments(tmp_path, "preset = net-a\nn = 30")
        os.mkfifo("pipe")
        got = []
        reader = threading.Thread(
            target=lambda: got.append((tmp_path / "pipe").read_text()), daemon=True)
        reader.start()
        assert main(["compare", "--baseline", "base", "--treated", "treated",
                     "--out", "pipe"]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got[0].startswith("metric,baseline,treated,slowdown\ngrowth_rate,")

    @pytest.mark.parametrize("key, value", [
        ("dt", "nan"), ("tmax", "nan"), ("replicates", "0"), ("seed_infected", "0"),
        ("seed", "-2"),
    ])
    def test_bad_run_setting_fails_before_writing(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(re.sub(rf"^{key} = .*\n", "", self.CFG, flags=re.M) + f"{key} = {value}\n")
        out = tmp_path / "o"
        rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"wormnet: error: {cfg}: [run] {key} must be ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (("targeting = neighbor", "targeting = scan\naddress_space = 100"),
         "address_space must be >= n"),
        (("seed = 5", "seed = 5\nseed_infected = 151"),
         "not enough unvaccinated nodes to seed the infection: "
         "[run] seed_infected = 151, 150 unvaccinated"),
    ])
    def test_setting_that_fails_in_a_replicate_writes_nothing(self, tmp_path, capsys, edit,
                                                             message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.CFG.replace(*edit))
        out = tmp_path / "o"
        rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"wormnet: error: {message}\n"
        assert not out.exists()

    def _experiments(self, tmp_path, network):
        """Run a baseline and a throttled experiment on ``network`` from inside
        tmp_path, so that a file it names is recorded relative to it."""
        cfg = re.sub(r"\[network\]\n(.*\n)*?\n", f"[network]\n{network}\n\n", self.CFG)
        (tmp_path / "base.cfg").write_text(cfg)
        (tmp_path / "treated.cfg").write_text(cfg + "\n[controls]\nthrottle_rate = 1\n")
        for arm in ("base", "treated"):
            assert main(["experiment", "--config", f"{arm}.cfg", "--out", arm]) == 0

    @pytest.mark.parametrize("network, named", [
        ("file = net.edges", "net.edges"),
        ("family = configmodel\ndegrees_file = net.hist", "net.hist"),
    ])
    def test_compare_opens_no_network_file(self, tmp_path, monkeypatch, network, named):
        _generate(tmp_path)
        (tmp_path / "net.hist").write_text("1 60\n2 60\n3 30\n")
        monkeypatch.chdir(tmp_path)
        self._experiments(tmp_path, network)
        resolved = (tmp_path / "base" / "resolved.cfg").read_text()
        (tmp_path / named).unlink()
        # run from another directory too: the recorded path no longer resolves
        monkeypatch.chdir(tmp_path / "base")
        rc = main(["compare", "--baseline", "../base", "--treated", "../treated"])
        assert rc == 0
        assert (tmp_path / "base" / "resolved.cfg").read_text() == resolved

    @pytest.mark.parametrize("network, missing", [
        ("file = gone.edges", "gone.edges"),
        ("family = configmodel\ndegrees_file = gone.hist", "gone.hist"),
    ])
    def test_experiment_on_missing_network_file_fails_before_writing(self, tmp_path, capsys,
                                                                     network, missing):
        cfg = tmp_path / "missing.cfg"
        cfg.write_text(re.sub(r"family = (.*\n)*?\n", f"{network}\n\n", self.CFG))
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        _assert_names_missing_file(capsys.readouterr().err, missing)
        assert not (tmp_path / "o").exists()

    def test_compare_names_bad_replicate_row(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._experiments(tmp_path, "preset = net-a\nn = 150")
        rep = tmp_path / "base" / "rep_000.csv"
        rep.write_text(rep.read_text() + "7,0.5\n")
        rc = main(["compare", "--baseline", "base", "--treated", "treated"])
        assert rc == 1
        lineno = len(rep.read_text().splitlines())
        err = capsys.readouterr().err
        assert f"{rep.relative_to(tmp_path)}:{lineno}: bad row '7,0.5'" in err

    def test_compare_names_a_missing_replicate_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._experiments(tmp_path, "preset = net-a\nn = 30")
        os.unlink(os.path.join("treated", "rep_000.csv"))
        rc = main(["compare", "--baseline", "base", "--treated", "treated"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("wormnet: error:")
        assert len(err.strip().splitlines()) == 1
        assert os.path.join("treated", "rep_000.csv") in err

    @pytest.mark.parametrize("edit, lineno", [
        ((b"rate = 8", b"rate = \xff8"), 11),
        ((b"[worm]", b"# caf\xff\n[worm]"), 9),
    ], ids=["value", "comment"])
    def test_config_byte_that_is_not_utf8_fails_with_its_line(self, tmp_path, capsys, edit,
                                                              lineno):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "o"
        cfg.write_bytes(self.CFG.encode().replace(*edit))
        rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"wormnet: error: {cfg}:{lineno}: byte 0xff is not UTF-8\n")
        assert not out.exists()

    def test_compare_replicate_byte_that_is_not_utf8_fails_with_its_line(self, tmp_path,
                                                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._experiments(tmp_path, "preset = net-a\nn = 30")
        rep = os.path.join("base", "rep_000.csv")
        header, first, *rest = (tmp_path / rep).read_bytes().splitlines(keepends=True)
        (tmp_path / rep).write_bytes(b"".join([header, first, b"\xff" + rest[0], *rest[1:]]))
        rc = main(["compare", "--baseline", "base", "--treated", "treated", "--out", "cmp.csv"])
        assert rc == 1
        assert capsys.readouterr().err == f"wormnet: error: {rep}:3: byte 0xff is not UTF-8\n"
        assert not os.path.exists("cmp.csv")

    def test_bad_config_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[network]\nwarp = 9\n")
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("wormnet: error:")
        assert len(err.strip().splitlines()) == 1


def _command_actions(command):
    """The option actions of ``command``, -h left out."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


# the config keys that are flags: [network]'s of generate, the rest of simulate
CONFIG_FLAG_KEYS = [(section, key) for section, keys in SECTIONS.items() for key in keys
                    if key not in ("file", "replicates")]


class TestConfigKeyFlags:
    # every flag of generate and simulate, with its dest
    FLAGS = {
        "generate": {
            "--preset": "preset", "--family": "family", "--n": "n", "--alpha": "alpha",
            "--k-min": "k_min", "--k-max": "k_max", "--peaks": "peaks",
            "--degree-histogram": "degrees_file", "--directed": "directed", "--seed": "seed",
            "--out": "out",
        },
        "simulate": {
            "--graph": "graph", "--targeting": "targeting", "--rate": "rate",
            "--pinfect": "pinfect", "--address-space": "address_space",
            "--throttle-rate": "throttle_rate", "--working-set": "working_set",
            "--queue-capacity": "queue_capacity", "--vaccinate": "vaccinate",
            "--fraction": "fraction", "--seed-infected": "seed_infected", "--dt": "dt",
            "--tmax": "tmax", "--seed": "seed", "--out": "out",
        },
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_and_dests(self, command):
        actions = _command_actions(command)
        assert {flag: a.dest for a in actions for flag in a.option_strings} == self.FLAGS[command]
        # in config-section order; argparse checks no value or presence: harness does
        config_actions = [a for a in actions if a.dest not in ("graph", "out")]
        generate = command == "generate"
        assert [a.dest for a in config_actions] == [
            key for section, key in CONFIG_FLAG_KEYS if (section == "network") == generate]
        assert all(a.choices is None and not a.required for a in config_actions)

    @pytest.mark.parametrize("section, key", CONFIG_FLAG_KEYS)
    def test_every_config_key_is_a_flag_named_after_it(self, section, key):
        command = "generate" if section == "network" else "simulate"
        flag, = (f for f, dest in self.FLAGS[command].items() if dest == key)
        assert flag == {"degrees_file": "--degree-histogram"}.get(key, "--" + key.replace("_", "-"))
        value = [] if key == "directed" else ["v"]
        graph = ["--graph", "g"] if command == "simulate" else []
        args = build_parser().parse_args([command, *graph, flag, *value, "--out", "o"])
        assert getattr(args, key) == ("true" if key == "directed" else "v")

    @pytest.mark.parametrize("flags, config, message", [
        (["--family", "bogus", "--n", "10"], "[network]\nfamily = bogus\nn = 10\n",
         "[network] unknown family 'bogus'; available: complete, multimodal, configmodel, "
         "powerlaw"),
        (["--preset", "bogus"], "[network]\npreset = bogus\n",
         "[network] unknown preset 'bogus'; available: net-a, net-b, net-c, net-d"),
        (["--targeting", "bogus", "--rate", "5"], "[worm]\ntargeting = bogus\nrate = 5\n",
         "[worm] unknown targeting 'bogus'; available: neighbor, scan"),
        (["--targeting", "scan", "--rate", "5", "--vaccinate", "bogus", "--fraction", "0.1"],
         "[worm]\ntargeting = scan\nrate = 5\n[controls]\nvaccinate = bogus\nfraction = 0.1\n",
         "[controls] unknown strategy kind 'bogus'; available: random, targeted"),
        (["--rate", "5"], "[worm]\nrate = 5\n", "[worm] missing required key 'targeting'"),
        (["--targeting", "scan"], "[worm]\ntargeting = scan\n",
         "[worm] missing required key 'rate'"),
        (["--targeting", "scan", "--rate", "5", "--throttle-rate", "0"],
         "[worm]\ntargeting = scan\nrate = 5\n[controls]\nthrottle_rate = 0\n",
         "[controls] throttle_rate must be > 0"),
        (["--targeting", "scan", "--rate", "5", "--throttle-rate", "1", "--queue-capacity", "0"],
         "[worm]\ntargeting = scan\nrate = 5\n[controls]\nthrottle_rate = 1\nqueue_capacity = 0\n",
         "[controls] queue_capacity must be >= 1"),
    ])
    def test_flag_fails_as_its_config_line_does(self, tmp_path, capsys, flags, config, message):
        graph = tmp_path / "g.edges"
        graph.write_text("undirected 3\n0 1\n1 2\n")
        if config.startswith("[network]"):
            argv = ["generate", *flags]
        else:
            argv = ["simulate", "--graph", str(graph), *flags]
            config = f"[network]\nfile = {graph}\n{config}"
        cfg = tmp_path / "x.cfg"
        cfg.write_text(config)
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"wormnet: error: {argv[0]}: {message}\n"
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"wormnet: error: {cfg}: {message}\n"
        assert not (tmp_path / "o").exists()
