import dataclasses
import os
import re

import numpy as np
import pytest

from wormnet import harness
from wormnet.epidemic import TimeSeries, WormBehavior
from wormnet.graph import read_edge_list, write_edge_list
from wormnet.harness import ConfigError, load_config
from wormnet.netgen import FAMILIES, NetworkSpec, build_complete, build_network
from wormnet.percolation import VaccinationStrategy
from wormnet.throttle import ThrottleConfig


BASE_CFG = """\
[network]
family = powerlaw
n = 200
alpha = 2.5
k_min = 1
k_max = 20
seed = 3

[worm]
targeting = neighbor
rate = 8

[run]
replicates = 2
dt = 0.05
tmax = 10
seed = 11
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadConfig:
    def test_basic_parse_and_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, BASE_CFG))
        assert cfg.network_spec.family == "powerlaw"
        assert cfg.network_spec.n == 200
        assert cfg.worm.attempt_rate == 8.0
        assert cfg.worm.infection_probability == 1.0  # default
        assert cfg.replicates == 2
        assert cfg.seed_infected == 1  # default
        assert cfg.vaccination is None and cfg.throttle is None

    def test_unknown_key_reports_line_number(self, tmp_path):
        text = BASE_CFG.replace("rate = 8", "rate = 8\nstealth = yes")
        with pytest.raises(ConfigError, match=r"\.cfg:12: unknown key 'stealth'"):
            load_config(_write(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[payload\]"):
            load_config(_write(tmp_path, "[payload]\nx = 1\n"))

    def test_duplicate_key(self, tmp_path):
        text = BASE_CFG + "\n[worm]\n"  # reopen section
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, text + "targeting = scan\n"))

    def test_line_without_equals(self, tmp_path):
        text = BASE_CFG.replace("rate = 8", "rate 8")
        with pytest.raises(ConfigError, match=r"\.cfg:11: expected 'key = value', got 'rate 8'"):
            load_config(_write(tmp_path, text))

    def test_unreadable_config_path(self, tmp_path):
        # a config that cannot be opened fails as every input does: the OSError naming it
        missing, directory = str(tmp_path / "missing.cfg"), str(tmp_path)
        with pytest.raises(FileNotFoundError) as err:
            load_config(missing)
        assert str(err.value) == f"[Errno 2] No such file or directory: '{missing}'"
        with pytest.raises(IsADirectoryError) as err:
            load_config(directory)
        assert str(err.value) == f"[Errno 21] Is a directory: '{directory}'"

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ConfigError, match="outside any"):
            load_config(_write(tmp_path, "n = 5\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value 'fast'"):
            load_config(_write(tmp_path, BASE_CFG.replace("rate = 8", "rate = fast")))

    @pytest.mark.parametrize("text, message", [
        ("[network]\npreset = net-a\n\n[worm]\ntargeting = scan\n# two bad lines follow\n"
         "rate = fast\npinfect = 1\n\nstealth = yes\n", ":7: bad value 'fast' for key 'rate'"),
        ("[network]\nfamily = powerlaw\ndirected = maybe\n",
         ":3: bad value 'maybe' for key 'directed'"),
        ("[network]\npreset = net-a\n\n[worm]\ntargeting = scan\nrate = 10 # per second\n",
         ":6: bad value '10 # per second' for key 'rate'"),
    ], ids=["bad-value-before-unknown-key", "bad-bool", "comment-after-value"])
    def test_first_bad_line_is_named(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}{message}"

    def test_exactly_one_network_source(self, tmp_path):
        text = BASE_CFG.replace("family = powerlaw", "family = powerlaw\npreset = net-a")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(_write(tmp_path, text))

    def test_family_requires_n(self, tmp_path):
        text = BASE_CFG.replace("n = 200\n", "")
        with pytest.raises(ConfigError, match=r"\[network\] powerlaw family requires n"):
            load_config(_write(tmp_path, text))

    def test_bad_preset_override_is_config_error(self, tmp_path):
        text = "[network]\npreset = net-b\nn = 10\n\n[worm]\ntargeting = scan\nrate = 1\n"
        with pytest.raises(ConfigError, match=r"\[network\] peak degrees must lie in"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("network, message", [
        ("preset = net-d\nalpha = 3.5\ndirected = true\nn = 300",
         "[network] preset does not take ['alpha', 'directed']"),
        ("preset = net-b\nk_min = 2", "[network] preset does not take ['k_min']"),
        ("file = net.edges\nseed = 3", "[network] file does not take ['seed']"),
        ("file = net.edges\ndirected = false\nn = 5",
         "[network] file does not take ['directed', 'n']"),
        ("family = multimodal\nn = 10\npeaks = 2:1\ndirected = true",
         "[network] multimodal family does not take ['directed']"),
        ("family = multimodal\nn = 10\npeaks = 2:1\ndirected = false",
         "[network] multimodal family does not take ['directed']"),
        ("family = complete\nn = 5\ndirected = false",
         "[network] complete family does not take ['directed']"),
        ("family = configmodel\ndegrees_file = h.hist\nn = 999",
         "[network] configmodel family does not take ['n']"),
        ("family = complete\nn = 5\nalpha = 3\nk_min = 2\npeaks = 1:1",
         "[network] complete family does not take ['alpha', 'k_min', 'peaks']"),
        ("family = powerlaw\nn = 50\nalpha = 2.5\nk_min = 1\nk_max = 9\ndegrees_file = h",
         "[network] powerlaw family does not take ['degrees_file']"),
    ])
    def test_network_key_the_source_cannot_use_is_config_error(self, tmp_path, network, message):
        path = _write(tmp_path, f"[network]\n{network}\n\n[worm]\ntargeting = scan\nrate = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {message}"

    # a value of each NetworkSpec field that a family may leave unset
    _FIELD_VALUES = {"n": 5, "peaks": ((1, 1.0),), "degrees_file": "h.hist", "directed": True,
                     "alpha": 2.5, "k_min": 1, "k_max": 3}

    @pytest.mark.parametrize("family, field", [
        (family, f.name) for family, taken in FAMILIES.items()
        for f in dataclasses.fields(NetworkSpec) if f.name not in ("family", "seed", *taken)
    ])
    def test_field_the_family_does_not_take_is_refused(self, tmp_path, family, field):
        value = self._FIELD_VALUES[field]
        message = f"{family} family does not take [{field!r}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NetworkSpec(family, **{field: value})
        path = _write(tmp_path, f"[network]\nfamily = {family}\n"
                                f"{field} = {harness._format_value(value)}\n"
                                "\n[worm]\ntargeting = scan\nrate = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: [network] {message}"

    @pytest.mark.parametrize("network, controls, message", [
        ("preset = bogus", "", "[network] unknown preset 'bogus'; available: "
         "net-a, net-b, net-c, net-d"),
        ("family = configmodel", "", "[network] configmodel family requires degrees_file"),
        ("family = powerlaw\nn = 50\nalpha = nan\nk_min = 1\nk_max = 9", "",
         "[network] powerlaw requires alpha > 1"),
        ("family = multimodal\nn = 10\npeaks = 2:nan,4:1", "",
         "[network] peak weights must be positive"),
        ("preset = net-a", "vaccinate = bogus\nfraction = 0.1",
         "[controls] unknown strategy kind 'bogus'; available: random, targeted"),
        ("preset = net-a", "fraction = 0.5", "[controls] fraction requires 'vaccinate'"),
        ("preset = net-a", "working_set = 2", "[controls] working_set requires 'throttle_rate'"),
        ("preset = net-a", "queue_capacity = 3",
         "[controls] queue_capacity requires 'throttle_rate'"),
    ])
    def test_bad_source_or_control_is_config_error(self, tmp_path, network, controls, message):
        path = _write(tmp_path, f"[network]\n{network}\n\n[worm]\ntargeting = scan\nrate = 1\n"
                      f"\n[controls]\n{controls}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("line, message", [
        ("dt = nan", "[run] dt must be > 0 and finite, got nan"),
        ("dt = inf", "[run] dt must be > 0 and finite, got inf"),
        ("dt = 0", "[run] dt must be > 0 and finite, got 0.0"),
        ("tmax = nan", "[run] tmax must be > 0, got nan"),
        ("tmax = -1", "[run] tmax must be > 0, got -1.0"),
        ("replicates = 0", "[run] replicates must be >= 1, got 0"),
        ("seed_infected = 0", "[run] seed_infected must be >= 1, got 0"),
        ("seed = -2", "[run] seed must be >= 0, got -2"),
    ])
    def test_bad_run_setting_is_config_error(self, tmp_path, line, message):
        key = line.split(" = ")[0]
        path = _write(tmp_path, re.sub(rf"^{key} = .*\n", "", BASE_CFG, flags=re.M) + line + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {message}"

    def test_missing_worm_keys(self, tmp_path):
        text = BASE_CFG.replace("targeting = neighbor\n", "")
        with pytest.raises(ConfigError, match="missing required key 'targeting'"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("network, missing", [
        ("file = nonexistent.edges", "nonexistent.edges"),
        ("family = configmodel\ndegrees_file = nope.hist", "nope.hist"),
    ])
    def test_missing_network_file_fails_when_the_graph_is_built(self, tmp_path, monkeypatch,
                                                               network, missing):
        monkeypatch.chdir(tmp_path)
        cfg = load_config(_write(tmp_path, f"[network]\n{network}\n\n"
                                           "[worm]\ntargeting = scan\nrate = 1\n"))
        with pytest.raises(FileNotFoundError, match=missing):
            harness.build_graph(cfg)

    def test_load_config_opens_no_file_but_the_config(self, tmp_path, monkeypatch):
        write_edge_list(build_complete(4), tmp_path / "net.edges")
        (tmp_path / "h.hist").write_text("2 30\n4 10\n")
        opened = []
        real_open = open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("builtins.open", recording_open)
        for network in ("file = net.edges", "family = configmodel\ndegrees_file = h.hist"):
            path = _write(tmp_path, f"[network]\n{network}\n\n[worm]\ntargeting = scan\nrate = 1\n")
            load_config(path)
            assert opened == [path]
            opened.clear()

    def test_preset_with_overrides(self, tmp_path):
        text = (
            "[network]\npreset = net-a\nn = 50\n\n"
            "[worm]\ntargeting = neighbor\nrate = 2\n"
        )
        cfg = load_config(_write(tmp_path, text))
        assert cfg.network_spec.family == "complete"
        assert cfg.network_spec.n == 50

    def test_controls_parsed(self, tmp_path):
        text = BASE_CFG + (
            "\n[controls]\nvaccinate = targeted\nfraction = 0.1\n"
            "throttle_rate = 1\nworking_set = 3\n"
        )
        cfg = load_config(_write(tmp_path, text))
        assert cfg.vaccination == VaccinationStrategy("targeted", 0.1)
        assert cfg.throttle == ThrottleConfig(rate=1.0, working_set_capacity=3)

    def test_vaccinate_requires_fraction(self, tmp_path):
        text = BASE_CFG + "\n[controls]\nvaccinate = random\n"
        with pytest.raises(ConfigError, match="requires 'fraction'"):
            load_config(_write(tmp_path, text))

    def test_configmodel_from_degrees_file(self, tmp_path):
        hist = tmp_path / "deg.hist"
        hist.write_text("2 30\n4 10\n")
        text = (
            f"[network]\nfamily = configmodel\ndegrees_file = {hist}\n\n"
            "[worm]\ntargeting = neighbor\nrate = 1\n"
        )
        cfg = load_config(_write(tmp_path, text))
        g = harness.build_graph(cfg)
        assert g.n == 40
        assert sorted(g.degrees().tolist()) == [2] * 30 + [4] * 10


class TestRunReplicate:
    def test_vaccinated_nodes_not_seeded(self, replicate_config):
        g = build_complete(30)
        cfg = replicate_config(WormBehavior("neighbor", attempt_rate=5.0),
                               VaccinationStrategy("random", 0.5))
        for rep in range(5):
            ts = harness.run_replicate(g, cfg, rep)
            assert ts.rows[0][4] == 15  # recovered = vaccinated count
            assert ts.rows[0][3] == 1

    def test_replicates_differ_but_are_reproducible(self, replicate_config):
        g = build_complete(40)
        cfg = replicate_config(WormBehavior("neighbor", attempt_rate=5.0), seed=7)
        a0 = harness.run_replicate(g, cfg, 0)
        a1 = harness.run_replicate(g, cfg, 1)
        b0 = harness.run_replicate(g, cfg, 0)
        assert a0.to_csv_text() == b0.to_csv_text()
        assert a0.to_csv_text() != a1.to_csv_text()

    def test_too_few_unvaccinated(self, replicate_config):
        cfg = replicate_config(WormBehavior("neighbor", attempt_rate=1.0),
                               VaccinationStrategy("random", 1.0), t_max=1.0)
        with pytest.raises(ValueError, match="not enough"):
            harness.run_replicate(build_complete(4), cfg, 0)


class TestRunExperiment:
    def test_outputs_written(self, tmp_path):
        cfg = load_config(_write(tmp_path, BASE_CFG))
        outdir = tmp_path / "out"
        result = harness.run_experiment(cfg, str(outdir))
        names = sorted(os.listdir(outdir))
        assert names == ["rep_000.csv", "rep_001.csv", "resolved.cfg", "summary.csv"]
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0] == "replicate,growth_rate,time_to_fraction"
        assert summary[-2].startswith("mean,")
        assert summary[-1].startswith("std,")
        assert len(result.growth_rates) == 2

    @pytest.mark.parametrize("text, parsed, line", [
        (BASE_CFG, {}, "alpha = 2.5"),
        (BASE_CFG.replace("seed = 3", "seed = 3\ndirected = true"), {"directed": True},
         "directed = true"),
        (BASE_CFG.replace("family = powerlaw", "family = multimodal\npeaks = 2:0.25, 4:0.75")
         .replace("alpha = 2.5\nk_min = 1\nk_max = 20\n", ""),
         {"peaks": ((2, 0.25), (4, 0.75))}, "peaks = 2:0.25,4:0.75"),
        (BASE_CFG.replace("alpha = 2.5", "alpha = 2.12345678901"), {"alpha": 2.12345678901},
         "alpha = 2.12345678901"),
    ])
    def test_resolved_config_reloads_identically(self, tmp_path, text, parsed, line):
        cfg = load_config(_write(tmp_path, text))
        for key, value in parsed.items():
            assert cfg.resolved["network"][key] == value
            assert type(cfg.resolved["network"][key]) is type(value)
        outdir = tmp_path / "out"
        harness.run_experiment(cfg, str(outdir))
        assert line in (outdir / "resolved.cfg").read_text().splitlines()
        cfg2 = load_config(str(outdir / "resolved.cfg"))
        assert cfg2.network_spec == cfg.network_spec
        assert cfg2.worm == cfg.worm
        assert cfg2.replicates == cfg.replicates
        assert cfg2.seed == cfg.seed
        assert cfg2.resolved == cfg.resolved

    def test_network_from_edge_list_file(self, tmp_path):
        graph = tmp_path / "net.edges"
        spec = NetworkSpec("powerlaw", 150, seed=4, alpha=2.5, k_min=1, k_max=15)
        write_edge_list(build_network(spec), graph)
        text = BASE_CFG.replace(
            "family = powerlaw\nn = 200\nalpha = 2.5\nk_min = 1\nk_max = 20\nseed = 3\n",
            f"file = {graph}\n")
        cfg = load_config(_write(tmp_path, text))
        assert cfg.network_spec is None and cfg.graph_path == str(graph)
        outdir = tmp_path / "out"
        harness.run_experiment(cfg, str(outdir))
        direct = harness.run_replicate(read_edge_list(graph), cfg, 0)
        assert (outdir / "rep_000.csv").read_text() == direct.to_csv_text()

    def test_replicate_csv_matches_direct_run(self, tmp_path):
        cfg = load_config(_write(tmp_path, BASE_CFG))
        outdir = tmp_path / "out"
        harness.run_experiment(cfg, str(outdir))
        direct = harness.run_replicate(harness.build_graph(cfg), cfg, 1)
        assert (outdir / "rep_001.csv").read_text() == direct.to_csv_text()


class TestCompare:
    def _run_pair(self, tmp_path):
        base = load_config(_write(tmp_path, BASE_CFG, "base.cfg"))
        treated_text = BASE_CFG + "\n[controls]\nthrottle_rate = 1\n"
        treated = load_config(_write(tmp_path, treated_text, "treated.cfg"))
        rb = harness.run_experiment(base, str(tmp_path / "base"))
        rt = harness.run_experiment(treated, str(tmp_path / "treated"))
        return rb, rt

    def test_slowdown_table(self, tmp_path):
        rb, rt = self._run_pair(tmp_path)
        rows = harness.compare(rb, rt)
        metrics = {row["metric"] for row in rows}
        assert metrics == {"growth_rate", "time_to_fraction"}
        growth = next(r for r in rows if r["metric"] == "growth_rate")
        if growth["slowdown"] is not None:
            assert growth["slowdown"] > 1.0

    def test_refuses_identical_controls(self, tmp_path):
        rb, _ = self._run_pair(tmp_path)
        with pytest.raises(ValueError, match="identical controls"):
            harness.compare(rb, rb)

    def test_refuses_different_network(self, tmp_path):
        rb, _ = self._run_pair(tmp_path)
        other_text = BASE_CFG.replace("n = 200", "n = 100")
        other = load_config(_write(tmp_path, other_text, "other.cfg"))
        ro = harness.run_experiment(other, str(tmp_path / "other"))
        with pytest.raises(ValueError, match="different networks"):
            harness.compare(rb, ro)

    def test_refuses_different_worm(self, tmp_path):
        rb, _ = self._run_pair(tmp_path)
        other_text = BASE_CFG.replace("rate = 8", "rate = 9")
        other = load_config(_write(tmp_path, other_text, "other.cfg"))
        ro = harness.run_experiment(other, str(tmp_path / "other"))
        with pytest.raises(ValueError, match="different worm behavior"):
            harness.compare(rb, ro)

    def _configured_pair(self, tmp_path, run_edit):
        """Results without replicates of BASE_CFG and of a throttled arm whose
        text is edited by ``run_edit``: compare checks configs before any run."""
        texts = {"base": BASE_CFG,
                 "treated": BASE_CFG.replace(*run_edit) + "\n[controls]\nthrottle_rate = 1\n"}
        return [harness.summarize(load_config(_write(tmp_path, text, f"{name}.cfg")), [])
                for name, text in texts.items()]

    @pytest.mark.parametrize("key, run_edit", [
        ("dt", ("dt = 0.05", "dt = 0.1")),
        ("seed", ("seed = 11", "seed = 12")),
        ("replicates", ("replicates = 2", "replicates = 3")),
        ("seed_infected", ("seed = 11", "seed = 11\nseed_infected = 2")),
    ])
    def test_refuses_unpaired_runs(self, tmp_path, key, run_edit):
        with pytest.raises(ValueError, match=rf"different \[run\] {key} \("):
            harness.compare(*self._configured_pair(tmp_path, run_edit))

    def test_accepts_another_tmax(self, tmp_path):
        rows = harness.compare(*self._configured_pair(tmp_path, ("tmax = 10", "tmax = 20")))
        assert [row["metric"] for row in rows] == ["growth_rate", "time_to_fraction"]

    def test_load_result_needs_replicate_csvs(self, tmp_path):
        outdir = tmp_path / "empty"
        outdir.mkdir()
        cfg = load_config(_write(tmp_path, BASE_CFG))
        harness.write_resolved_config(cfg, str(outdir / "resolved.cfg"))
        with pytest.raises(FileNotFoundError, match="rep_000.csv"):
            harness.load_result(str(outdir))

    def test_load_result_reads_only_the_configured_replicates(self, tmp_path):
        # a 3-replicate run, then a 2-replicate run into the same directory: the
        # stale rep_002.csv stays on disk but is not part of the result
        text = BASE_CFG.replace("replicates = 2", "replicates = 3")
        harness.run_experiment(load_config(_write(tmp_path, text)), str(tmp_path / "out"))
        result = harness.run_experiment(load_config(_write(tmp_path, BASE_CFG)),
                                        str(tmp_path / "out"))
        assert (tmp_path / "out" / "rep_002.csv").exists()
        loaded = harness.load_result(str(tmp_path / "out"))
        assert loaded.growth_rates == pytest.approx(result.growth_rates)
        assert loaded.times_to_fraction == pytest.approx(result.times_to_fraction)

    def test_load_result_roundtrip(self, tmp_path):
        rb, rt = self._run_pair(tmp_path)
        loaded = harness.load_result(str(tmp_path / "base"))
        # CSVs keep 10 significant digits, so allow round-trip rounding
        assert loaded.growth_rates == pytest.approx(rb.growth_rates)
        assert loaded.times_to_fraction == pytest.approx(rb.times_to_fraction)
        rows_a = harness.compare(rb, rt)
        rows_b = harness.compare(loaded, harness.load_result(str(tmp_path / "treated")))
        for a, b in zip(rows_a, rows_b):
            assert a["metric"] == b["metric"]
            for key in ("baseline", "treated", "slowdown"):
                assert b[key] == pytest.approx(a[key])

    def test_time_slowdown_is_the_mean_ratio_over_uncensored_pairs(self, tmp_path):
        # replicate 0 reaches q in both arms (t = 2 and t = 6); in replicate 1 only
        # the baseline does (t = 4): the slowdown is 6 / 2, not a ratio of means
        times = {"base": [2, 4], "treated": [6, None]}
        results = {}
        for arm, controls in (("base", ""), ("treated", "\n[controls]\nthrottle_rate = 1\n")):
            outdir = tmp_path / arm
            outdir.mkdir()
            cfg = load_config(_write(tmp_path, BASE_CFG + controls, f"{arm}.cfg"))
            harness.write_resolved_config(cfg, str(outdir / "resolved.cfg"))
            for i, t in enumerate(times[arm]):
                last = (1, 8.0, 5, 5, 0, 0, 0) if t is None else (1, float(t), 0, 10, 0, 0, 0)
                TimeSeries([(0, 0.0, 9, 1, 0, 0, 0), last]).to_csv(outdir / f"rep_{i:03d}.csv")
            results[arm] = harness.load_result(str(outdir))
        assert results["treated"].times_to_fraction == [6.0, None]
        row = harness.compare(results["base"], results["treated"])[1]
        assert row == {"metric": "time_to_fraction", "baseline": 3.0, "treated": 6.0,
                       "slowdown": 3.0}

    def test_compare_csv(self, tmp_path):
        rb, rt = self._run_pair(tmp_path)
        rows = harness.compare(rb, rt)
        out = tmp_path / "cmp.csv"
        harness.write_compare_csv(rows, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,baseline,treated,slowdown"
        assert len(lines) == 3
