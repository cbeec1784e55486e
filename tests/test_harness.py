import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatlab import cli, geometry, harness, potential, solver, spectral
from heatlab.errors import ConfigurationError
from heatlab.grids import Grid

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def tiny_ladder_scenario(**overrides):
    return harness.Scenario(**{
        "name": "tiny", "kind": "ladder",
        "expected": "non-propagation-segment", "p": 2.0, "horizon": 0.25,
        "k_ladder": (1e5, 1e6),
        "curve_cfg": {"form": "arc", "speed": 1.6, "t_max": 0.25,
                      "samples": 257},
        "potential_cfg": {"family": "log", "amplitude": 2.0,
                          "distance": "parabolic"},
        "grid_cfg": {"lo": -2.5, "hi": 3.5, "n": 201, "dt": 0.004},
        **overrides})


class TestScenarioFiles:
    def test_all_shipped_files_parse(self):
        names = sorted(p.name for p in SCENARIOS.glob("*.ini"))
        assert len(names) >= 8
        for name in names:
            if name.startswith("sweep"):
                spec = harness.load_sweep(SCENARIOS / name)
                assert spec["base"] is not None and spec["axes"]
            else:
                sc = harness.load_scenario(SCENARIOS / name)
                assert sc.expected in harness.OUTCOMES

    def test_unknown_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            harness.load_scenario(tmp_path / "nope.ini")

    def test_rules_recorded_in_files(self):
        sc = harness.load_scenario(SCENARIOS / "propagation-straight.ini")
        assert sc.rules["functional_threshold"] == 50
        assert sc.rules["amplified_ceiling"] == 1e6


class TestLoadValidation:
    """Bad scenario and sweep files fail at load time, naming the file,
    the section and the key."""

    @staticmethod
    def edited(tmp_path, name, old, new):
        text = (SCENARIOS / name).read_text()
        assert old in text
        path = tmp_path / name
        path.write_text(text.replace(old, new, 1))
        return path

    def rejected(self, path, section, key, loader=harness.load_scenario):
        with pytest.raises(ConfigurationError) as exc:
            loader(path)
        msg = str(exc.value)
        assert str(path) in msg and f"[{section}] {key}" in msg
        assert "\n" not in msg
        return msg

    @pytest.mark.parametrize("p", ["1.0", "0.5"])
    def test_p_at_most_one(self, tmp_path, p):
        path = self.edited(tmp_path, "propagation-straight.ini",
                           "p = 2.0", f"p = {p}")
        assert "must be > 1" in self.rejected(path, "scenario", "p")

    def test_nonpositive_alpha(self, tmp_path):
        path = self.edited(tmp_path, "propagation-straight.ini",
                           "alpha = 1.0", "alpha = -1")
        self.rejected(path, "scenario", "alpha")

    @pytest.mark.parametrize("eps", ["", "0.2, 0.0", "0.2, -0.1"])
    def test_empty_or_nonpositive_eps(self, tmp_path, eps):
        path = self.edited(tmp_path, "line-blowup.ini",
                           "eps = 0.2, 0.1", f"eps = {eps}")
        self.rejected(path, "scenario", "eps")

    # a single rung used to end in an IndexError when the ladder ran
    @pytest.mark.parametrize("ks", ["", "0, 1e2", "1e1, -1e2", "1e6"])
    def test_empty_or_nonpositive_k_ladder(self, tmp_path, ks):
        path = self.edited(tmp_path, "downslope-arc.ini",
                           "k_ladder = 1e1, 1e2, 1e3, 1e4, 1e5, 1e6",
                           f"k_ladder = {ks}")
        self.rejected(path, "scenario", "k_ladder")

    @pytest.mark.parametrize("dt", ["0", "-0.002"])
    def test_nonpositive_dt(self, tmp_path, dt):
        path = self.edited(tmp_path, "box-reentry.ini", "dt = 0.002",
                           f"dt = {dt}")
        self.rejected(path, "grid", "dt")

    def test_dt_not_below_horizon(self, tmp_path):
        # box-reentry runs to t = 0.25; dt = 0.3 used to return a verdict
        # after no step at all
        path = self.edited(tmp_path, "box-reentry.ini", "dt = 0.002",
                           "dt = 0.3")
        assert "horizon 0.25" in self.rejected(path, "grid", "dt")

    def test_non_numeric_value(self, tmp_path):
        path = self.edited(tmp_path, "box-reentry.ini", "p = 2.5",
                           "p = two")
        assert "not a number" in self.rejected(path, "scenario", "p")

    @pytest.mark.parametrize("name, section, old, new", [
        ("box-reentry.ini", "grid", "n = 301", "n = abc"),
        ("box-reentry.ini", "grid", "n = 301", "n = 301.5"),
        ("box-reentry.ini", "curve", "speed = 2.0", "speed = fast"),
        ("line-blowup.ini", "grid", "length = 10.0", "length = long"),
        ("propagation-straight.ini", "curve", "velocity = 1.0, 0.0",
         "velocity = 1.0, east"),
        ("downslope-arc.ini", "potential", "amplitude = 2.0",
         "amplitude = big")])
    def test_non_numeric_builder_key(self, tmp_path, name, section, old,
                                     new):
        # these used to end in a ValueError from build_grid or build_curve
        # when the scenario ran
        path = self.edited(tmp_path, name, old, new)
        key = old.split(" = ")[0]
        assert "not a" in self.rejected(path, section, key)

    @pytest.mark.parametrize("key", ["stabilisation", "version"])
    def test_unknown_rule(self, tmp_path, key):
        # a misspelt rule used to run with the default and match
        path = self.edited(tmp_path, "box-reentry.ini",
                           "stabilization = 0.01", f"{key} = 0.5")
        assert "unknown rule" in self.rejected(path, "rules", key)

    @pytest.mark.parametrize("key, new", [
        ("kind", "kind = tunnel"), ("ndim", "ndim = 2")])
    def test_ladder_on_2d_grid(self, tmp_path, monkeypatch, capsys, key,
                               new):
        # the scenario kind fixes the grid: a ladder runs on an interval
        path = self.edited(tmp_path, "box-reentry.ini", "[grid]\n",
                           f"[grid]\n{new}\n")
        msg = self.rejected_by_cli(path, "grid", key, "run", monkeypatch,
                                   capsys)
        assert "unknown key" in msg

    @pytest.mark.parametrize("name, key, old, new, rule", [
        # tunnel grid keys used to run a rescaled scenario on a box
        ("propagation-straight.ini", "length", "n = 41",
         "length = 3.0\nn_axis = 61\nn_cross = 21", "not read"),
        # a tunnel on a ball used to fail at run time, naming no key; no
        # grid takes a dimension now
        ("line-blowup.ini", "ndim", "length = 10.0\nn_axis = 201\n"
         "n_cross = 41", "ndim = 2\nn = 41", "unknown key")])
    def test_grid_keys_of_another_kind(self, tmp_path, monkeypatch, capsys,
                                       name, key, old, new, rule):
        path = self.edited(tmp_path, name, old, new)
        assert rule in self.rejected_by_cli(path, "grid", key, "run",
                                            monkeypatch, capsys)

    def test_ladder_curve_is_one_dimensional(self, tmp_path, monkeypatch,
                                             capsys):
        # a two-component ladder velocity, or a curve table with two x
        # columns, used to load and fail at run time with "curve and grid
        # dimensions disagree"
        path = self.edited(tmp_path, "control-straight.ini",
                           "velocity = 1.0", "velocity = 1.0, 0.5")
        assert "must have 1 component" in self.rejected_by_cli(
            path, "curve", "velocity", "run", monkeypatch, capsys)
        tau = np.linspace(0.0, 1.0, 33)
        np.savetxt(tmp_path / "arc.txt", np.column_stack(
            [tau, 0.25 * np.sin(np.pi * tau), 1.6 * tau, 0.0 * tau]))
        path = self.edited(tmp_path, "downslope-arc.ini",
                           "form = arc\nspeed = 1.6\nt_max = 0.25\n"
                           "horizon = 1.0\nsamples = 513",
                           "form = table\npath = arc.txt")
        assert "one x column" in self.rejected_by_cli(
            path, "curve", "path", "run", monkeypatch, capsys)

    @pytest.mark.parametrize("name, section, key, old, new, rule", [
        # a ladder along a line in the initial plane probed nothing and
        # answered propagation; that line is the tunnel's case
        ("downslope-arc.ini", "curve", "form",
         "form = arc\nspeed = 1.6\nt_max = 0.25\nhorizon = 1.0",
         "form = initial-line", "unknown curve form"),
        # a 1D ladder grid has no transverse coordinate
        ("box-reentry.ini", "potential", "distance", "distance = parabolic",
         "distance = anisotropic", "unknown potential distance"),
        # the ball takes its dimension from the velocity; a third
        # component, or a ndim that disagreed with it, used to fail at
        # run time naming no key
        ("propagation-straight.ini", "curve", "velocity",
         "velocity = 1.0, 0.0", "velocity = 1.0, 0.0, 0.0",
         "must have 1 or 2 components"),
        ("propagation-straight.ini", "grid", "ndim", "n = 41",
         "ndim = 2\nn = 41", "unknown key"),
        # zoomed and tunnel runs start from the top of the default ladder
        ("propagation-straight.ini", "scenario", "k_ladder", "alpha = 1.0",
         "alpha = 1.0\nk_ladder = 1e3", "not read by this rescaled"),
        ("line-blowup.ini", "scenario", "k_ladder", "p = 2.0",
         "p = 2.0\nk_ladder = 1e6", "not read by this tunnel")])
    def test_deleted_input(self, tmp_path, monkeypatch, capsys, name,
                           section, key, old, new, rule):
        path = self.edited(tmp_path, name, old, new)
        assert rule in self.rejected_by_cli(path, section, key, "run",
                                            monkeypatch, capsys)

    def test_unknown_grid_kind(self, tmp_path):
        path = self.edited(tmp_path, "box-reentry.ini", "[grid]\n",
                           "[grid]\nkind = tunel\n")
        assert "unknown key" in self.rejected(path, "grid", "kind")

    def test_unknown_tunnel_case(self, tmp_path):
        # gamma alone selects the weighted case; there is no case key
        path = self.edited(tmp_path, "line-blowup.ini", "p = 2.0",
                           "p = 2.0\ncase = critical")
        assert "unknown key" in self.rejected(path, "scenario", "case")

    def test_gamma_selects_the_weighted_case(self, tmp_path, monkeypatch):
        # gamma used to be ignored by a subcritical file, and the evidence
        # still recorded it
        runs = []
        orig = solver.tunnel_run

        def spy(p, grid, gamma=None):
            # tunnel_run runs the weighted case exactly when gamma is given
            runs.append(("subcritical" if gamma is None else "supercritical",
                         gamma))
            return orig(p, grid, gamma=gamma)

        monkeypatch.setattr(solver, "tunnel_run", spy)
        path = self.edited(tmp_path, "line-blowup.ini", "p = 2.0",
                           "p = 2.0\ngamma = 2.5")
        v = harness.run_scenario(harness.load_scenario(path))
        assert runs == [("supercritical", 2.5)]
        assert v.evidence["gamma"] == 2.5
        harness.run_scenario(
            harness.load_scenario(SCENARIOS / "line-blowup.ini"))
        assert runs[1] == ("subcritical", None)

    def test_supercritical_gamma_below_gate(self, tmp_path):
        # N = 2, p = 3: the gate needs gamma > 2
        path = self.edited(tmp_path, "line-blowup-weighted.ini",
                           "gamma = 2.5", "gamma = 2.0")
        assert "N(p-1)-2" in self.rejected(path, "scenario", "gamma")

    def rejected_by_cli(self, path, section, key, command, monkeypatch,
                        capsys):
        """The load error, and the CLI exiting 1 with that one line."""
        loader = harness.load_sweep if command == "sweep" \
            else harness.load_scenario
        msg = self.rejected(path, section, key, loader=loader)
        monkeypatch.setenv("HEATLAB_OUT", str(path.parent))
        capsys.readouterr()
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {msg}\n"
        return msg

    @pytest.mark.parametrize("name, section, old, new", [
        ("localization-weak.ini", "scenario", "alpha = 1.0", "aplha = 1.0"),
        ("localization-weak.ini", "grid", "n = 41", "nn = 41"),
        ("box-reentry.ini", "curve", "samples = 513", "sampels = 129"),
        ("downslope-arc.ini", "potential", "amplitude = 2.0",
         "amplitud = 2.0")])
    def test_misspelt_key(self, tmp_path, monkeypatch, capsys, name, section,
                          old, new):
        # each used to load and run with the builder's default
        path = self.edited(tmp_path, name, old, new)
        msg = self.rejected_by_cli(path, section, new.split(" = ")[0], "run",
                                   monkeypatch, capsys)
        assert "unknown key" in msg

    @pytest.mark.parametrize("name, section, key, old, new", [
        # a rescaled rule in a ladder file, a ladder rule in a tunnel file,
        # a ladder rule and the distance in a rescaled file
        ("box-reentry.ini", "rules", "growth_window", "probe_margin = 0.3",
         "probe_margin = 0.3\ngrowth_window = 3"),
        ("line-blowup.ini", "rules", "stabilization", "tunnel_tol = 1e-8",
         "tunnel_tol = 1e-8\nstabilization = 0.01"),
        ("propagation-straight.ini", "rules", "probe_margin",
         "growth_window = 3", "growth_window = 3\nprobe_margin = 0.3"),
        ("propagation-straight.ini", "potential", "distance",
         "amplitude = 50.0", "amplitude = 50.0\ndistance = parabolic"),
        ("propagation-straight.ini", "scenario", "horizon", "alpha = 1.0",
         "alpha = 1.0\nhorizon = 0.25"),
        # tunnels read no curve; an arc reads no velocity; a ladder's
        # parabolic distance no floor
        ("line-blowup.ini", "curve", "form", "[potential]",
         "[curve]\nform = linear\n\n[potential]"),
        ("downslope-arc.ini", "curve", "velocity", "speed = 1.6",
         "speed = 1.6\nvelocity = 1.0"),
        ("box-reentry.ini", "potential", "floor", "amplitude = 2.0",
         "amplitude = 2.0\nfloor = 1.0"),
        # a rescaled run drifts by eps * velocity and reads no samples
        ("localization-weak.ini", "curve", "samples", "horizon = 1.0",
         "horizon = 1.0\nsamples = 513")])
    def test_key_not_read(self, tmp_path, monkeypatch, capsys, name, section,
                          key, old, new):
        path = self.edited(tmp_path, name, old, new)
        msg = self.rejected_by_cli(path, section, key, "run", monkeypatch,
                                   capsys)
        assert "not read" in msg

    def test_rescaled_needs_linear_curve(self, tmp_path):
        # a rescaled curve is linear, so its file names no form
        path = self.edited(tmp_path, "propagation-straight.ini",
                           "velocity = 1.0, 0.0", "form = arc\nspeed = 1.0")
        msg = self.rejected(path, "curve", "form")
        assert "not read by this rescaled scenario, whose [curve] takes " \
            "velocity, horizon" in msg

    def test_curve_table_next_to_the_file(self, tmp_path, monkeypatch,
                                          capsys):
        # the path used to resolve against the working directory, and a
        # missing table to end in a numpy traceback when the curve was built
        tau = np.linspace(0.0, 1.0, 33)
        table = np.column_stack([tau, 0.25 * np.sin(np.pi * tau), 1.6 * tau])
        np.savetxt(tmp_path / "arc.txt", table)
        arc = ("form = arc\nspeed = 1.6\nt_max = 0.25\nhorizon = 1.0\n"
               "samples = 513")
        path = self.edited(tmp_path, "downslope-arc.ini", arc,
                           "form = table\npath = arc.txt")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        curve = harness.load_scenario(path).build_curve()
        assert np.array_equal(np.column_stack([curve.tau, curve.t, curve.x]),
                              table)
        for name, text in (("gone.txt", None), ("short.txt", "0 0\n1 1\n")):
            if text is not None:
                (tmp_path / name).write_text(text)
            path = self.edited(tmp_path, "downslope-arc.ini", arc,
                               f"form = table\npath = {name}")
            assert "no curve table" in self.rejected_by_cli(
                path, "curve", "path", "run", monkeypatch, capsys)

    def test_percent_sign_is_plain_text(self, tmp_path):
        # '%' used to start an interpolation that ended in a traceback
        tau = np.linspace(0.0, 1.0, 33)
        np.savetxt(tmp_path / "arc 50%.txt", np.column_stack(
            [tau, 0.25 * np.sin(np.pi * tau), 1.6 * tau]))
        path = self.edited(tmp_path, "downslope-arc.ini",
                           "form = arc\nspeed = 1.6\nt_max = 0.25\n"
                           "horizon = 1.0\nsamples = 513",
                           "form = table\npath = arc 50%.txt")
        assert harness.load_scenario(path).curve_cfg["path"] \
            == str(tmp_path / "arc 50%.txt")

    @pytest.mark.parametrize("line", ["name = a/b", "name = x,y", "name =",
                                      "name = box 50% reentry"])
    def test_name_is_a_file_name_token(self, tmp_path, monkeypatch, capsys,
                                       line):
        # a/b used to end `heatlab run` in a FileNotFoundError once the
        # verdict was known, x,y to write 6 fields under the 5-column
        # header of verdicts.csv, and an empty name to write _trace.csv
        path = self.edited(tmp_path, "box-reentry.ini", "name = box-reentry",
                           line)
        msg = self.rejected_by_cli(path, "scenario", "name", "run",
                                   monkeypatch, capsys)
        assert "plain file-name token" in msg

    def test_file_stem_is_a_name_too(self, tmp_path):
        text = (SCENARIOS / "box-reentry.ini").read_text()
        path = tmp_path / "box,reentry.ini"
        path.write_text(text.replace("name = box-reentry\n", ""))
        self.rejected(path, "scenario", "name")

    def test_divergence_ceiling_is_an_unknown_rule(self, tmp_path):
        # runs step to their end: the absorption never raises max|u|
        path = self.edited(tmp_path, "downslope-arc.ini",
                           "stabilization = 0.01",
                           "divergence_ceiling = 1e12\nstabilization = 0.01")
        assert "unknown rule" in self.rejected(path, "rules",
                                               "divergence_ceiling")

    def test_unknown_section(self, tmp_path):
        path = self.edited(tmp_path, "box-reentry.ini", "[grid]", "[grdi]")
        with pytest.raises(ConfigurationError,
                           match=r"\[grdi\]: unknown section"):
            harness.load_scenario(path)

    def test_growth_window_below_two(self, tmp_path, monkeypatch, capsys):
        # a window of 1 used to run the three zoomed runs before the
        # functional rejected it, naming no file
        path = self.edited(tmp_path, "localization-weak.ini",
                           "growth_window = 3", "growth_window = 1")
        msg = self.rejected_by_cli(path, "rules", "growth_window", "run",
                                   monkeypatch, capsys)
        assert "must be at least 2" in msg

    def test_growth_window_must_be_an_integer(self, tmp_path, monkeypatch,
                                              capsys):
        # int() used to truncate 2.5 to a window of 2
        path = self.edited(tmp_path, "propagation-straight.ini",
                           "growth_window = 3", "growth_window = 2.5")
        msg = self.rejected_by_cli(path, "rules", "growth_window", "run",
                                   monkeypatch, capsys)
        assert "not an integer" in msg

    @staticmethod
    def sweep_file(tmp_path, base, body):
        path = tmp_path / "sweep.ini"
        base_line = f"base = {SCENARIOS / base}\n" if base else ""
        path.write_text(f"[sweep]\nname = s\n{base_line}{body}\n")
        return path

    @pytest.mark.parametrize("base, body, key, rule", [
        # a misspelt axis used to drop out of the product silently
        ("propagation-straight.ini", "amplitude = 1, 2\nalhpa = 0.5, 1.0",
         "alhpa", "unknown key"),
        ("propagation-straight.ini", "mode = exact\np = 2, 3", "mode",
         "unknown sweep mode"),
        ("line-blowup.ini", "mode = numerical\nalpha = 0.5, 1.0", "alpha",
         "not read by the tunnel base"),
        ("downslope-arc.ini", "mode = numerical\nvelocity = 0.5, 1.0",
         "velocity", "not read by the ladder base"),
        # lambda0 is the ball's in the base's dimension; no sweep reads lam0
        ("line-blowup.ini", "mode = numerical\np = 2, 3\nlam0 = 2.0", "lam0",
         "unknown key"),
        ("propagation-straight.ini", "amplitude = 1, 2\nlam0 = 5.78", "lam0",
         "unknown key"),
        # the functional's threshold is the base's functional_threshold
        ("propagation-straight.ini", "amplitude = 1, 2\nthreshold = 50",
         "threshold", "unknown key"),
        ("box-reentry.ini", "mode = analytic\np = 2, 3", "base",
         "rescaled base"),
        # each combo used to fail at run time, naming neither file nor key
        ("propagation-straight.ini", "mode = numerical\nalpha = 0.5, 2.0",
         "alpha", "beyond the curve's horizon 1"),
        (None, "mode = numerical\np = 2, 3", "base", "needs a base"),
        # a repeated value used to run its combo twice
        ("propagation-straight.ini", "amplitude = 20, 20", "amplitude",
         "must not repeat a value"),
        # the combination limit is fixed at 512
        ("propagation-straight.ini", "amplitude = 1, 2\nbudget_combos = 64",
         "budget_combos", "unknown key")])
    def test_sweep_key_not_run(self, tmp_path, monkeypatch, capsys, base,
                               body, key, rule):
        path = self.sweep_file(tmp_path, base, body)
        assert rule in self.rejected_by_cli(path, "sweep", key, "sweep",
                                            monkeypatch, capsys)

    @pytest.mark.parametrize("name", ["a/b", "x,y", ""])
    def test_sweep_name_is_a_file_name_token(self, tmp_path, monkeypatch,
                                             capsys, name):
        # a/b used to end `heatlab sweep` in a FileNotFoundError
        path = tmp_path / "sweep.ini"
        path.write_text(f"[sweep]\nname = {name}\namplitude = 1, 2\n")
        assert "plain file-name token" in self.rejected_by_cli(
            path, "sweep", "name", "sweep", monkeypatch, capsys)

    def test_sweep_velocity_axis_over_linear_base_loads(self, tmp_path):
        path = self.sweep_file(tmp_path, "propagation-straight.ini",
                               "mode = numerical\nvelocity = 0.5, 1.0")
        assert harness.load_sweep(path)["axes"] == {"velocity": (0.5, 1.0)}

    def duplicate(self, path, section, key, loader=harness.load_scenario):
        with pytest.raises(ConfigurationError) as exc:
            loader(path)
        msg = str(exc.value)
        assert str(path) in msg and "\n" not in msg
        assert f"option '{key}' in section '{section}' already exists" in msg

    def test_duplicate_key(self, tmp_path):
        path = self.edited(tmp_path, "box-reentry.ini", "p = 2.5",
                           "p = 2.5\np = 3.0")
        self.duplicate(path, "scenario", "p")

    @pytest.mark.parametrize("axis, values", [("p", "1.0, 2.0"),
                                              ("alpha", "0.5, 0"),
                                              ("velocity", "1, 1e308")])
    def test_sweep_axis_out_of_range(self, tmp_path, axis, values):
        text = (SCENARIOS / "sweep-phase.ini").read_text()
        path = tmp_path / "sweep.ini"
        path.write_text(text.replace(
            "base = propagation-straight.ini",
            f"base = {SCENARIOS / 'propagation-straight.ini'}\n"
            f"{axis} = {values}").replace("alpha = 0.5, 1.0, 2.0, 4.0\n", ""))
        self.rejected(path, "sweep", axis, loader=harness.load_sweep)

    def test_sweep_duplicate_key(self, tmp_path):
        path = self.edited(tmp_path, "sweep-phase.ini", "mode = analytic",
                           "mode = analytic\nmode = numerical")
        self.duplicate(path, "sweep", "mode", loader=harness.load_sweep)

    def test_cli_run_exits_1_with_one_line(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        path = self.edited(tmp_path, "box-reentry.ini", "p = 2.5", "p = 1.0")
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[scenario] p" in err

    def test_cli_run_non_numeric_exits_1_with_one_line(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        path = self.edited(tmp_path, "box-reentry.ini", "n = 301", "n = abc")
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[grid] n = abc" in err


def names(msg, section, key):
    """Whether ``msg`` names ``[section] key``, alone or among the values
    of its section."""
    return re.search(rf"\[{section}\] ([^:]*, )?{key} = ", msg) is not None


def loaded(name):
    return harness.load_scenario(SCENARIOS / name)


# inputs that used to load and then answer, or fail at run time naming no
# key: a Dirac datum (at the origin) outside a ladder's interval, or
# starting (at 4h**2) after the run's end, a curve too short to classify
# or with no velocity, and a zoom beyond the solver's step budget
LATE_FAILURES = {
    "origin-left": ("downslope-arc.ini", "lo = -2.5", "lo = 0.5", "grid",
                    "lo", lambda: harness.Scenario(
                        "x", kind="ladder", grid_cfg={"lo": 0.5})),
    "origin-right": ("downslope-arc.ini", "hi = 3.5", "hi = -1.0", "grid",
                     "hi", lambda: harness.Scenario(
                         "x", kind="ladder", grid_cfg={"hi": -1.0})),
    "ladder-datum-start": ("downslope-arc.ini", "n = 301", "n = 5", "grid",
                           "n", lambda: harness.Scenario(
                               "x", kind="ladder", grid_cfg={"n": 5})),
    "tunnel-datum-start": ("line-blowup.ini", "n_axis = 201", "n_axis = 5",
                           "grid", "n_axis", lambda: harness.Scenario(
                               "t", kind="tunnel", grid_cfg={"n_axis": 5})),
    "samples": ("downslope-arc.ini", "samples = 513", "samples = 2", "curve",
                "samples", lambda: harness.Scenario(
                    "x", kind="ladder", curve_cfg={"form": "arc",
                                                   "samples": 2})),
    # an empty velocity failed at load naming [grid] n and dt, which built
    # a ball of no dimension, or on a ladder line loaded and failed at run
    # time, naming no file or key
    "velocity-empty": ("propagation-straight.ini", "velocity = 1.0, 0.0",
                       "velocity =", "curve", "velocity",
                       lambda: harness.Scenario(
                           "x", curve_cfg={"velocity": ()})),
    "ladder-velocity-empty": ("control-straight.ini", "velocity = 1.0",
                              "velocity =", "curve", "velocity",
                              lambda: harness.Scenario(
                                  "x", kind="ladder",
                                  curve_cfg={"velocity": ()})),
    "step-budget": ("propagation-straight.ini", "eps = 0.2, 0.1, 0.05",
                    "eps = 0.2, 0.1, 0.001", "scenario", "eps",
                    lambda: harness.run_scenario(harness.Scenario(
                        "x", eps_list=(0.2, 0.1, 0.001)))),
    # a zoomed run past its curve's horizon, or drifting over the CFL limit
    # at its largest eps (dt 0.005 * 0.2 * 100 / h 0.05 = 2), used to fail
    # only when its run started, naming neither file nor key
    "alpha-horizon": ("propagation-straight.ini", "alpha = 1.0",
                      "alpha = 2.0", "scenario", "alpha",
                      lambda: harness.run_scenario(harness.Scenario(
                          "x", alpha=2.0))),
    # a huge p used to overflow the feedback lift exp(0.5 (p - 1) eps |c|)
    # of the first zoomed run, a traceback in place of an error line
    "p-lift": ("propagation-straight.ini", "p = 2.0", "p = 1e9", "scenario",
               "p", lambda: harness.run_scenario(harness.Scenario(
                   "x", p=1e9))),
    "drift-cfl": ("propagation-straight.ini", "velocity = 1.0, 0.0",
                  "velocity = 100.0, 0.0", "curve", "velocity",
                  lambda: harness.run_scenario(harness.Scenario(
                      "x", curve_cfg={"velocity": (100.0, 0.0)}))),
    # a ceiling of 0 or below used to end in a math domain error at its
    # math.log when the verdict was judged, a stabilization or tolerance
    # below 0 to demand more than exact evidence (downslope-arc with
    # stabilization = -1 answered propagation), and an infinite amplitude
    # to warn of a nan h at run time
    "amplified-ceiling": ("propagation-straight.ini",
                          "amplified_ceiling = 1e6", "amplified_ceiling = 0",
                          "rules", "amplified_ceiling",
                          lambda: harness.Scenario(
                              "x", rules={"amplified_ceiling": 0.0})),
    "bounded-ceiling": ("localization-weak.ini", "bounded_ceiling = 1e2",
                        "bounded_ceiling = -1", "rules", "bounded_ceiling",
                        lambda: harness.Scenario(
                            "x", rules={"bounded_ceiling": -1.0})),
    "stabilization": ("downslope-arc.ini", "stabilization = 0.01",
                      "stabilization = -1", "rules", "stabilization",
                      lambda: harness.Scenario(
                          "x", kind="ladder", rules={"stabilization": -1.0})),
    "conformance-tol": ("propagation-straight.ini", "conformance_tol = 1e-6",
                        "conformance_tol = -1e-6", "rules",
                        "conformance_tol", lambda: harness.Scenario(
                            "x", rules={"conformance_tol": -1e-6})),
    "tunnel-tol": ("line-blowup.ini", "tunnel_tol = 1e-8", "tunnel_tol = -1",
                   "rules", "tunnel_tol", lambda: harness.Scenario(
                       "t", kind="tunnel", rules={"tunnel_tol": -1.0})),
    "amplitude-finite": ("downslope-arc.ini", "amplitude = 2.0",
                         "amplitude = inf", "potential", "amplitude",
                         lambda: harness.Scenario(
                             "x", kind="ladder",
                             potential_cfg={"amplitude": math.inf})),
    # a finite amplitude whose profile overflows at a radius the verdict
    # reads warned in eval_profile: at eps once every zoomed run had run,
    # at eps in the tunnel floors, and below min(eps) = 0.1 in a weighted
    # tunnel's load-time bound (1e306 / 0.0125**2 overflows, 1e306 / 0.1**2
    # does not)
    "amplitude-rescaled": ("propagation-straight.ini", "amplitude = 50.0",
                           "amplitude = 1e308", "potential", "amplitude",
                           lambda: harness.Scenario(
                               "x", potential_cfg={"amplitude": 1e308})),
    "amplitude-tunnel": ("line-blowup.ini", "amplitude = 8.0",
                         "amplitude = 1e308", "potential", "amplitude",
                         lambda: harness.Scenario(
                             "t", kind="tunnel",
                             potential_cfg={"amplitude": 1e308})),
    "amplitude-weighted": ("line-blowup-weighted.ini", "amplitude = 8.0",
                           "amplitude = 1e306", "potential", "amplitude",
                           lambda: harness.Scenario(
                               "t", kind="tunnel", p=3.0, gamma=2.5,
                               eps_list=(0.2, 0.1),
                               potential_cfg={"amplitude": 1e306})),
    # a number out of double range (inf, an eps whose square underflows, a
    # velocity whose norm overflows) used to end in a traceback under -W
    # error: OverflowError in the step budget, ZeroDivisionError in the run
    # end, OverflowError in the tunnel's datum start, a RuntimeWarning in
    # the curve and in the Dirac datum, an overflow in the feedback lift
    "alpha-inf": ("propagation-straight.ini", "alpha = 1.0", "alpha = inf",
                  "scenario", "alpha", lambda: harness.Scenario(
                      "x", alpha=math.inf)),
    "eps-underflow": ("propagation-straight.ini", "eps = 0.2, 0.1, 0.05",
                      "eps = 0.2, 0.1, 1e-200", "scenario", "eps",
                      lambda: harness.Scenario(
                          "x", eps_list=(0.2, 0.1, 1e-200))),
    "length-inf": ("line-blowup.ini", "length = 10.0", "length = inf",
                   "grid", "length", lambda: harness.Scenario(
                       "t", kind="tunnel", grid_cfg={"length": math.inf})),
    "horizon-inf": ("downslope-arc.ini", "horizon = 1.0", "horizon = inf",
                    "curve", "horizon", lambda: harness.Scenario(
                        "x", kind="ladder", curve_cfg={"form": "arc",
                                                       "horizon": math.inf})),
    "ladder-horizon-inf": ("downslope-arc.ini", "horizon = 0.25",
                           "horizon = inf", "scenario", "horizon",
                           lambda: harness.Scenario(
                               "x", kind="ladder", horizon=math.inf)),
    "k-ladder-inf": ("downslope-arc.ini",
                     "k_ladder = 1e1, 1e2, 1e3, 1e4, 1e5, 1e6",
                     "k_ladder = 10, inf", "scenario", "k_ladder",
                     lambda: harness.Scenario(
                         "x", kind="ladder", k_ladder=(10.0, math.inf))),
    "velocity-overflow": ("propagation-straight.ini", "velocity = 1.0, 0.0",
                          "velocity = 1e308, 0.0", "curve", "velocity",
                          lambda: harness.run_scenario(harness.Scenario(
                              "x", curve_cfg={"velocity": (1e308, 0.0)}))),
    # a rule without a range gave a silent verdict: probe_margin = -5
    # turned downslope-arc into propagation, and each of the others
    # answered inconclusive
    "probe-margin-negative": ("downslope-arc.ini", "probe_margin = 0.3",
                              "probe_margin = -5", "rules", "probe_margin",
                              lambda: harness.Scenario(
                                  "x", kind="ladder",
                                  rules={"probe_margin": -5.0})),
    "probe-margin-one": ("downslope-arc.ini", "probe_margin = 0.3",
                         "probe_margin = 2", "rules", "probe_margin",
                         lambda: harness.Scenario(
                             "x", kind="ladder", rules={"probe_margin": 2.0})),
    "probe-margin-nan": ("downslope-arc.ini", "probe_margin = 0.3",
                         "probe_margin = nan", "rules", "probe_margin",
                         lambda: harness.Scenario(
                             "x", kind="ladder",
                             rules={"probe_margin": math.nan})),
    "halfwidth-band-nan": ("line-blowup.ini", "halfwidth_band = 0.2",
                           "halfwidth_band = nan", "rules", "halfwidth_band",
                           lambda: harness.Scenario(
                               "t", kind="tunnel",
                               rules={"halfwidth_band": math.nan})),
    "functional-threshold-nan": ("propagation-straight.ini",
                                 "functional_threshold = 50",
                                 "functional_threshold = nan", "rules",
                                 "functional_threshold",
                                 lambda: harness.Scenario(
                                     "x", rules={
                                         "functional_threshold": math.nan}))}


class TestScenarioChecks:
    """Every check but those of the zoomed runs runs in the Scenario
    constructor: a bad input is the same ConfigurationError from a file,
    from a sweep combo and from an in-process caller, and it is raised
    before any step.  The step budget, alpha within the curve's horizon and
    the drift's CFL limit are checked where zoomed runs are due (a file, a
    numerical sweep, run_scenario), for an analytic combo never steps."""

    @pytest.mark.parametrize("name, old, new, section, key, build", [
        ("line-blowup.ini", "p = 2.0", "p = 2.0\nk_ladder = 1e3\nhorizon = 5.0",
         "scenario", "k_ladder", lambda: harness.Scenario(
             "x", kind="tunnel", k_ladder=(1e3,), horizon=5.0)),
        ("propagation-straight.ini", "velocity = 1.0, 0.0",
         "velocity = 1.0, 0.0, 0.0", "curve", "velocity",
         lambda: harness.Scenario(
             "x", curve_cfg={"velocity": (1.0, 0.0, 0.0)})),
        ("propagation-straight.ini", "kind = rescaled", "kind = bogus",
         "scenario", "kind", lambda: harness.Scenario("x", kind="bogus")),
        ("propagation-straight.ini", "expected = propagation",
         "expected = maybe", "scenario", "expected",
         lambda: harness.Scenario("x", expected="maybe")),
        ("downslope-arc.ini", "k_ladder = 1e1, 1e2, 1e3, 1e4, 1e5, 1e6",
         "k_ladder = 1e6", "scenario", "k_ladder",
         lambda: harness.Scenario("x", kind="ladder", k_ladder=(1e6,))),
        ("propagation-straight.ini", "p = 2.0", "p = 1.0", "scenario", "p",
         lambda: harness._scenario_for(loaded("propagation-straight.ini"),
                                       {"p": 1.0})),
        ("propagation-straight.ini", "amplitude = 50.0", "amplitude = -1",
         "potential", "amplitude",
         lambda: harness._scenario_for(loaded("propagation-straight.ini"),
                                       {"amplitude": -1.0})),
        ("line-blowup.ini", "n_cross = 41", "n_cross = 4", "grid", "n_cross",
         lambda: harness.Scenario("x", kind="tunnel",
                                  grid_cfg={"n_cross": 4})),
        ("propagation-straight.ini", "eps = 0.2, 0.1, 0.05", "eps = 0.4, 0.5",
         "scenario", "eps", lambda: harness.Scenario(
             "x", alpha=0.5, eps_list=(0.4, 0.5))),
        ("line-blowup.ini", "eps = 0.2, 0.1", "eps = 0.1, 0.2", "scenario",
         "eps", lambda: harness.Scenario("x", kind="tunnel",
                                         eps_list=(0.1, 0.2))),
        ("line-blowup.ini", "n_cross = 41", "n_cross = 11", "grid", "n_cross",
         lambda: harness.Scenario("t", kind="tunnel", grid_cfg={
             "n_axis": 201, "n_cross": 11, "dt": 0.002})),
        ("line-blowup-weighted.ini",
         "family = inverse-square\namplitude = 8.0",
         "family = log\namplitude = 1.0", "scenario", "gamma",
         lambda: harness.Scenario("w", kind="tunnel", gamma=2.5,
                                  potential_cfg={"family": "log",
                                                 "amplitude": 1.0})),
        ("line-blowup.ini", "length = 10.0", "length = 4.0", "grid", "length",
         lambda: harness.Scenario("t", kind="tunnel",
                                  grid_cfg={"length": 4.0})),
        # a tunnel run steps one quadrant, mirrored at the centre nodes
        ("line-blowup.ini", "n_axis = 201", "n_axis = 200", "grid", "n_axis",
         lambda: harness.Scenario("t", kind="tunnel",
                                  grid_cfg={"n_axis": 200})),
        ("line-blowup.ini", "n_cross = 41", "n_cross = 40", "grid", "n_cross",
         lambda: harness.Scenario("t", kind="tunnel",
                                  grid_cfg={"n_cross": 40})),
        # an inf velocity used to end in a traceback under -W error
        ("propagation-straight.ini", "velocity = 1.0, 0.0",
         "velocity = inf, 0.0", "curve", "velocity",
         lambda: harness.Scenario("x", curve_cfg={"velocity": (math.nan,)})),
        *LATE_FAILURES.values()],
        ids=["tunnel-ladder-keys", "velocity-width", "kind", "expected",
             "one-rung", "sweep-p", "amplitude", "n_cross", "eps-order",
             "tunnel-eps-order", "n_cross-ground-state", "shifted-profile",
             "truncation", "n_axis-odd", "n_cross-odd", "velocity-finite",
             *LATE_FAILURES])
    def test_file_and_caller_get_the_same_error(self, tmp_path, name, old,
                                                new, section, key, build):
        path = TestLoadValidation.edited(tmp_path, name, old, new)
        with pytest.raises(ConfigurationError) as from_file:
            harness.load_scenario(path)
        with pytest.raises(ConfigurationError) as from_caller:
            build()
        msg = str(from_file.value)
        assert msg.startswith(f"{path}: [{section}] ") and "\n" not in msg
        assert names(msg, section, key)
        assert names(str(from_caller.value), section, key)

    @pytest.mark.parametrize("name, old, new, section, key", [
        ("propagation-straight.ini", "amplitude = 50.0", "amplitude = -1",
         "potential", "amplitude"),
        ("localization-weak.ini", "growth_window = 3", "growth_window = 1",
         "rules", "growth_window"),
        ("line-blowup.ini", "n_cross = 41", "n_cross = 4", "grid",
         "n_cross"),
        ("propagation-straight.ini", "eps = 0.2, 0.1, 0.05", "eps = 0.4, 0.5",
         "scenario", "eps"),
        ("line-blowup.ini", "eps = 0.2, 0.1", "eps = 0.1, 0.2", "scenario",
         "eps"),
        ("line-blowup.ini", "n_cross = 41", "n_cross = 11", "grid",
         "n_cross"),
        ("line-blowup-weighted.ini",
         "family = inverse-square\namplitude = 8.0",
         "family = log\namplitude = 1.0", "scenario", "gamma"),
        ("line-blowup.ini", "length = 10.0", "length = 4.0", "grid",
         "length"),
        ("line-blowup.ini", "n_axis = 201", "n_axis = 200", "grid", "n_axis"),
        ("line-blowup.ini", "n_cross = 41", "n_cross = 40", "grid",
         "n_cross"), *(row[:5] for row in LATE_FAILURES.values())])
    def test_cli_fails_before_any_step(self, tmp_path, monkeypatch, capsys,
                                       name, old, new, section, key):
        # each used to load and fail only when its run started, naming no
        # file; a window of 1 only after all three zoomed runs, an n_cross
        # of 11 after the whole tunnel run, and an increasing tunnel eps
        # not at all (its floors shrink, so it was inconclusive); a short
        # tunnel axis failed in the run, naming neither file nor key
        def evolve(*args, **kwargs):
            raise AssertionError("solver.evolve called")

        monkeypatch.setattr(solver, "evolve", evolve)
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        path = TestLoadValidation.edited(tmp_path, name, old, new)
        capsys.readouterr()
        assert cli.main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
        assert names(err, section, key)

    def test_step_budget_only_where_runs_step(self, tmp_path):
        # alpha 30 at eps 0.05 and dt 0.005 is 2,400,000 steps: an analytic
        # sweep loads it, for its functional never steps, and so does the
        # default base at alpha 16 (eps 0.05, dt 0.002); a numerical sweep
        # fails at load, naming the axis and eps
        base = TestLoadValidation.edited(tmp_path, "propagation-straight.ini",
                                         "horizon = 1.0", "horizon = 40.0")
        sweep = tmp_path / "sweep.ini"
        sweep.write_text(f"[sweep]\nbase = {base}\nalpha = 1, 30\n")
        assert harness.load_sweep(sweep)["axes"]["alpha"] == (1.0, 30.0)
        sweep.write_text("[sweep]\nalpha = 1, 16\n")
        assert harness.load_sweep(sweep)["axes"]["alpha"] == (1.0, 16.0)
        sweep.write_text(f"[sweep]\nmode = numerical\nbase = {base}\n"
                         "alpha = 1, 30\n")
        with pytest.raises(ConfigurationError) as exc:
            harness.load_sweep(sweep)
        msg = str(exc.value)
        assert msg.startswith(f"{sweep}: [sweep] alpha = 1, 30: ")
        assert names(msg, "scenario", "eps")

    def test_sweep_combo_fails_at_load(self, tmp_path):
        # an amplitude axis that no scenario can take used to fail combo by
        # combo at run time
        path = TestLoadValidation.sweep_file(
            tmp_path, "line-blowup.ini", "mode = numerical\namplitude = 4, -1")
        with pytest.raises(ConfigurationError) as exc:
            harness.load_sweep(path)
        msg = str(exc.value)
        assert msg.startswith(f"{path}: [sweep] amplitude = 4, -1: ")
        assert names(msg, "potential", "amplitude")


class TestTunnelFloors:
    def test_one_run_serves_every_profile(self):
        # the tunnel PDE never reads the profile: the floors of one run, for
        # each amplitude, are the evidence of that amplitude's own verdict
        base = loaded("line-blowup.ini")
        res = solver.tunnel_run(base.p, base.build_grid(), gamma=base.gamma)
        for amplitude in (4.0, 16.0):
            sc = harness._scenario_for(base, {"amplitude": amplitude})
            ev = harness.run_scenario(sc).evidence
            floors = solver.tunnel_floors(res, sc.eps_list, sc.p,
                                          sc.build_profile())
            assert floors == {key: ev[key] for key in floors}
            assert (ev["calibration_c"], ev["conformance_min"]) \
                == (res.c, res.conformance_min)


def ladder_curve(**cfg):
    return harness.Scenario("c", kind="ladder", curve_cfg=cfg).build_curve()


class TestCurveForms:
    @pytest.mark.parametrize("form", ["linear", "arc", "boxed", "local-max"])
    def test_buildable(self, form):
        c = ladder_curve(form=form, samples=129)
        assert c.n_samples == 129

    def test_boxed_curve_classifies_as_box(self):
        c = ladder_curve(form="boxed", samples=257)
        seg = geometry.classify_segments(c)
        assert seg.box is not None

    def test_local_max_curve_is_not_a_box(self):
        c = ladder_curve(form="local-max", samples=257)
        seg = geometry.classify_segments(c)
        assert seg.box is None
        assert "decreasing" in [label for _, _, label in seg.intervals]


class TestLadderScenario:
    def test_runs_and_stabilizes(self):
        v = harness.run_scenario(tiny_ladder_scenario())
        assert v.outcome == "non-propagation-segment"
        assert v.matches
        assert v.evidence["stabilization_gap"] <= 0.01

    def test_unknown_expected_always_matches(self):
        v = harness.run_scenario(tiny_ladder_scenario(expected="unknown"))
        assert v.matches

    def test_constant_floor_bounds_the_control(self, tmp_path):
        # h = 1 everywhere: the probe maxima of control-straight, which
        # keep growing under its flat profile, stabilize
        text = (SCENARIOS / "control-straight.ini").read_text()
        old = "family = inverse-square\namplitude = 50.0\ndistance = parabolic"
        assert old in text
        path = tmp_path / "floor.ini"
        path.write_text(text.replace(old, "distance = constant-floor\n"
                                          "floor = 1.0"))
        sc = harness.load_scenario(path)
        assert sc.potential_cfg == {"distance": "constant-floor",
                                    "floor": 1.0}
        v = harness.run_scenario(sc)
        assert v.outcome == "localization"
        assert v.evidence["stabilization_gap"] <= sc.rules["stabilization"]

    def test_probeless_ladder_is_inconclusive(self, tmp_path):
        # every curve sample after t = 0 lies past the run's horizon 0.25,
        # so no rung records a probe; this used to answer propagation
        tau = np.linspace(0.0, 1.0, 5)
        np.savetxt(tmp_path / "late.txt",
                   np.column_stack([tau, np.r_[0.0, 0.5 + 0.5 * tau[1:]],
                                    0.5 * tau]))
        sc = tiny_ladder_scenario(curve_cfg={"form": "table",
                                             "path": str(tmp_path / "late.txt")})
        v = harness.run_scenario(sc)
        assert v.evidence["probe_maxima"] == [0.0, 0.0]
        assert v.outcome == "inconclusive"


def independent_rungs(scenario):
    """The ladder's rungs as one-rung solve_uk runs, each with its own
    level function and curve probe (nothing shared)."""
    curve = scenario.build_curve()
    grid = scenario.build_grid()
    pot = scenario.build_potential(curve)
    return [solver.solve_uk((k,), potential.grid_levels(pot, grid),
                            scenario.p, scenario.horizon, grid,
                            observe=harness._curve_probe(curve, grid, None,
                                                         scenario.horizon))[0]
            for k in scenario.k_ladder]


def assert_same_run(a, b):
    assert np.array_equal(a.times, b.times)
    assert a.observed == b.observed
    for name in ("renormalizations", "underflows", "tail_mass"):
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.final.values, b.final.values)
    assert a.final.log_scale == b.final.log_scale
    assert a.final.time == b.final.time


class TestSharedLadderLevels:
    """The rungs of a ladder step as the columns of one batch; each column
    is bitwise the run of its rung alone."""

    # inverse-square profile: h underflows near the curve, so every rung
    # carries an h-underflow count
    STEEP = {"family": "inverse-square", "amplitude": 1.0,
             "distance": "parabolic"}

    def count_evaluations(self, monkeypatch):
        calls = []
        orig = potential.Potential.evaluate_grid

        def counted(pot, points, t):
            calls.append(t)
            return orig(pot, points, t)

        monkeypatch.setattr(potential.Potential, "evaluate_grid", counted)
        return calls

    @pytest.mark.parametrize("profile", ["log", "inverse-square"])
    def test_rungs_equal_independent_runs(self, profile, monkeypatch):
        cfg = self.STEEP if profile == "inverse-square" else \
            tiny_ladder_scenario().potential_cfg
        sc = tiny_ladder_scenario(k_ladder=(1e2, 1e4, 1e6), potential_cfg=cfg)
        ref = independent_rungs(sc)
        calls = self.count_evaluations(monkeypatch)
        shared = harness.ladder_runs(sc, sc.build_curve(), None)
        for a, b in zip(shared, ref):
            assert_same_run(a, b)
        # one evaluation per time level, whatever the number of rungs
        assert len(calls) == len(set(calls)) == ref[0].times.size
        if profile == "inverse-square":
            assert all(run.underflows > 0 for run in shared)

    def test_columns_renormalize_at_their_own_steps(self):
        # control-straight's profile: h underflows to 0 at the datum's
        # peak, so a mass of 1e301 is scaled down at its first step, a unit
        # mass never; neither warns, both step to the horizon, and each
        # column is its rung's run alone
        sc = tiny_ladder_scenario(k_ladder=(1.0, 1e301), potential_cfg={
            "family": "inverse-square", "amplitude": 50.0,
            "distance": "parabolic"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = independent_rungs(sc)
            shared = harness.ladder_runs(sc, sc.build_curve(), None)
        assert shared[0].renormalizations == 0 < shared[1].renormalizations
        assert shared[0].final.log_scale != shared[1].final.log_scale
        steps = solver.step_times(solver.datum_start(sc.build_grid(), False),
                                  sc.horizon, sc.grid_cfg["dt"])
        for a, b in zip(shared, ref):
            assert np.array_equal(a.times, steps)
            assert_same_run(a, b)

    def test_one_evaluation_per_level(self, monkeypatch):
        # each level of h is evaluated once for the whole ladder, in step
        # order, at the time each step starts from
        sc = tiny_ladder_scenario(k_ladder=(1e1, 1e3, 1e5, 1e6))
        calls = self.count_evaluations(monkeypatch)
        runs = harness.ladder_runs(sc, sc.build_curve(), None)
        t0 = solver.datum_start(sc.build_grid(), aligned=False)
        assert calls == [t0, *runs[0].times[:-1]]
        assert all(np.array_equal(run.times, runs[0].times) for run in runs)


@st.composite
def ladder_pairs(draw):
    """A two-rung ladder on a straight curve: p, k1 < k2, velocity."""
    p = draw(st.floats(1.0, 4.0, exclude_min=True))
    k1 = draw(st.floats(1e-2, 1e5))
    k2 = k1 * draw(st.floats(1.0, 1e3, exclude_min=True))
    velocity = draw(st.floats(-2.0, 2.0))
    return harness.Scenario(
        name="pair", kind="ladder", expected="unknown", p=p, horizon=0.1,
        k_ladder=(k1, k2),
        curve_cfg={"form": "linear", "velocity": (velocity,),
                   "horizon": 0.1, "samples": 129},
        potential_cfg={"family": "inverse-square", "amplitude": 0.5,
                       "distance": "parabolic"},
        grid_cfg={"lo": -2.0, "hi": 2.0, "n": 81, "dt": 0.004})


class TestWindowMax:
    """The ladder's curve probe keeps, at each step, the largest value
    whose tau lies in its window; on a graph curve tau = t, and a field
    of constant value v reads v at every point of the curve."""

    grid = Grid.interval(-1.0, 1.0, 21, 0.01)

    def observed(self, window, *probes):
        # a batch of one field: the probe gives one value per column
        curve = geometry.Curve.straight(0.5, 1.0, n=65)
        _, probe = harness._curve_probe(curve, self.grid, window, 1.0)
        return [probe(t, np.full(self.grid.shape + (1,), v), np.zeros(1))[0]
                for t, v in probes]

    def test_without_window_the_largest_probe(self):
        observed = self.observed(None, (0.1, 2.0), (0.2, 7.0), (0.3, 5.0))
        assert max(observed, default=0.0) == 7.0
        assert max(self.observed(None), default=0.0) == 0.0
        # a parametric curve with no sample within dt/2 of the step
        arc = geometry.Curve.parametric(lambda s: 0.8 * s,
                                        lambda s: s * (1.0 - s), 1.0, n=65)
        _, probe = harness._curve_probe(arc, self.grid, None, 1.0)
        assert probe(0.3, np.full(self.grid.shape + (2,), 9.0),
                     np.zeros(2)) == [0.0, 0.0]

    def test_each_column_with_its_log_scale(self):
        # columns of values 2 and 3 with offsets 0 and ln 2: 2 and 1.5
        curve = geometry.Curve.straight(0.5, 1.0, n=65)
        _, probe = harness._curve_probe(curve, self.grid, None, 1.0)
        values = np.tile([2.0, 3.0], (self.grid.shape[0], 1))
        assert probe(0.3, values, np.array([0.0, math.log(2.0)])) \
            == [2.0, 3.0 * math.exp(-math.log(2.0))]

    def test_columns_interpolate_as_numpy(self, rng):
        # nodes, cells, both ends and beyond them: bitwise np.interp's
        axis = self.grid.axes[0]
        values = rng.uniform(0.0, 1e3, size=(axis.size, 3))
        for x in (-1.5, -1.0, -0.95, axis[7], 0.123456789, 0.999, 1.0, 2.0):
            assert np.array_equal(
                harness._interp_columns(x, axis, values),
                [np.interp(x, axis, values[:, j]) for j in range(3)])

    def test_window_counts_only_its_taus(self):
        # a tau within 1e-12 past either end counts, one further out not
        lo, hi = 0.2, 0.4
        probes = ((lo - 1e-11, 9.0), (lo - 5e-13, 3.0), (0.3, 2.0),
                  (hi + 5e-13, 4.0), (hi + 1e-11, 8.0))
        assert max(self.observed((lo, hi), *probes)) == 4.0
        assert max(self.observed((0.25, 0.35), *probes)) == 2.0
        assert max(self.observed((0.5, 0.6), *probes)) == 0.0


class TestLadderMonotoneInK:
    @settings(max_examples=40, deadline=None)
    @given(ladder_pairs())
    def test_probe_maxima_and_fields_ordered(self, sc):
        lo, hi = harness.ladder_runs(sc, sc.build_curve(), None)
        m_lo, m_hi = (max(run.observed, default=0.0) for run in (lo, hi))
        assert m_lo <= m_hi * (1.0 + 1e-12)
        u_lo, u_hi = (run.final.values * np.exp(-run.final.log_scale)
                      for run in (lo, hi))
        tol = 1e-12 * float(np.max(u_hi))
        assert np.all(u_lo <= u_hi + tol)


class TestReports:
    def test_emit_deterministic_bytes(self, tmp_path):
        v = harness.run_scenario(tiny_ladder_scenario())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        harness.emit_report([v], d1)
        v2 = harness.run_scenario(tiny_ladder_scenario())
        harness.emit_report([v2], d2)
        for name in ("verdicts.csv", "tiny_trace.csv", "plots.gp"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_report_files_exist(self, tmp_path):
        v = harness.run_scenario(tiny_ladder_scenario())
        written = harness.emit_report([v], tmp_path)
        for path in written:
            assert path.exists()
        header = (tmp_path / "verdicts.csv").read_text().splitlines()[0]
        assert header == "scenario,kind,outcome,expected,match"


class TestSweep:
    def test_analytic_sweep_single_crossing(self, tmp_path):
        spec = harness.load_sweep(SCENARIOS / "sweep-phase.ini")
        log = tmp_path / "log.jsonl"
        records = harness.sweep(spec, log)
        assert len(records) == 24
        # verdict flips monotonically from localization to propagation in A
        by_alpha = {}
        for rec in records:
            by_alpha.setdefault(rec["combo"]["alpha"], []).append(
                (rec["combo"]["amplitude"], rec["outcome"]))
        for alpha, rows in by_alpha.items():
            rows.sort()
            flags = [1 if out == "propagation" else 0 for _, out in rows]
            assert flags == sorted(flags), f"non-monotone at alpha={alpha}"

    def test_alpha_threshold_against_oracle(self, tmp_path):
        # fixed amplitude: propagation for alpha below the analytic
        # threshold alpha0 = A / ((p-1) * rate), localization above; the
        # default base is 1D, so lambda0 is the interval's (pi/2)**2
        spec = {"name": "alpha-axis", "mode": "analytic", "base": None,
                "axes": {"alpha": (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
                         "amplitude": (10.0, 50.0)}}
        records = harness.sweep(spec, tmp_path / "log.jsonl")
        rate = spectral.envelope_rate(spectral.BALL_LAMBDA[1], 0.2 * 1.0, 0.0)
        outcomes = {rec["outcome"] for rec in records}
        assert outcomes == {"propagation", "localization"}
        for rec in records:
            alpha = rec["combo"]["alpha"]
            alpha0 = rec["combo"]["amplitude"] / ((2.0 - 1.0) * rate)
            if alpha < 0.8 * alpha0:
                assert rec["outcome"] == "propagation"
            elif alpha > 1.3 * alpha0:
                assert rec["outcome"] == "localization"

    def test_resume_skips_done_combos(self, tmp_path):
        spec = harness.load_sweep(SCENARIOS / "sweep-phase.ini")
        log = tmp_path / "log.jsonl"
        harness.sweep(spec, log)
        n_lines = len(log.read_text().splitlines())
        harness.sweep(spec, log)  # resume: nothing recomputed or re-appended
        assert len(log.read_text().splitlines()) == n_lines

    def test_resume_refuses_another_spec(self, tmp_path):
        # a log used to hand back its outcomes under any base: with the
        # threshold raised, the resumed sweep still answered propagation
        base = loaded("propagation-straight.ini")
        spec = {"name": "one", "mode": "analytic", "base": base,
                "axes": {"amplitude": (20.0,), "alpha": (1.0,)}}
        log = tmp_path / "log.jsonl"
        assert harness.sweep(spec, log)[0]["outcome"] == "propagation"
        raised = dict(spec, base=replace(base, rules=dict(
            base.rules, functional_threshold=1e9)))
        for other in (raised, dict(spec, mode="numerical")):
            with pytest.raises(ConfigurationError, match=re.escape(str(log))):
                harness.sweep(other, log)
        assert len(log.read_text().splitlines()) == 1
        assert harness.sweep(raised, tmp_path / "fresh.jsonl")[0]["outcome"] \
            == "localization"

    def test_resume_reads_what_decides(self, tmp_path, monkeypatch):
        # the labels decide no outcome, and a curve table counts by its
        # text: the same table by a relative or an absolute path resumes,
        # an edited table is another spec
        tau = np.linspace(0.0, 1.0, 33)
        np.savetxt(tmp_path / "arc.txt", np.column_stack(
            [tau, 0.25 * np.sin(np.pi * tau), 1.6 * tau]))
        monkeypatch.chdir(tmp_path)

        def spec(path, **labels):
            base = tiny_ladder_scenario(
                curve_cfg={"form": "table", "path": path}, **labels)
            return {"name": "s", "mode": "numerical", "base": base,
                    "axes": {"p": (2.0,)}}

        log = tmp_path / "log.jsonl"
        first = harness.sweep(spec("arc.txt"), log)
        assert harness.sweep(spec(str(tmp_path / "arc.txt"), name="other",
                                  expected="localization"), log) == first
        np.savetxt(tmp_path / "arc.txt", np.column_stack(
            [tau, 0.25 * np.sin(np.pi * tau), 1.5 * tau]))
        with pytest.raises(ConfigurationError, match=re.escape(str(log))):
            harness.sweep(spec("arc.txt"), log)
        assert len(log.read_text().splitlines()) == 1

    def test_failing_combo_keeps_earlier_records(self, tmp_path,
                                                 monkeypatch):
        # p = 1 fails in the functional; the combo before it is already in
        # the log, and a rerun computes only what the log lacks
        spec = {"name": "p-axis", "mode": "analytic", "base": None,
                "axes": {"p": (2.0, 1.0, 3.0)}}
        log = tmp_path / "log.jsonl"
        with pytest.raises(ConfigurationError):
            harness.sweep(spec, log)
        lines = log.read_text().splitlines()
        assert [json.loads(line)["combo"] for line in lines] == [{"p": 2.0}]
        computed = []
        orig = harness._analytic_verdict

        def counted(combo, *args):
            computed.append(combo)
            return orig(combo, *args)

        monkeypatch.setattr(harness, "_analytic_verdict", counted)
        records = harness.sweep(dict(spec, axes={"p": (2.0, 3.0)}), log)
        assert computed == [{"p": 3.0}]
        assert [r["combo"] for r in records] == [{"p": 2.0}, {"p": 3.0}]
        assert len(log.read_text().splitlines()) == 2

    def test_pool_sweep_writes_each_verdict(self, tmp_path):
        # a non-positive amplitude fails when its scenario is built in the
        # worker; the verdict before it is already logged
        spec = {"name": "amp-axis", "mode": "numerical",
                "base": tiny_ladder_scenario(),
                "axes": {"amplitude": (2.0, -1.0)}}
        log = tmp_path / "log.jsonl"
        with pytest.raises(ConfigurationError, match="amplitude"):
            harness.sweep(spec, log, workers=2)
        lines = log.read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["combo"] == {"amplitude": 2.0}
        assert rec["outcome"] == "non-propagation-segment"

    def test_serial_sweep_matches_the_pool(self, tmp_path):
        # workers = 1, the default of heatlab sweep, runs in this process
        spec = {"name": "amp-axis", "mode": "numerical",
                "base": tiny_ladder_scenario(),
                "axes": {"amplitude": (2.0, 3.0)}}
        serial = harness.sweep(spec, tmp_path / "serial.jsonl")
        assert serial == harness.sweep(spec, tmp_path / "pool.jsonl",
                                       workers=2)
        assert serial[0]["outcome"] == "non-propagation-segment"

    def test_combo_budget(self, tmp_path, monkeypatch):
        # one combination past the fixed limit of 512 fails before any
        # verdict is computed or any record written
        computed = []
        monkeypatch.setattr(harness, "_analytic_verdict",
                            lambda *args: computed.append(args))
        spec = {"name": "big", "mode": "analytic", "base": None,
                "axes": {"amplitude": tuple(range(1, 172)),
                         "alpha": (0.5, 1.0, 2.0)}}
        log = tmp_path / "log.jsonl"
        with pytest.raises(ConfigurationError,
                           match="513 combinations exceed the limit of 512"):
            harness.sweep(spec, log)
        assert computed == [] and not log.exists()

    def test_summary_table(self, tmp_path):
        spec = harness.load_sweep(SCENARIOS / "sweep-phase.ini")
        log = tmp_path / "log.jsonl"
        records = harness.sweep(spec, log)
        out = tmp_path / "summary.csv"
        harness.write_sweep_summary(records, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,amplitude,outcome"
        assert len(lines) == 25


class TestSweepCombos:
    def test_velocity_combo_keeps_base_direction(self, monkeypatch):
        # on the 2D base a combo speed v drifts the zoomed field by
        # eps * (v, 0); it used to drift diagonally by eps * (v, v)
        base = harness.load_scenario(SCENARIOS / "propagation-straight.ini")
        sc = harness._scenario_for(base, {"velocity": 0.5})
        assert sc.curve_cfg["velocity"] == (0.5, 0.0)
        sc.eps_list = (0.5,)
        drifts = []
        orig = solver.Stepper.__init__

        def spy(stepper, grid, spec):
            drifts.append(spec.drift)
            orig(stepper, grid, spec)

        monkeypatch.setattr(solver.Stepper, "__init__", spy)
        harness.run_scenario(sc)
        assert len(drifts) == 1 and np.array_equal(drifts[0], [0.25, 0.0])

    @pytest.mark.parametrize("base", [
        lambda: harness.load_scenario(SCENARIOS / "downslope-arc.ini"),
        lambda: harness.Scenario("still", curve_cfg={"velocity": (0.0,)})],
        ids=["arc", "still"])
    def test_velocity_combo_needs_a_base_direction(self, base):
        # an arc base used to end in a KeyError, a still one in a division
        # by zero
        with pytest.raises(ConfigurationError, match=r"\[curve\] velocity"):
            harness._scenario_for(base(), {"velocity": 1.0})

    def test_velocity_combo_scales_the_base_velocity(self):
        base = harness.load_scenario(SCENARIOS / "propagation-straight.ini")
        base.curve_cfg = dict(base.curve_cfg, velocity=(-0.3, 0.4))
        sc = harness._scenario_for(base, {"velocity": 2.0})
        assert sc.curve_cfg["velocity"] == pytest.approx((-1.2, 1.6),
                                                         rel=1e-15)


class TestRescaledRules:
    @staticmethod
    def windows(monkeypatch):
        """The growth_window of each functional that the rule judges."""
        windows = []
        orig = harness._diverging

        def spy(values, rules):
            windows.append(rules["growth_window"])
            return orig(values, rules)

        monkeypatch.setattr(harness, "_diverging", spy)
        return windows

    def test_growth_window_reaches_functional(self, monkeypatch):
        windows = self.windows(monkeypatch)
        sc = harness.Scenario(
            name="short-zoom", kind="rescaled", expected="unknown", p=2.0,
            alpha=0.5, eps_list=(0.5, 0.4),
            curve_cfg={"velocity": (0.5,)},
            potential_cfg={"family": "inverse-square", "amplitude": 1.0},
            grid_cfg={"n": 41, "dt": 0.005})
        sc.rules = dict(sc.rules, growth_window=2)
        harness.run_scenario(sc)
        # the measured and the analytic verdict; the outcome's rule stops
        # before the functional, as this short zoom stays below the ceiling
        assert windows == [2, 2]

    def test_analytic_sweep_uses_base_profile(self):
        # localization-weak's log profile localizes at alpha = 1, also
        # with a combo amplitude of 50; the inverse-square profile of
        # propagation-straight propagates
        weak = harness.load_scenario(SCENARIOS / "localization-weak.ini")
        strong = harness.load_scenario(SCENARIOS / "propagation-straight.ini")
        for combo in ({"alpha": 1.0}, {"alpha": 1.0, "amplitude": 50.0}):
            assert harness._analytic_verdict(combo, weak)[0] \
                == "localization"
            assert harness._analytic_verdict(combo, strong)[0] \
                == "propagation"

    def test_analytic_sweep_speed_from_curve_or_combo(self, monkeypatch):
        speeds = []
        orig = spectral.blowup_functional

        def spy(*args, **kwargs):
            speeds.append(kwargs["beta_sup"])
            return orig(*args, **kwargs)

        monkeypatch.setattr(spectral, "blowup_functional", spy)
        base = harness.load_scenario(SCENARIOS / "propagation-straight.ini")
        base.curve_cfg = dict(base.curve_cfg, velocity=(0.3, 0.4))
        harness._analytic_verdict({"alpha": 1.0}, base)
        harness._analytic_verdict({"velocity": 0.25}, base)
        assert speeds == pytest.approx([0.5, 0.25], rel=1e-12)

    def test_analytic_sweep_uses_base_growth_window(self, monkeypatch):
        windows = self.windows(monkeypatch)
        base = harness.load_scenario(SCENARIOS / "propagation-straight.ini")
        base.rules = dict(base.rules, growth_window=2)
        harness._analytic_verdict({"alpha": 1.0}, base)
        harness._analytic_verdict({"alpha": 1.0}, None)
        assert windows == [2, 3]


REFERENCE = SCENARIOS.parent / "perfbench" / "reference.json"
ABSENT = object()  # a key that a sweep-log record drops (its value is None)


def recorded(name):
    """The kind and rules of a verdict recorded in the benchmark reference
    (a lattice point's are those of its base file), its outcome and a copy
    of its evidence."""
    sc = loaded(name.split("/")[0] + ".ini")
    ref = json.loads(REFERENCE.read_text())["verdicts"][name]
    return sc.kind, sc.rules, ref["outcome"], ref["evidence"]


def relabelled(ev, rules):
    return [[lo, hi, "increasing"] for lo, hi, _ in ev["segments"]]


class TestDecide:
    """Every outcome is a function of its evidence and its file's rules:
    decide re-derives each recorded outcome, and a change of the evidence
    that a rule reads flips it."""

    def test_rederives_every_reference_outcome(self):
        names = json.loads(REFERENCE.read_text())["verdicts"]
        assert len(names) == 43  # 8 shipped scenarios, 35 lattice points
        for name in names:
            kind, rules, outcome, ev = recorded(name)
            assert harness.decide(kind, ev, rules) == outcome, name
            if kind == "rescaled":  # recorded by the rules' own predicates
                assert ev["conformance_ok"] == harness._conformant(
                    ev["conformance_margins"], rules)
                for values, verdict in (("functional_measured",
                                         "functional_verdict"),
                                        ("functional_analytic",
                                         "functional_analytic_verdict")):
                    assert (ev[verdict] == "diverging") \
                        == harness._diverging(ev[values], rules)

    def test_rederives_a_fresh_sweep_log(self, tmp_path):
        # the records lack the None-valued evidence, box_center included
        base = tiny_ladder_scenario()
        spec = {"name": "amp-axis", "mode": "numerical", "base": base,
                "axes": {"amplitude": (0.5, 2.0)}}
        harness.sweep(spec, tmp_path / "log.jsonl", workers=2)
        records = harness.read_sweep_log(tmp_path / "log.jsonl")
        assert {rec["outcome"] for rec in records} \
            == {"propagation", "non-propagation-segment"}
        for rec in records:
            assert "box_center" not in rec["evidence"]
            assert harness.decide("ladder", rec["evidence"], base.rules) \
                == rec["outcome"]

    def test_rederives_a_fresh_analytic_sweep_log(self, tmp_path):
        # a record holds the functional's values alone, judged by the rules
        # of the base
        spec = harness.load_sweep(SCENARIOS / "sweep-phase.ini")
        records = harness.sweep(spec, tmp_path / "log.jsonl")
        assert len(records) == 24
        assert {rec["outcome"] for rec in records} \
            == {"propagation", "localization"}
        for rec in records:
            assert harness.decide("analytic", rec, spec["base"].rules) \
                == rec["outcome"]

    @pytest.mark.parametrize("name, changes, outcome", [
        ("propagation-straight", {"conformance_margins": lambda ev, r: [
            0.0, -2 * r["conformance_tol"], 0.0]}, "inconclusive"),
        ("localization-weak", {"conformance_margins": lambda ev, r: [
            0.0, 0.0, -2 * r["conformance_tol"]]}, "inconclusive"),
        ("propagation-straight", {"log_amplified": lambda ev, r: [
            *ev["log_amplified"][:2], ev["log_amplified"][1]]},
         "inconclusive"),
        ("propagation-straight", {"functional_measured": lambda ev, r: [
            r["functional_threshold"] - 2, r["functional_threshold"] - 1,
            r["functional_threshold"]]}, "inconclusive"),
        ("propagation-straight", {"functional_measured": lambda ev, r: ev[
            "functional_measured"][::-1]}, "inconclusive"),
        ("propagation-straight", {"functional_measured": lambda ev, r: [
            2 * r["functional_threshold"]]}, "inconclusive"),
        ("localization-weak", {"log_amplified": lambda ev, r: [
            0.0, 1.0, math.log(r["bounded_ceiling"]) + 1e-9]},
         "inconclusive"),
        ("downslope-arc", {"probe_maxima": lambda ev, r: [
            *ev["probe_maxima"][:-2], 0.0, ev["probe_maxima"][-1]]},
         "inconclusive"),
        ("downslope-arc", {"stabilization_gap": lambda ev, r: 2 * r[
            "stabilization"]}, "propagation"),
        ("box-reentry", {"stabilization_gap": lambda ev, r: 2 * r[
            "stabilization"]}, "propagation"),
        ("control-straight", {"stabilization_gap": 0.0}, "localization"),
        ("remark-localmax", {"stabilization_gap": lambda ev, r: r[
            "stabilization"], "box_center": ABSENT},
         "non-propagation-segment"),
        ("box-reentry", {"box_center": None}, "localization"),
        ("box-reentry", {"box_center": ABSENT}, "localization"),
        ("downslope-arc", {"segments": relabelled}, "localization"),
        ("line-blowup", {"delta_measured": lambda ev, r: [
            (1 - 2 * r["halfwidth_band"]) * f for f in ev["delta_formula"]]},
         "inconclusive"),
        ("line-blowup", {"delta_measured": lambda ev, r: [
            1.01 * f for f in ev["delta_formula"]]}, "inconclusive"),
        ("line-blowup-weighted", {"log_floor_center": lambda ev, r: ev[
            "log_floor_center"][::-1]}, "inconclusive"),
        ("line-blowup/amplitude=4.0,p=3.0", {"calibration_c": 0.0},
         "inconclusive"),
        ("line-blowup", {"conformance_min": lambda ev, r: -2 * r[
            "tunnel_tol"]}, "inconclusive")],
        ids=["margin-propagation", "margin-localization", "flat-amplified",
             "bounded-functional", "falling-functional", "one-value-functional",
             "amplified-localization", "no-probe-hit",
             "gap-segment", "gap-box", "gap-at-zero", "gap-at-tol",
             "box-none", "box-absent", "no-decreasing", "width-narrow",
             "width-wide", "floors-shrink", "calibration-zero",
             "tunnel-conformance"])
    def test_one_change_flips_the_outcome(self, name, changes, outcome):
        kind, rules, recorded_outcome, ev = recorded(name)
        assert outcome != recorded_outcome
        for key, change in changes.items():
            value = change(ev, rules) if callable(change) else change
            if value is ABSENT:
                del ev[key]
            else:
                ev[key] = value
        assert harness.decide(kind, ev, rules) == outcome

    @pytest.mark.parametrize("name", ["propagation-straight",
                                      "localization-weak"])
    def test_analytic_functional_alone(self, name):
        # the analytic functional alone gives the recorded outcome of the
        # shipped rescaled scenarios; it propagates only when its last
        # growth_window values, two or more, rise past the threshold
        _, rules, outcome, ev = recorded(name)
        top, window = rules["functional_threshold"], rules["growth_window"]
        for trace, expected in ((ev["functional_analytic"], outcome),
                                ([top + 1, top + 2, top + 3], "propagation"),
                                ([top + 9, 0, top + 1, top + 2][-window - 1:],
                                 "propagation"),
                                ([top - 2, top - 1, top], "localization"),
                                ([top + 3, top + 2, top + 1], "localization"),
                                ([top + 1], "localization")):
            assert harness.decide("analytic", {"trace": trace}, rules) \
                == expected, trace


class TestCli:
    def test_run_exit_codes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        code = cli.main(["run", str(SCENAR := SCENARIOS / "downslope-arc.ini")])
        assert code == 0
        assert (tmp_path / "verdicts.csv").exists()

    def test_run_mismatch_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        bad = tmp_path / "bad.ini"
        text = (SCENARIOS / "downslope-arc.ini").read_text()
        bad.write_text(text.replace("expected = non-propagation-segment",
                                    "expected = propagation"))
        assert cli.main(["run", str(bad)]) == 2

    def test_error_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == 1

    @pytest.mark.parametrize("text", [None, '{"combo": {}}\n{"comb'])
    def test_report_of_unreadable_log_exits_1(self, tmp_path, monkeypatch,
                                              capsys, text):
        # a missing or torn log used to end in a traceback
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        log = tmp_path / "log.jsonl"
        if text is not None:
            log.write_text(text)
        assert cli.main(["report", str(log)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(log) in err

    def test_torn_record_is_named_by_its_line(self, tmp_path):
        # json reads one line at a time, so a torn 11th record used to be
        # reported as "line 1 column 41"
        log = tmp_path / "log.jsonl"
        record = '{"combo": {"p": 2.0}, "outcome": "propagation"}\n'
        log.write_text(record * 5 + "\n" + record * 4
                       + '{"combo": {"p": 3.0}, "outcome": "prop')
        with pytest.raises(ConfigurationError,
                           match=r"log\.jsonl: line 11 column 34: "
                                 r"Unterminated string starting at$"):
            harness.read_sweep_log(log)

    def test_sweep_and_report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEATLAB_OUT", str(tmp_path))
        assert cli.main(["sweep", str(SCENARIOS / "sweep-phase.ini")]) == 0
        log = tmp_path / "phase-A-alpha.jsonl"
        assert log.exists()
        assert cli.main(["report", str(log)]) == 0


    @pytest.mark.parametrize("argv, message", [
        (["run", "x.ini", "--workers", "4"], "unrecognized arguments"),
        (["sweep", "x.ini", "--budget", "5"], "unrecognized arguments"),
        (["sweep", "x.ini", "--workers", "0"], "'0' is not an integer >= 1"),
        (["sweep", "x.ini", "--workers", "2.5"], "not an integer"),
        # the wall-time screen is gone with its per-kind seconds table
        (["run", "x.ini", "--budget", "5"], "unrecognized arguments")],
        ids=["workers-on-run", "budget-on-sweep", "no-workers",
             "fractional-workers", "budget-on-run"])
    def test_flag_outside_its_command_is_a_usage_error(self, argv, message,
                                                       capsys):
        # --workers and --budget used to be global flags that run and
        # sweep silently ignored; --workers 0 silently ran serially
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_flags_of_their_commands(self, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli, "_cmd_run", lambda a: seen.update(run=a))
        monkeypatch.setattr(cli, "_cmd_sweep", lambda a: seen.update(sweep=a))
        cli.main(["run", "x.ini"])
        cli.main(["sweep", "x.ini", "--workers", "2"])
        assert seen["run"].scenario == "x.ini" and seen["sweep"].workers == 2
