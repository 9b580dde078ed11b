import numpy as np
import pytest

from ipbm import runner
from ipbm.cli import main as cli_main
from ipbm.geometry import make_box_mesh, make_icosphere, save_stl
from ipbm.runner import (ConfigError, ExperimentConfig, parse_config,
                         patch_test, report_csv, report_text, run_experiment,
                         write_report)

FAST_CFG = """
domain = sphere
solution = mono123
operator = laplace
method = IPBF
space = tensor-product
d = 1,2,3
m_list = 4,5
nb = 300
eval_grid = 15
"""


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg.method == "IPBF"
        assert cfg.nb == 1000 and cfg.lam == 0.01 and cfg.lam_s == 0.01
        assert cfg.m_c == 3 and cfg.d_c == 3
        assert cfg.seed == 42 and cfg.eval_grid == 40

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(FAST_CFG)
        cfg = parse_config(path, overrides=["nb=200", "m_list=3,4,5"])
        assert cfg.degrees == (1, 2, 3)
        assert cfg.nb == 200
        assert cfg.m_list == (3, 4, 5)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nd = 4   # trailing\n")
        assert parse_config(path).degrees == (4, 4, 4)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("degree = 4\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_bad_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m_list = 5,4\n")
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(path)
        path.write_text("method = banana\n")
        with pytest.raises(ConfigError, match="method"):
            parse_config(path)
        path.write_text("d = x\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(overrides=["novalue"])

    @pytest.mark.parametrize("override,field", [
        ("nb=0", "nb"), ("nb=-5", "nb"), ("eval_grid=1", "eval_grid")])
    def test_point_counts_validated(self, tmp_path, capsys, override, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(overrides=[override])
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: int(override.split("=")[1])})
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG)
        assert cli_main(["run", str(cfg), override]) == 2
        assert field in capsys.readouterr().err


@pytest.fixture(scope="module")
def fast_report():
    cfg = ExperimentConfig(solution="mono123", operator="laplace",
                           degrees=(1, 2, 3), m_list=(4, 5), nb=300,
                           eval_grid=15)
    return run_experiment(cfg)


class TestRunExperiment:
    def test_rows_and_rate_columns(self, fast_report):
        assert [row.m for row in fast_report.rows] == [4, 5]
        assert len(fast_report.max_rates) == 1
        assert len(fast_report.rms_rates) == 1

    def test_patch_level_errors(self, fast_report):
        for row in fast_report.rows:
            assert row.emax < 1e-10

    def test_eval_set_composition(self, fast_report):
        assert fast_report.n_boundary_eval == 2000
        # interior of the ball fills ~52% of the unit box
        frac = fast_report.n_interior_eval / 15 ** 3
        assert 0.4 < frac < 0.6

    def test_determinism_modulo_timings(self):
        cfg = ExperimentConfig(solution="sin5", operator="laplace",
                               degrees=(2, 2, 2), m_list=(3, 4), nb=200,
                               eval_grid=10)
        rows_a = run_experiment(cfg).rows
        rows_b = run_experiment(cfg).rows
        for a, b in zip(rows_a, rows_b):
            assert (a.m, a.nc, a.rank_deficient) == (b.m, b.nc,
                                                     b.rank_deficient)
            assert a.emax == b.emax and a.rms == b.rms
            assert a.condition == b.condition

    def test_seed_changes_boundary_set(self):
        base = ExperimentConfig(solution="sin5", operator="laplace",
                                degrees=(2, 2, 2), m_list=(3,), nb=150,
                                eval_grid=10)
        other = ExperimentConfig(solution="sin5", operator="laplace",
                                 degrees=(2, 2, 2), m_list=(3,), nb=150,
                                 eval_grid=10, seed=7)
        a = run_experiment(base).rows[0]
        b = run_experiment(other).rows[0]
        assert a.emax != b.emax

    def test_stl_domain_end_to_end(self, tmp_path):
        mesh = make_box_mesh((0.2, 0.3, 0.1), (0.8, 0.7, 0.5))
        path = tmp_path / "brick.stl"
        save_stl(mesh, path)
        cfg = ExperimentConfig(domain=f"stl:{path}", solution="mono123",
                               operator="laplace", degrees=(1, 2, 3),
                               m_list=(4,), nb=300, eval_grid=12)
        report = run_experiment(cfg)
        assert report.rows[0].emax < 1e-9
        assert report.n_interior_eval > 0

    def test_missing_stl(self):
        cfg = ExperimentConfig(domain="stl:/nonexistent/file.stl",
                               m_list=(3,))
        with pytest.raises(FileNotFoundError):
            run_experiment(cfg)

    def test_bad_domain_string(self):
        cfg = ExperimentConfig(domain="cube", m_list=(3,))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_empty_interior_fails_fast(self):
        # the 2-point grid is the 8 box corners, all outside the ball
        cfg = ExperimentConfig(degrees=(2, 2, 2), m_list=(3,), nb=200,
                               eval_grid=2)
        with pytest.raises(ConfigError, match="eval_grid=2.*sphere"):
            run_experiment(cfg)

    def test_paper_convergence_order(self):
        # IPBF with degree-4 tensor splines converges at order d + 1 = 5
        cfg = ExperimentConfig(solution="sin5", operator="laplace",
                               degrees=(4, 4, 4), m_list=(5, 6, 7), nb=1000,
                               eval_grid=20)
        report = run_experiment(cfg)
        assert min(report.max_rates) >= 4.5
        assert min(report.rms_rates) >= 4.5


SMALL = dict(degrees=(2, 2, 2), m_list=(3,), nb=200, eval_grid=10)


class TestGeometryMemo:
    def test_shared_across_solutions_and_operators(self, monkeypatch):
        calls = []
        classify = runner.classify_interior

        def counting(*args):
            calls.append(args)
            return classify(*args)

        monkeypatch.setattr(runner, "classify_interior", counting)
        runner._geometry.cache_clear()
        run_experiment(ExperimentConfig(solution="sin5", operator="laplace",
                                        seed=5, **SMALL))
        run_experiment(ExperimentConfig(solution="abs3", operator="var-diag",
                                        seed=5, **SMALL))
        assert len(calls) == 1

    def test_rewritten_stl_is_reread(self, tmp_path):
        path = tmp_path / "brick.stl"
        cfg = ExperimentConfig(domain=f"stl:{path}", solution="mono123",
                               operator="laplace", degrees=(1, 2, 3),
                               m_list=(4,), nb=300, eval_grid=12)
        save_stl(make_box_mesh((0.2, 0.3, 0.1), (0.8, 0.7, 0.5)), path)
        first = run_experiment(cfg).n_interior_eval
        # a box fills its own bounding box, a ball about half of it
        save_stl(make_icosphere((0.5, 0.5, 0.5), 0.4, subdivisions=2), path)
        second = run_experiment(cfg).n_interior_eval
        runner._geometry.cache_clear()
        assert second == run_experiment(cfg).n_interior_eval
        assert second != first

    def test_cached_arrays_read_only(self):
        domain, B, interior, surf = runner._geometry("sphere", None, 200,
                                                     10, 0)
        for array in (domain.bbox, domain.sphere_center, B.points,
                      interior, surf):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_failure_not_cached(self):
        runner._geometry.cache_clear()
        with pytest.raises(ConfigError):
            runner._geometry("sphere", None, 200, 2, 0)
        assert runner._geometry.cache_info().currsize == 0


class TestReports:
    def test_text_report_shape(self, fast_report):
        text = report_text(fast_report)
        lines = text.strip().splitlines()
        assert lines[2].split()[:4] == ["m", "setup", "solve", "nc"]
        assert len(lines) == 4 + len(fast_report.rows)

    def test_csv_report(self, fast_report):
        lines = report_csv(fast_report).strip().splitlines()
        assert lines[0].startswith("m,setup_s,solve_s,nc,cn,emax,rms")
        assert len(lines) == 1 + len(fast_report.rows)
        # rates only appear from the second data row on
        assert lines[1].split(",")[7] == ""
        assert lines[2].split(",")[7] != ""

    def test_write_report_files(self, tmp_path, fast_report):
        outdir = write_report(fast_report, tmp_path / "out")
        for name in ("report.txt", "report.csv", "config.echo"):
            assert (outdir / name).exists()
        echo = (outdir / "config.echo").read_text()
        assert "solution = mono123" in echo
        assert "d = 1,2,3" in echo


class TestPatchTest:
    def test_tensor_product_passes(self):
        ok, emax = patch_test("tensor-product", (1, 2, 3), "laplace")
        assert ok and emax < 1e-10

    def test_insufficient_degree_fails(self):
        ok, emax = patch_test("tensor-product", (1, 1, 1), "laplace",
                              solution_id="quintic")
        assert not ok and emax > 1e-3


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "results"
        code = cli_main(["run", str(cfg), "--out", str(out),
                         "eval_grid=12"])
        assert code == 0
        assert (out / "report.csv").exists()
        assert "reports written" in capsys.readouterr().out

    def test_unknown_option_after_out_rejected(self, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG)
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", str(cfg), "--out", str(tmp_path / "o"),
                      "--bogus"])
        assert exc.value.code == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert cli_main(["run", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,key", [
        ("lambda=0", "lambda"),
        ("lambda_s=-1 space=type5 d=3", "lambda_s"),
        ("space=type5 d=3,4,5", "d"),
        ("method=IPBC m_c=1", "m_c"),
        ("space=type5 method=IPBC d_c=1 d=3", "d_c"),
        ("solution=nope", "solution"),
        ("operator=nope", "operator")])
    def test_invalid_value_exit_code(self, tmp_path, capsys, overrides, key):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG)
        assert cli_main(["run", str(cfg), *overrides.split()]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1

    def test_missing_config_exit_code(self):
        assert cli_main(["run", "/no/such/file.cfg"]) == 2

    def test_directory_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG.replace("domain = sphere",
                                        f"domain = stl:{tmp_path}"))
        assert cli_main(["run", str(cfg)]) == 2
        assert cli_main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all("directory" in line for line in err)

    def test_malformed_stl_exit_code(self, tmp_path, capsys):
        stl = tmp_path / "zeros.stl"
        stl.write_bytes(bytes(100))
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CFG.replace("domain = sphere", f"domain = stl:{stl}"))
        assert cli_main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mismatch" in err and len(err.strip().splitlines()) == 1

    def test_patch_test_verb_tensor_product(self, capsys):
        code = cli_main(["patch-test", "--space", "tensor-product"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_sweep_verb(self, tmp_path):
        cfg1 = tmp_path / "a.cfg"
        cfg1.write_text(FAST_CFG)
        cfg2 = tmp_path / "b.cfg"
        cfg2.write_text(FAST_CFG.replace("1,2,3", "2"))
        out = tmp_path / "sweep"
        assert cli_main(["sweep", str(cfg1), "--out", str(out),
                         str(cfg2)]) == 0
        assert (out / "a" / "report.txt").exists()
        assert (out / "b" / "report.txt").exists()

    def test_sweep_checks_every_config_first(self, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text(FAST_CFG)
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_CFG + "lambda = 0\n")
        out = tmp_path / "sweep"
        assert cli_main(["sweep", str(good), str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bad}: lambda must be > 0, got 0.0"]
        assert not out.exists()

    def test_sweep_names_file_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("degree = 4\n")
        assert cli_main(["sweep", str(bad)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {bad}:1: unknown key 'degree'")
