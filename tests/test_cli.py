"""End-to-end checks of the command-line front end.

Everything goes through cli.main(argv) so the tests exercise the same
code path as the installed console script, including exit codes.
"""

import json

import numpy as np
import pytest

import gpcdec.sim
from gpcdec.analysis import (
    de_product_model,
    density_evolution,
    error_floor,
    miscorrection_probability,
    ncg,
    pp_floor_model,
    stall_floor_model,
)
from gpcdec.bch import build_component_code
from gpcdec.cli import main

# frozen in test_sim.py for the same parameters
SIM_ROW = "iterative,0.14,192,810,33,0.01875,0.171875,6,1,7"
SIM_ARGS = [
    "simulate", "--nu", "4", "--t", "2", "--p", "0.14", "--ell", "6",
    "--decoder", "iterative", "--min-frame-errors", "25",
    "--max-frames", "1000", "--batch-frames", "64", "--seed", "7",
    "--workers", "1",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    return capsys.readouterr().err


@pytest.fixture
def decoded(monkeypatch):
    """The frame indices decoded during a test, seen by a spy on frame_rng."""
    seen = []
    orig = gpcdec.sim.frame_rng

    def spy(seed, index):
        seen.append(index)
        return orig(seed, index)

    monkeypatch.setattr(gpcdec.sim, "frame_rng", spy)
    return seen


class TestSimulate:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run(SIM_ARGS, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "variant,p,frames,bit_errors,frame_errors,ber,fer,ell,delta,seed"
        assert lines[1] == SIM_ROW

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(SIM_ARGS + ["--output", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text().strip().split("\n")[1] == SIM_ROW

    def test_p_sweep_is_log_spaced(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["simulate", "--nu", "4", "--t", "2",
             "--p-sweep", "1e-3:1e-2:3", "--max-frames", "32",
             "--batch-frames", "32", "--workers", "1",
             "--output", str(path)],
            capsys,
        )
        assert code == 0
        rows = path.read_text().strip().split("\n")[1:]
        got = [float(r.split(",")[1]) for r in rows]
        assert got == [float(x) for x in np.geomspace(1e-3, 1e-2, 3)]

    def test_verbose_frames_jsonl(self, capsys, tmp_path):
        path = tmp_path / "frames.jsonl"
        code, _, _ = run(
            ["simulate", "--nu", "4", "--t", "2", "--p", "0.1",
             "--max-frames", "16", "--batch-frames", "16",
             "--workers", "1", "--output", str(tmp_path / "x.csv"),
             "--verbose-frames", str(path)],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 16
        assert [r["frame"] for r in records] == list(range(16))
        assert all(r["p"] == 0.1 for r in records)
        assert {"bit_errors", "frame_error", "half_iterations",
                "syndromes_zero"} <= set(records[0])

    def test_worker_count_does_not_change_csv(self, capsys, tmp_path):
        paths = []
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.csv"
            args = SIM_ARGS[:-2] + ["--workers", workers,
                                    "--output", str(path)]
            code, _, _ = run(args, capsys)
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_multi_point_jsonl_same_for_any_worker_count(self, capsys, tmp_path):
        # four points: the first two reach --max-frames on a partial batch,
        # the third stops mid-grid with batches of it still unsubmitted
        out = {}
        for workers in ("1", "2"):
            csv, jsonl = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.jsonl"
            code, _, _ = run(
                ["simulate", "--nu", "4", "--t", "2", "--p-sweep", "0.08:0.16:4",
                 "--ell", "6", "--decoder", "iterative",
                 "--min-frame-errors", "25", "--max-frames", "1000",
                 "--batch-frames", "64", "--seed", "7", "--workers", workers,
                 "--output", str(csv), "--verbose-frames", str(jsonl)],
                capsys,
            )
            assert code == 0
            out[workers] = (csv.read_bytes(), jsonl.read_bytes())
        assert out["1"] == out["2"]
        frames = [int(row.split(",")[2]) for row in out["1"][0].decode().split()[1:]]
        assert frames == [1000, 1000, 384, 128]
        assert len(out["1"][1].splitlines()) == sum(frames)

    def test_bad_point_refused_before_any_point_runs(self, capsys, decoded):
        # the grid is 0.2, 0.346, 0.6, and only 0.6 is outside (0, 0.5)
        err = usage_error(
            ["simulate", "--nu", "4", "--t", "2", "--p-sweep", "0.2:0.6:3",
             "--max-frames", "4", "--batch-frames", "4", "--workers", "1"],
            capsys,
        )
        assert "p must lie in" in err
        assert decoded == []

    def test_missing_code_params(self, capsys):
        err = usage_error(["simulate", "--p", "0.1"], capsys)
        assert "--nu" in err

    def test_needs_exactly_one_p(self, capsys):
        err = usage_error(["simulate", "--nu", "4", "--t", "2"], capsys)
        assert "--p" in err
        usage_error(
            ["simulate", "--nu", "4", "--t", "2", "--p", "0.1",
             "--p-sweep", "1e-3:1e-2:3"],
            capsys,
        )

    def test_delta_out_of_range(self, capsys):
        err = usage_error(
            ["simulate", "--nu", "4", "--t", "2", "--p", "0.1",
             "--delta", "5"],
            capsys,
        )
        assert "--delta" in err

    def test_bad_p_value(self, capsys):
        usage_error(
            ["simulate", "--nu", "4", "--t", "2", "--p", "0.6"], capsys)

    def test_overwide_syndrome_is_usage_error(self, capsys):
        # (9,7,0,0) packs 63 syndrome bits; the analytic commands still work
        err = usage_error(
            ["simulate", "--nu", "9", "--t", "7", "--p", "0.01",
             "--max-frames", "1"],
            capsys,
        )
        assert "63 bits" in err
        assert run(["mcprob", "--nu", "9", "--t", "7"], capsys)[0] == 0
        assert run(["de", "--nu", "9", "--t", "7", "--p", "0.01"], capsys)[0] == 0

    @pytest.mark.parametrize("flag", ["--workers", "--window"])
    def test_zero_is_refused_not_defaulted(self, capsys, flag):
        # a 0 is a value: it must reach the range checks, not stand for
        # "unset" and fall back to the default
        args = ["simulate", "--nu", "4", "--t", "2", "--p", "0.1",
                "--max-frames", "1", flag, "0"]
        if flag == "--window":
            args += ["--e", "1", "--kind", "staircase", "--num-blocks", "4"]
        err = usage_error(args, capsys)
        assert ("workers" if flag == "--workers" else "window") in err

    def test_unwritable_output_is_runtime_failure(self, capsys):
        code, _, err = run(
            SIM_ARGS + ["--output", "/nonexistent-dir/out.csv"], capsys)
        assert code == 3
        assert "error" in err


class TestConfigFile:
    def write(self, tmp_path, text, name="sim.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_flat_config_with_flag_override(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "\n".join([
            "nu = 4",
            "t = 2",
            "p = 0.14  # waterfall point",
            "ell = 6",
            "decoder = iterative",
            "min-frame-errors = 25",
            "batch_frames = 64",
            "seed = 3",
        ]))
        code, out, _ = run(
            ["simulate", "--config", cfg, "--seed", "7",
             "--max-frames", "1000", "--workers", "1"],
            capsys,
        )
        assert code == 0
        # seed 7 from the flag wins, everything else from the file
        assert out.strip().split("\n")[1] == SIM_ROW

    def test_json_config(self, capsys, tmp_path):
        cfg = self.write(tmp_path, json.dumps({
            "nu": 4, "t": 2, "p": 0.14, "ell": 6,
            "decoder": "iterative", "min_frame_errors": 25,
            "batch_frames": 64, "seed": 7, "max_frames": 1000,
        }), name="sim.json")
        code, out, _ = run(
            ["simulate", "--config", cfg, "--workers", "1"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1] == SIM_ROW

    def test_unknown_key_rejected_by_name(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "nu = 4\nbogus_key = 1\n")
        err = usage_error(["simulate", "--config", cfg], capsys)
        assert "bogus_key" in err

    def test_unparsable_value(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "nu = four\n")
        err = usage_error(["simulate", "--config", cfg], capsys)
        assert "nu" in err

    def test_missing_file(self, capsys):
        usage_error(["simulate", "--config", "/no/such/file.cfg"], capsys)

    @pytest.mark.parametrize("key, value", [
        ("max_frames", 10.5),
        ("seed", 1.5),
        ("ell", True),
        ("nu", 4.0),
        ("p", [0.14]),
        ("decoder", "bogus"),
        ("delta", 5),
    ])
    def test_value_of_wrong_type_refused(self, capsys, tmp_path, decoded, key, value):
        base = {"nu": 4, "t": 2, "p": 0.14, "max_frames": 4, "batch_frames": 4,
                "workers": 1}
        cfg = self.write(tmp_path, json.dumps({**base, key: value}), name="sim.json")
        err = usage_error(["simulate", "--config", cfg], capsys)
        assert repr(key) in err
        assert decoded == []

    def test_json_null_means_default(self, capsys, tmp_path):
        base = {"nu": 4, "t": 2, "p": 0.14, "ell": 6, "decoder": "iterative",
                "min_frame_errors": 25, "batch_frames": 64, "max_frames": 1000}
        nulls = dict.fromkeys(
            ["e", "s", "kind", "num_blocks", "window", "pp", "pp_extra_iters",
             "delta", "reduced_t_iters", "seed", "workers", "output",
             "verbose_frames", "p_sweep"])
        outs = []
        for name, data in (("plain.json", base), ("nulls.json", {**base, **nulls})):
            cfg = self.write(tmp_path, json.dumps(data), name=name)
            code, out, _ = run(["simulate", "--config", cfg, "--workers", "1"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[1].strip().split("\n")[1].endswith(",6,1,0")


class TestAnalysisCommands:
    def test_de_matches_library(self, capsys):
        code_obj = build_component_code(7, 2, 1, 0)
        model = de_product_model(code_obj)
        code, out, _ = run(
            ["de", "--nu", "7", "--t", "2", "--e", "1",
             "--p-sweep", "2e-2:4e-2:4", "--ell", "8"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,ber,ell"
        assert len(lines) == 5
        for line in lines[1:]:
            p_str, ber_str, ell_str = line.split(",")
            assert ell_str == "8"
            assert float(ber_str) == density_evolution(model, float(p_str), 8)

    def test_floor_matches_library(self, capsys):
        code, out, _ = run(
            ["floor", "--nu", "7", "--t", "2", "--e", "1",
             "--model", "stall", "--p", "1e-2"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "p,ber,model"
        _, ber_str, model_str = row.split(",")
        assert model_str == "stall"
        expect = error_floor(stall_floor_model(128, 2), 1e-2)
        assert float(ber_str) == expect

    def test_pp_floor_matches_library(self, capsys):
        code, out, _ = run(
            ["floor", "--nu", "8", "--t", "2", "--e", "1", "--s", "61",
             "--model", "pp", "--p", "1e-2"],
            capsys,
        )
        assert code == 0
        _, ber_str, model_str = out.strip().split("\n")[1].split(",")
        assert model_str == "pp"
        assert float(ber_str) == error_floor(pp_floor_model(195), 1e-2)

    @pytest.mark.parametrize("code_args", [
        ["--nu", "8", "--t", "3"],
        ["--nu", "8", "--t", "3", "--e", "1"],
        ["--nu", "7", "--t", "2"],
    ], ids=["t3", "t3-extended", "t2-unextended"])
    def test_pp_floor_refused_outside_its_model(self, capsys, code_args):
        err = usage_error(
            ["floor", *code_args, "--model", "pp", "--p", "1e-2"], capsys)
        assert "--model pp" in err

    @pytest.mark.parametrize("grid", [
        ["--p", "0"],
        ["--p", "1.5"],
        ["--p-sweep", "1e-2:1.5:3"],
    ], ids=["zero", "above-one", "sweep-above-one"])
    def test_floor_bad_p_is_usage_error(self, capsys, grid):
        err = usage_error(
            ["floor", "--nu", "7", "--t", "2", "--e", "1", *grid], capsys)
        assert "p must be in (0, 1)" in err

    def test_ncg_rate_flag(self, capsys):
        code, out, _ = run(
            ["ncg", "--rate", "0.78", "--p", "1.31e-2", "--p-out", "1e-8"],
            capsys,
        )
        assert code == 0
        assert float(out) == ncg(0.78, 1.31e-2, 1e-8)

    def test_ncg_from_code_params(self, capsys):
        code, out, _ = run(
            ["ncg", "--nu", "8", "--t", "3", "--p", "1.31e-2",
             "--p-out", "1e-8"],
            capsys,
        )
        assert code == 0
        from gpcdec.layout import build_product_layout
        rate = build_product_layout(build_component_code(8, 3, 0, 0)).rate
        assert float(out) == ncg(rate, 1.31e-2, 1e-8)

    def test_ncg_needs_rate_or_code(self, capsys):
        usage_error(["ncg", "--p", "1e-2", "--p-out", "1e-8"], capsys)

    def test_mcprob(self, capsys):
        code, out, _ = run(["mcprob", "--nu", "7", "--t", "2", "--e", "1"],
                           capsys)
        assert code == 0
        frac = miscorrection_probability(build_component_code(7, 2, 1, 0))
        assert out.strip() == f"{frac} ({float(frac)!r})"


class TestRepro:
    def test_small_run_writes_csv_and_manifest(self, capsys, tmp_path):
        outdir = tmp_path / "repro"
        code, _, _ = run(
            ["repro", "--outdir", str(outdir), "--figures", "pc721",
             "--min-frame-errors", "2", "--max-frames", "32",
             "--seed", "5", "--workers", "1"],
            capsys,
        )
        assert code == 0
        csv_path = outdir / "pc721.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "variant,p,frames,bit_errors,frame_errors,ber,fer,ell,delta,seed"
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {"iterative", "anchor", "genie", "de"}
        # 3 Monte Carlo runs and one analytic curve over a 7-point grid
        assert len(lines) == 1 + 4 * 7

        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["package"] == "gpcdec"
        assert manifest["seed"] == 5
        assert set(manifest["figures"]) == {"pc721"}
        fig = manifest["figures"]["pc721"]
        assert fig["file"] == "pc721.csv"
        assert fig["component_code"] == {"nu": 7, "t": 2, "e": 1, "s": 0}
        assert len(fig["p_grid"]) == 7

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--max-frames", "0"),
        ("--min-frame-errors", "0"),
        ("--seed", "-1"),
    ], ids=["workers", "max-frames", "min-frame-errors", "seed"])
    def test_zero_workers_refused_before_any_run(self, capsys, tmp_path, flag, value):
        outdir = tmp_path / "repro"
        args = {"--max-frames": "1", "--workers": "1", flag: value}
        err = usage_error(
            ["repro", "--outdir", str(outdir), "--figures", "pc721",
             *(item for pair in args.items() for item in pair)],
            capsys,
        )
        assert flag in err
        assert not outdir.exists()

    def test_unknown_figure_rejected(self, capsys, tmp_path):
        usage_error(
            ["repro", "--outdir", str(tmp_path), "--figures", "fig9"],
            capsys,
        )
