"""End-to-end checks of the command-line front end.

Everything goes through cli.main(argv) so the tests exercise the same
code path as the installed console script, including exit codes.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gpcdec.cli
import gpcdec.layout
import gpcdec.sim
from gpcdec.analysis import (
    de_product_model,
    de_staircase_model,
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

# The flag set with which benchmarks/run.py drives its staircase sweep,
# at a small depth; the CSV is frozen from the same run.
SWEEP_ARGS = [
    "simulate", "--kind", "staircase", "--nu", "7", "--t", "2", "--e", "1",
    "--s", "0", "--num-blocks", "12", "--window", "6", "--decoder", "anchor",
    "--ell", "10", "--delta", "1", "--p-sweep", "0.021:0.024:4",
    "--min-frame-errors", "3", "--max-frames", "48", "--batch-frames", "16",
    "--seed", "0", "--workers", "2",
]
SWEEP_CSV = """\
variant,p,frames,bit_errors,frame_errors,ber,fer,ell,delta,seed
anchor,0.021,48,0,0,0.0,0.0,10,1,0
anchor,0.02195583426013783,48,0,0,0.0,0.0,10,1,0
anchor,0.022955174193268677,32,210,3,0.00016021728515625,0.09375,10,1,0
anchor,0.024,16,309,3,0.00047149658203125,0.1875,10,1,0
"""

# SHA-256 of each file of `repro --figures all --max-frames 8
# --min-frame-errors 2 --seed 5`, the manifest without its python and
# numpy versions (see repro_digests)
REPRO_DIGESTS = {
    "manifest.json": "214b50cb64fd972fda8bd8fb76cdece66bb04235e986be39219c5cafed86345a",
    "pc721.csv": "3306d18508d9e1353466d1990f5b43b0897cd768e786b7deb154ebf838ab31cd",
    "pc8261.csv": "f2e7c4e319046607e4e9f983c8d8ae36a75f9b57414eae86ce93f948004818d4",
    "pc830.csv": "d6c5ce5e1e4f68ff57e15bbf9b7602e7e508d9e2a013127d32a4d5a78a7e1199",
    "pc842.csv": "0685bf20a0753d135bdaf0d529927f43111460cd320e1850a974d45877ad1642",
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    return capsys.readouterr().err


def repro_digests(outdir) -> dict[str, str]:
    out = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["python"], manifest["numpy"]
            data = json.dumps(manifest, indent=2).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(5 + 2**64)])
    def test_seed_outside_64_bits_refused_before_any_point_runs(
        self, capsys, decoded, seed
    ):
        err = usage_error(
            ["simulate", "--nu", "4", "--t", "2", "--p", "0.1", "--seed", seed,
             "--max-frames", "4", "--batch-frames", "4", "--workers", "1"],
            capsys,
        )
        assert "seed must lie in [0, 2**64)" in err
        assert decoded == []

    def test_missing_code_params(self, capsys):
        err = usage_error(["simulate", "--p", "0.1"], capsys)
        assert "--nu is required" in err

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

    @pytest.mark.parametrize("flag", ["--output", "--verbose-frames"])
    def test_unwritable_output_refused_before_any_point_runs(
        self, capsys, tmp_path, decoded, flag
    ):
        code, out, err = run(SIM_ARGS + [flag, str(tmp_path)], capsys)
        assert code == 3
        assert "Is a directory" in err
        assert decoded == []
        assert out == ""

    def test_one_file_for_both_outputs_refused(self, capsys, tmp_path, decoded):
        path = str(tmp_path / "out.txt")
        err = usage_error(
            SIM_ARGS + ["--output", path, "--verbose-frames", path], capsys)
        assert "same file" in err
        assert decoded == []

    @pytest.mark.parametrize("extra, flag", [
        (["--num-blocks", "8"], "--num-blocks"),
        (["--window", "3"], "--window"),
        (["--kind", "product", "--num-blocks", "4", "--window", "4"], "--num-blocks"),
    ], ids=["num-blocks", "window", "both"])
    def test_staircase_options_of_a_product_refused(self, capsys, decoded, extra, flag):
        # --num-blocks 8 is the default: given, it is refused all the same
        err = usage_error(SIM_ARGS + extra, capsys)
        assert f"--kind product takes no {flag}" in err
        assert decoded == []

    @pytest.mark.parametrize("line", ["num_blocks = 5", "window = 2"])
    def test_staircase_config_key_of_a_product_refused(self, capsys, tmp_path,
                                                       decoded, line):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        err = usage_error(SIM_ARGS + ["--config", str(cfg)], capsys)
        assert "--kind product takes no --" + line.split()[0].replace("_", "-") in err
        assert decoded == []
        # the same key runs where the layout reads it
        staircase = ["--kind", "staircase", "--e", "1", "--num-blocks", "5",
                     "--max-frames", "4"]
        assert run(SIM_ARGS + staircase + ["--config", str(cfg)], capsys)[0] == 0

    def test_benchmark_sweep_flag_set(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(SWEEP_ARGS + ["--output", str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text() == SWEEP_CSV

    @pytest.mark.parametrize("extra, message", [
        (["--decoder", "genie", "--reduced-t-iters", "2"], "reduced_t_iters"),
        (["--pp", "erasure", "--pp-extra-iters", "3"], "pp_extra_iters"),
        (["--pp-extra-iters", "3"], "pp_extra_iters"),
    ], ids=["genie-reduced-t", "erasure-extra-iters", "no-pp-extra-iters"])
    def test_setting_the_run_ignores_refused(self, capsys, decoded, extra, message):
        err = usage_error(SIM_ARGS + extra, capsys)
        assert message in err
        assert decoded == []

    def test_staircase_beyond_int32_indices_refused(self, capsys, decoded):
        # 10^8 blocks of side 64 hold 4.1e11 bits; the layout used to ask
        # numpy for 2.98 TiB and die in a traceback
        err = usage_error(
            ["simulate", "--kind", "staircase", "--nu", "7", "--t", "2", "--e", "1",
             "--num-blocks", "100000000", "--window", "6", "--p", "0.02"],
            capsys,
        )
        assert err.strip().splitlines()[-1].endswith(
            "staircase of 100000000 blocks has 409600000000 bits; "
            "at most 2147483647 fit the int32 indices")
        assert decoded == []

    def test_huge_ell_decodes_the_frames_it_runs(self, capsys, tmp_path):
        # the schedule is computed as it runs: ell 10^11 used to build a
        # plan of 2 * 10^11 entries before the first frame
        path = tmp_path / "out.csv"
        start = time.perf_counter()
        code, _, _ = run(
            ["simulate", "--nu", "4", "--t", "2", "--e", "1", "--ell", "100000000000",
             "--p", "0.001", "--max-frames", "2", "--workers", "1",
             "--output", str(path)],
            capsys,
        )
        assert code == 0 and time.perf_counter() - start < 10
        row = path.read_text().splitlines()[1].split(",")
        assert row[2] == "2" and row[7] == "100000000000"


# a subcommand missing one of its required options, and what the error
# names (simulate without --nu or a p grid: TestSimulate)
MISSING = [
    (["simulate", "--nu", "4", "--p", "0.1"], "--t is required"),
    (["de", "--t", "2", "--p", "0.01"], "--nu is required"),
    (["de", "--nu", "7", "--p", "0.01"], "--t is required"),
    (["de", "--nu", "7", "--t", "2"], "--p"),
    (["floor", "--t", "2", "--p", "0.01"], "--nu is required"),
    (["floor", "--nu", "7", "--p", "0.01"], "--t is required"),
    (["floor", "--nu", "7", "--t", "2"], "--p"),
    (["ncg", "--rate", "0.5", "--p-out", "1e-8"], "--p is required"),
    (["ncg", "--rate", "0.5", "--p", "1e-2"], "--p-out is required"),
    (["ncg", "--nu", "7", "--p", "1e-2", "--p-out", "1e-8"], "--rate"),
    (["mcprob", "--t", "2"], "--nu is required"),
    (["mcprob", "--nu", "7"], "--t is required"),
]


class TestRequiredOptions:
    """A missing required option is a usage error that names its flag,
    the same for every subcommand."""

    @pytest.mark.parametrize("argv, flag", MISSING, ids=[
        f"{argv[0]}-no-{flag.split()[0][2:]}" for argv, flag in MISSING])
    def test_missing_option_names_its_flag(self, capsys, argv, flag):
        assert flag in usage_error(argv, capsys)


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

    def test_flat_key_given_twice_refused(self, capsys, tmp_path, decoded):
        cfg = self.write(tmp_path, "\n".join([
            "nu = 4", "t = 2", "p = 0.14", "workers = 1",
            "max-frames = 5", "max_frames = 7",
        ]))
        err = usage_error(["simulate", "--config", cfg], capsys)
        assert "'max_frames' is given twice" in err
        assert decoded == []

    @pytest.mark.parametrize("text", [
        '{"nu": 4, "t": 2, "p": 0.14, "seed": 1, "seed": 2}',
        '{"nu": 4, "t": 2, "p": 0.14, "max_frames": 5, "max-frames": 7}',
    ])
    def test_json_key_given_twice_refused(self, capsys, tmp_path, decoded, text):
        cfg = self.write(tmp_path, text, name="sim.json")
        err = usage_error(["simulate", "--config", cfg, "--workers", "1"], capsys)
        assert "is given twice" in err
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

    @pytest.mark.parametrize("command", ["floor", "de", "simulate"])
    def test_p_grid_above_its_cap_refused(self, capsys, command):
        # 10^11 points used to end in numpy's 745 GiB _ArrayMemoryError
        for num in ("100000000000", "1000001"):
            err = usage_error(
                [command, "--nu", "7", "--t", "2", "--e", "1",
                 "--p-sweep", f"1e-3:1e-2:{num}"], capsys)
            assert err.strip().splitlines()[-1].endswith(
                "--p-sweep takes at most 1000000 points")

    def test_de_stops_at_its_fixed_point(self, capsys):
        # ell 10^8 used to run every iteration; the fixed point comes
        # within a few dozen, so the rows equal those of ell 1000
        argv = ["de", "--nu", "7", "--t", "2", "--e", "1", "--p-sweep", "1e-2:3e-1:6"]
        rows = {}
        for ell in ("1000", "100000000"):
            start = time.perf_counter()
            code, out, _ = run(argv + ["--ell", ell], capsys)
            assert code == 0 and time.perf_counter() - start < 10
            lines = out.strip().split("\n")
            assert all(line.endswith("," + ell) for line in lines[1:])
            rows[ell] = [line.rsplit(",", 1)[0] for line in lines]
        assert rows["1000"] == rows["100000000"] and len(rows["1000"]) == 7

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

    def test_de_product_refuses_num_blocks(self, capsys):
        err = usage_error(["de", "--nu", "7", "--t", "2", "--p", "0.02",
                           "--num-blocks", "6"], capsys)
        assert "--kind product takes no --num-blocks" in err
        args = ["de", "--nu", "7", "--t", "2", "--p", "0.02", "--kind", "staircase",
                "--num-blocks", "6"]
        assert run(args, capsys)[0] == 0

    @pytest.mark.parametrize("extra, flag", [
        (["--nu", "8", "--t", "3"], "--nu"),
        (["--e", "1"], "--e"),
        (["--s", "0"], "--s"),
        (["--kind", "staircase"], "--kind"),
    ], ids=["code", "e", "s", "kind"])
    def test_ncg_rate_with_code_params_refused(self, capsys, extra, flag):
        err = usage_error(["ncg", "--rate", "0.78", "--p", "1.31e-2",
                           "--p-out", "1e-8", *extra], capsys)
        assert f"--rate takes no {flag}" in err

    def test_ncg_needs_rate_or_code(self, capsys):
        usage_error(["ncg", "--p", "1e-2", "--p-out", "1e-8"], capsys)

    @pytest.mark.parametrize("code_args", [
        ["--nu", "12", "--t", "6"],
        ["--nu", "11", "--t", "2", "--e", "1", "--kind", "staircase"],
    ], ids=["syndrome-too-wide-to-decode", "staircase"])
    def test_ncg_builds_no_layout(self, capsys, monkeypatch, code_args):
        # (12,6) packs 72 syndrome bits, more than any decoder takes, and
        # (11,2) would be a 4.2M-bit frame; the rate needs neither
        def refuse(*args, **kwargs):
            raise AssertionError("a layout was built")

        monkeypatch.setattr(gpcdec.layout.GpcLayout, "__init__", refuse)
        for name in ("build_product_layout", "build_staircase_layout"):
            monkeypatch.setattr(gpcdec.cli, name, refuse)
        code, out, _ = run(["ncg", *code_args, "--p", "1e-2", "--p-out", "1e-8"],
                           capsys)
        assert code == 0
        nu, t = int(code_args[1]), int(code_args[3])
        spec = build_component_code(nu, t, 1 if "--e" in code_args else 0)
        n, k = spec.n, spec.k
        rate = (2 * k - n) / n if "staircase" in code_args else (k / n) ** 2
        assert float(out) == ncg(rate, 1e-2, 1e-8)

    def test_ncg_odd_length_staircase_refused(self, capsys):
        err = usage_error(["ncg", "--nu", "7", "--t", "2", "--kind", "staircase",
                           "--p", "1e-2", "--p-out", "1e-8"], capsys)
        assert "staircase requires an even component code length" in err

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
        ("--seed", str(2**64)),
    ], ids=["workers", "max-frames", "min-frame-errors", "seed", "seed-over-64-bits"])
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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_all_datasets_pinned(self, capsys, tmp_path, workers):
        outdir = tmp_path / "repro"
        code, out, _ = run(
            ["repro", "--outdir", str(outdir), "--figures", "all",
             "--max-frames", "8", "--min-frame-errors", "2", "--seed", "5",
             "--workers", workers],
            capsys,
        )
        assert code == 0 and out == ""
        assert repro_digests(outdir) == REPRO_DIGESTS

    def test_staircase_dataset_is_simulate_options(self, capsys, tmp_path, monkeypatch):
        """A dataset is a set of simulate options: a staircase entry runs,
        its Monte Carlo rows equal simulate's on the same options, its de
        rows come from the staircase model, and the manifest names it."""
        options = {"nu": 5, "t": 2, "e": 1, "kind": "staircase",
                   "num_blocks": 5, "window": 4, "p_sweep": "0.03:0.05:2"}
        monkeypatch.setattr(gpcdec.cli, "_FIGURES", {"sc": {
            "description": "staircase",
            "options": options,
            "runs": [("anchor", "none"), ("genie", "none")],
            "curves": ("de",),
        }})
        stop = ["--min-frame-errors", "2", "--max-frames", "16", "--seed", "5",
                "--workers", "1"]
        outdir = tmp_path / "repro"
        assert run(["repro", "--outdir", str(outdir), "--figures", "all", *stop],
                   capsys)[0] == 0
        rows = (outdir / "sc.csv").read_text().splitlines()
        flags = [item for key, value in options.items()
                 for item in ("--" + key.replace("_", "-"), str(value))]
        for i, decoder in enumerate(["anchor", "genie"]):
            code, out, _ = run(["simulate", *flags, "--decoder", decoder, *stop],
                               capsys)
            assert code == 0
            assert rows[1 + 2 * i: 3 + 2 * i] == out.splitlines()[1:]
        model = de_staircase_model(build_component_code(5, 2, 1), 4)
        grid = [float(x) for x in np.geomspace(0.03, 0.05, 2)]
        assert [float(r.split(",")[5]) for r in rows[5:]] == [
            density_evolution(model, p, 10) for p in grid]
        assert {r.split(",")[0] for r in rows[5:]} == {"de"}
        fig = json.loads((outdir / "manifest.json").read_text())["figures"]["sc"]
        assert fig["layout"] == "staircase"
        assert (fig["num_blocks"], fig["window"]) == (5, 4)
        assert fig["component_code"] == {"nu": 5, "t": 2, "e": 1, "s": 0}
        assert fig["p_grid"] == grid

    def test_unknown_figure_rejected(self, capsys, tmp_path):
        usage_error(
            ["repro", "--outdir", str(tmp_path), "--figures", "fig9"],
            capsys,
        )


def test_python_m_gpcdec_runs_the_cli(tmp_path):
    """``python -m gpcdec`` is the console command: a subprocess writes the
    bytes an in-process ``main`` writes for the same arguments."""
    src = Path(gpcdec.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "gpcdec", *SIM_ARGS, "--output", str(tmp_path / "m.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(SIM_ARGS + ["--output", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
