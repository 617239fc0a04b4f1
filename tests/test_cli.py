import json
import struct

import numpy as np
import pytest

from conftest import sample_image
from irec import cli, container
from irec.model import LinearGaussianModel, read_pgm, save_model, write_pgm


@pytest.fixture()
def workspace(tmp_path, fitted_model):
    model_path = tmp_path / "model.lgm"
    save_model(fitted_model, model_path)
    rng = np.random.default_rng(31)
    img = sample_image(fitted_model, rng, 16, 16)
    img_path = tmp_path / "img.pgm"
    write_pgm(img, img_path)
    return tmp_path, model_path, img_path


class TestCompressDecompress:
    def test_lossless_file_round_trip(self, workspace, capsys):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        back = tmp / "back.pgm"
        assert cli.main([
            "compress", "--mode", "lossless", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ]) == 0
        stats = json.loads(capsys.readouterr().out.strip())
        assert stats["mode"] == "lossless"
        assert stats["bpp"] > 0
        assert cli.main([
            "decompress", "--mode", "lossless", "--model", str(model_path),
            "--in", str(out), "--out", str(back),
        ]) == 0
        assert back.read_bytes() == img_path.read_bytes()

    def test_lossy_round_trip(self, workspace):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        back = tmp / "back.pgm"
        assert cli.main([
            "compress", "--mode", "lossy", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ]) == 0
        assert cli.main([
            "decompress", "--mode", "lossy", "--model", str(model_path),
            "--in", str(out), "--out", str(back),
        ]) == 0
        img = read_pgm(back)
        assert (img.width, img.height) == (16, 16)

    def test_published_defaults(self, workspace):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        header, _, residual = container.unpack(out.read_bytes())
        assert header.omega == 3.0
        assert header.epsilon == 0.2
        assert residual is not None  # lossless is the default mode

    def test_lossy_defaults(self, workspace):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--mode", "lossy", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        header, _, residual = container.unpack(out.read_bytes())
        assert header.epsilon == 0.0
        assert residual is None

    def test_missing_model_is_usage_error(self, workspace, capsys):
        tmp, _, img_path = workspace
        code = cli.main([
            "compress", "--in", str(img_path), "--out", str(tmp / "x.irec"),
        ])
        assert code == 1
        assert "model" in capsys.readouterr().err.lower()

    def test_corrupt_container_exit_code(self, workspace):
        tmp, model_path, _ = workspace
        bad = tmp / "bad.irec"
        bad.write_bytes(b"XREC" + b"\x00" * 60)
        code = cli.main([
            "decompress", "--model", str(model_path),
            "--in", str(bad), "--out", str(tmp / "y.pgm"),
        ])
        assert code == 3

    def test_relabelled_image_size_exit_code(self, workspace):
        # A 16x16 file (4 blocks) relabelled as 8x8 is malformed, not a usage
        # error.
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        data = bytearray(out.read_bytes())
        data[46:54] = (8).to_bytes(4, "little") * 2  # image_width, image_height
        out.write_bytes(bytes(data))
        code = cli.main([
            "decompress", "--model", str(model_path),
            "--in", str(out), "--out", str(tmp / "y.pgm"),
        ])
        assert code == 3

    def test_wrong_residual_count_exit_code(self, workspace):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        data = bytearray(out.read_bytes())
        header, blocks, _ = container.unpack(bytes(data))
        # The residual section starts where a file without one would end.
        struct.pack_into("<I", data, len(container.pack(header, blocks)), 16 * 16 + 1)
        out.write_bytes(bytes(data))
        for mode in ("lossless", "lossy"):
            code = cli.main([
                "decompress", "--mode", mode, "--model", str(model_path),
                "--in", str(out), "--out", str(tmp / "y.pgm"),
            ])
            assert code == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["mu", "W", "noise_var"])
    def test_non_finite_model_exit_code(self, workspace, fitted_model, field, value):
        tmp, model_path, img_path = workspace
        good = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(good),
        ])
        d, latent = fitted_model.W.shape
        offset = {"mu": 12, "W": 12 + 8 * d, "noise_var": 12 + 8 * d * (1 + latent)}
        data = bytearray(model_path.read_bytes())
        struct.pack_into("<d", data, offset[field], value)
        bad_path = tmp / "bad.lgm"
        bad_path.write_bytes(bytes(data))
        for command, src in (("compress", img_path), ("decompress", good)):
            code = cli.main([
                command, "--model", str(bad_path),
                "--in", str(src), "--out", str(tmp / "out"),
            ])
            assert code == 3

    @pytest.mark.parametrize("noise_var", [-5.0, 0.0, 1e-9])
    def test_sub_floor_noise_variance_exit_code(self, workspace, noise_var):
        tmp, model_path, img_path = workspace
        good = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(good),
        ])
        bad_path = tmp / "low.lgm"
        bad_path.write_bytes(model_path.read_bytes()[:-8] + struct.pack("<d", noise_var))
        for command, src in (("compress", img_path), ("decompress", good)):
            code = cli.main([
                command, "--model", str(bad_path),
                "--in", str(src), "--out", str(tmp / "out"),
            ])
            assert code == 3

    @pytest.mark.parametrize("command", ["compress", "decompress"])
    @pytest.mark.parametrize("missing", ["--model", "--in"])
    def test_missing_input_file_is_io_error(self, workspace, command, missing, capsys):
        tmp, model_path, img_path = workspace
        paths = {"--model": str(model_path), "--in": str(img_path)}
        paths[missing] = str(tmp / "absent")
        code = cli.main([
            command, "--model", paths["--model"],
            "--in", paths["--in"], "--out", str(tmp / "out"),
        ])
        assert code == 2
        assert "absent" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--omega", "--epsilon"])
    def test_nan_parameter_is_usage_error(self, workspace, option):
        tmp, model_path, img_path = workspace
        code = cli.main([
            "compress", "--model", str(model_path), option, "nan",
            "--in", str(img_path), "--out", str(tmp / "x.irec"),
        ])
        assert code == 1

    def test_non_numeric_pgm_header_exit_code(self, workspace):
        tmp, model_path, _ = workspace
        bad = tmp / "bad.pgm"
        bad.write_bytes(b"P5\nabc 16\n255\n")
        code = cli.main([
            "compress", "--model", str(model_path),
            "--in", str(bad), "--out", str(tmp / "x.irec"),
        ])
        assert code == 3

    def test_model_mismatch_exit_code(self, workspace, fitted_model):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        from irec.model import LinearGaussianModel

        other = LinearGaussianModel(
            W=fitted_model.W, mu=fitted_model.mu,
            noise_var=fitted_model.noise_var * 3,
        )
        other_path = tmp / "other.lgm"
        save_model(other, other_path)
        code = cli.main([
            "decompress", "--model", str(other_path),
            "--in", str(out), "--out", str(tmp / "z.pgm"),
        ])
        assert code == 4

    def test_model_of_other_patch_size_exit_code(self, tmp_path):
        # A 16-pixel model file and a container that names it: the loader
        # refuses the model before any block is decoded.
        model = LinearGaussianModel(W=np.ones((16, 2)), mu=np.zeros(16), noise_var=1.0)
        model_path = tmp_path / "d16.lgm"
        save_model(model, model_path)
        header = container.ContainerHeader(
            seed=0, omega=3.0, epsilon=0.2, model_id=model.model_id,
            latent_dim=2, image_width=8, image_height=8,
        )
        data_path = tmp_path / "d16.irec"
        data_path.write_bytes(container.pack(header, [(0,)]))
        code = cli.main([
            "decompress", "--mode", "lossy", "--model", str(model_path),
            "--in", str(data_path), "--out", str(tmp_path / "z.pgm"),
        ])
        assert code == 3

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "command", [None, "compress", "decompress", "bias-study", "sweep", "validate"]
    )
    def test_help_exits_zero(self, command, capsys):
        assert cli.main([command, "--help"] if command else ["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: irec")


class TestStudyCommands:
    def test_bias_study_csv(self, tmp_path, capsys):
        code = cli.main([
            "bias-study", "--beams", "1,2", "--kl", "4", "--dims", "2",
            "--trials", "30", "--seed", "0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beams,mean_log_ratio,stderr,kl_nats"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2"]
        assert all(float(r[3]) == pytest.approx(4.0) for r in rows)

    def test_bias_study_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bias-study", "--beams", "1", "--kl", "3", "--dims", "2",
                "--trials", "30", "--seed", "5"]
        cli.main(args + ["--out", str(out1)])
        cli.main(args + ["--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_sweep_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", "--omega-grid", "3", "--epsilon-grid", "0.2",
            "--beam-grid", "1,2", "--trials", "30", "--kl", "6",
            "--dims", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,epsilon,beams,overhead_ratio,seconds,failures"
        assert len(lines) == 3

    @pytest.mark.parametrize("args", [
        ["bias-study", "--beams", "1,x"],
        ["sweep", "--omega-grid", "3,abc"],
        ["sweep", "--epsilon-grid", "0.2,"],
        ["sweep", "--beam-grid", "1.5"],
    ])
    def test_bad_list_value_is_usage_error(self, args, capsys):
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: argument {args[1]}")

    @pytest.mark.parametrize("dims", ["0", "-1"])
    @pytest.mark.parametrize("command", ["bias-study", "sweep"])
    def test_nonpositive_dims_is_usage_error(self, command, dims, capsys):
        assert cli.main([command, "--dims", dims]) == 1
        assert capsys.readouterr().err.startswith("error: dims must be >= 1")

    def test_bad_trial_count_is_usage_error(self):
        assert cli.main(["bias-study", "--trials", "5"]) == 1


class TestValidate:
    def test_reports_named_checks(self, tmp_path, capsys):
        csv = tmp_path / "steps.csv"
        code = cli.main(["validate", "--seed", "0", "--csv", str(csv)])
        out = capsys.readouterr().out
        for name in (
            "chain-rule-identity",
            "aux-target-moments",
            "stochastic-ks",
            "per-step-kl",
            "encode-determinism",
        ):
            assert name in out
        # Every check prints its measured value next to its bound.
        assert out.count("bound") == 5
        assert csv.exists()
        assert csv.read_text().startswith("step,mean_kl_nats,omega")
        # At seed 0 every check passes; each exact mean step KL is 3.000
        # nats against a budget of 3.6.
        assert code == 0 and "FAIL" not in out
