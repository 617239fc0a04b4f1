import json
import struct

import numpy as np
import pytest

import irec.chain
from conftest import raw_v3, raw_v4, reseal, sample_image
from irec import cli, container
from irec.chain import K_MAX
from test_pipeline import V2_LOSSLESS_B4_HEX, V3_LOSSLESS_B4_HEX, V4_LOSSLESS_B4_HEX
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
        assert np.isfinite(stats["log_w_nats"]) and stats["kl_nats"] > 0
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

    @pytest.mark.parametrize(
        "pos, bit, code, message",
        [(355, 2, cli.EXIT_USAGE, "K_MAX"), (1571, 6, cli.EXIT_FORMAT, "overflow")],
        ids=["huge-mu", "overflowing-w"],
    )
    def test_flipped_model_file_is_refused(self, workspace, capsys, pos, bit, code, message):
        # The model file is the committed model_l8.lgm. Its mu[42] becomes
        # 2.2e21 (blocks over the step cap), or its W[16][2] 5.8e307.
        tmp, model_path, img_path = workspace
        data = bytearray(model_path.read_bytes())
        data[pos] ^= 1 << bit
        model_path.write_bytes(bytes(data))
        assert cli.main([
            "compress", "--mode", "lossless", "--model", str(model_path),
            "--in", str(img_path), "--out", str(tmp / "img.irec"),
        ]) == code
        assert message in capsys.readouterr().err

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

    def test_overlong_varint_exit_code(self, workspace, fitted_model):
        # The seed byte 00 rewritten as 80 00, the same value, and resealed.
        tmp, model_path, _ = workspace
        good = raw_v4([(1,)], 37, seed=0, model_id=fitted_model.model_id)
        for data, expected in ((good, 0), (reseal(good[:6] + b"\x80" + good[6:]), 3)):
            (tmp / "seed.irec").write_bytes(data)
            code = cli.main([
                "decompress", "--mode", "lossy", "--model", str(model_path),
                "--in", str(tmp / "seed.irec"), "--out", str(tmp / "y.pgm"),
            ])
            assert code == expected

    def test_relabelled_image_size_exit_code(self, workspace):
        # A 16x16 file (4 blocks) relabelled as 8x8 is malformed, not a usage
        # error: version 5 fails its CRC32, version 2 its block count.
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        data = bytearray(out.read_bytes())
        # After the varints seed, omega and epsilon, and version 5's 4-byte model_id.
        sides_at = 6 + 1 + 2 + 2 + 4
        assert data[sides_at : sides_at + 2] == b"\x10\x10"
        data[sides_at : sides_at + 2] = b"\x08\x08"
        legacy = bytearray.fromhex(V2_LOSSLESS_B4_HEX)
        legacy[46:54] = (8).to_bytes(4, "little") * 2  # image_width, image_height
        for relabelled in (data, legacy):
            out.write_bytes(bytes(relabelled))
            code = cli.main([
                "decompress", "--model", str(model_path),
                "--in", str(out), "--out", str(tmp / "y.pgm"),
            ])
            assert code == 3

    def test_block_over_k_max_exit_code(self, workspace, fitted_model, capsys):
        # A file whose block has more than K_MAX steps is corrupt (exit 3),
        # not a usage error.
        tmp, model_path, _ = workspace
        bad = tmp / "long.irec"
        # M = ceil(exp(3)) = 21 at omega 3, epsilon 0.
        bad.write_bytes(raw_v3(
            [(0,) * (K_MAX + 1)], 21, seed=0, epsilon=0.0, model_id=fitted_model.model_id,
        ))
        code = cli.main([
            "decompress", "--mode", "lossy", "--model", str(model_path),
            "--in", str(bad), "--out", str(tmp / "y.pgm"),
        ])
        assert code == cli.EXIT_FORMAT == 3
        assert "K_MAX" in capsys.readouterr().err

    def test_wrong_residual_count_exit_code(self, workspace):
        # Versions 1 and 2 store the count; version 3 does not.
        tmp, model_path, _ = workspace
        out = tmp / "img.irec"
        data = bytearray.fromhex(V2_LOSSLESS_B4_HEX)
        _, _, section = container.unpack(bytes(data))
        struct.pack_into("<I", data, len(data) - len(section) - 4, 16 * 16 + 1)
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

    @pytest.mark.parametrize("option, value", [("--omega", "3.0001"), ("--epsilon", "0.0001")])
    def test_parameter_off_the_thousandths_is_usage_error(self, workspace, capsys, option, value):
        # A container stores omega and epsilon as whole thousandths; the
        # encoder refuses other values before it codes, and writes no file.
        tmp, model_path, img_path = workspace
        out = tmp / "x.irec"
        assert cli.main([
            "compress", "--model", str(model_path), option, value,
            "--in", str(img_path), "--out", str(out),
        ]) == cli.EXIT_USAGE
        assert "whole number of thousandths" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["compress", "--help"]) == 0
        assert capsys.readouterr().out.count("in whole thousandths") == 2

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

    def test_zero_side_pgm_exit_code(self, workspace, capsys):
        tmp, model_path, _ = workspace
        bad = tmp / "empty.pgm"
        bad.write_bytes(b"P5\n0 4\n255\n")
        code = cli.main([
            "compress", "--model", str(model_path),
            "--in", str(bad), "--out", str(tmp / "x.irec"),
        ])
        assert code == 3
        assert "empty" in capsys.readouterr().err

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
            image_width=8, image_height=8,
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
        "command", [None, "compress", "decompress", "inspect", "bias-study", "sweep", "validate"]
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

    @pytest.mark.parametrize("grid", ["--omega-grid", "--epsilon-grid"])
    def test_sweep_grid_off_the_thousandths_is_usage_error(self, grid, capsys):
        assert cli.main(["sweep", grid, "0.2,0.0005"]) == cli.EXIT_USAGE
        assert "whole number of thousandths, got 0.0005" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["validate", "bias-study", "sweep"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        assert cli.main([command, "--seed", "-1"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestInspect:
    def test_version_5_layout(self, workspace, capsys):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        capsys.readouterr()
        data = out.read_bytes()
        header, blocks, residual = container.unpack(data)
        assert cli.main(["inspect", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        ks = [len(b) for b in blocks]
        centre, k_min, width, _ = container.k_field(ks)
        k_lines = (["k_field fixed", f"k_min {k_min}", f"k_width {width}"] if centre is None
                   else ["k_field prefix", f"k_centre {centre}"])
        assert lines[:2] == [f"bytes {len(data)}", "version 5"]
        for line in (
            f"flags {data[5]:#04x}", "seed 0", "omega 3.0", "epsilon 0.2", "samples_per_step 37",
            f"model_id {header.model_id:#010x}", "image 16x16", "blocks 4", *k_lines,
            f"draws {sum(ks)}", f"residual_bytes {len(residual)}",
            f"crc32 {int.from_bytes(data[-4:], 'little'):#010x} ok",
        ):
            assert line in lines
        assert [line for line in lines if line.startswith("block ")] == [
            f"block {i} K {len(b)} index_bits {container.index_bits(len(b), 37)}"
            for i, b in enumerate(blocks)
        ]

    def test_version_4_layout(self, tmp_path, capsys):
        path = tmp_path / "v4.irec"
        path.write_bytes(bytes.fromhex(V4_LOSSLESS_B4_HEX))
        assert cli.main(["inspect", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("bytes 145", "version 4", "flags 0x03", "omega 3.0", "epsilon 0.2",
                     "model_id 0x9d47fcd57be949c4", "k_field prefix", "k_centre 8", "draws 31",
                     "distinct_k 7 8", "schedule_evaluations 832", "block 0 K 7 index_bits 37",
                     "residual_bytes 98", "crc32 0x0f4fb6eb ok"):
            assert line in lines

    def test_version_3_layout(self, tmp_path, capsys):
        path = tmp_path / "v3.irec"
        path.write_bytes(bytes.fromhex(V3_LOSSLESS_B4_HEX))
        assert cli.main(["inspect", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("bytes 158", "version 3", "flags 0x01", "omega 3.0", "epsilon 0.2",
                     "k_field fixed", "k_min 7", "k_width 1", "draws 31", "distinct_k 7 8",
                     "schedule_evaluations 832", "block 0 K 7 index_bits 37",
                     "residual_bytes 98", "crc32 0xf4accd5e ok"):
            assert line in lines

    def test_decode_work_matches_the_decoder(self, tmp_path, fitted_model, capsys,
                                             equal_kl_calls):
        # A crafted lossy file of 16 blocks with 16 distinct K (M = 2 at
        # omega 0.5, epsilon 0.2): inspect's count of evaluations of C is
        # the decoder's, read from the K of each equal-KL schedule it builds.
        rng = np.random.default_rng(17)
        ks = rng.choice(np.arange(2, 41), size=16, replace=False).tolist()
        blocks = [tuple(rng.integers(0, 2, k).tolist()) for k in ks]
        path = tmp_path / "crafted.irec"
        path.write_bytes(raw_v3(blocks, 2, seed=0, omega=0.5, epsilon=0.2,
                                model_id=fitted_model.model_id, width=32, height=32))
        irec.chain._cached_schedule.cache_clear()  # count every schedule this decode builds
        model_path = tmp_path / "model.lgm"
        save_model(fitted_model, model_path)
        assert cli.main(["decompress", "--mode", "lossy", "--model", str(model_path),
                         "--in", str(path), "--out", str(tmp_path / "out.pgm")]) == 0
        assert cli.main(["inspect", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(equal_kl_calls) == sorted(ks)
        assert f"distinct_k {' '.join(map(str, sorted(ks)))}" in lines
        assert f"draws {sum(ks)}" in lines
        assert f"schedule_evaluations {sum(64 * (k - 1) for k in equal_kl_calls)}" in lines

    def test_version_2_layout(self, tmp_path, capsys):
        path = tmp_path / "v2.irec"
        path.write_bytes(bytes.fromhex(V2_LOSSLESS_B4_HEX))
        assert cli.main(["inspect", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("bytes 187", "version 2", "latent_dim 8", "k_field varint",
                     "block 0 K 7 index_bits 37", "residual_bytes 102", "crc32 none"):
            assert line in lines

    def test_malformed_file_exit_codes(self, workspace, capsys):
        tmp, model_path, img_path = workspace
        out = tmp / "img.irec"
        cli.main([
            "compress", "--model", str(model_path),
            "--in", str(img_path), "--out", str(out),
        ])
        data = out.read_bytes()
        bad = tmp / "bad.irec"
        capsys.readouterr()
        for broken, message in (
            (data[:-1], "CRC32 mismatch"),
            (b"XREC" + data[4:], "bad magic"),
            (data[:4] + b"\x03" + data[5:], "unsupported version"),
            # A K field other than the canonical one, which inspect prints.
            (raw_v3([(0,) * 7, (0,) * 11], 37, width=16, k_min=5, k_width=8),
             "K field not canonical"),
        ):
            bad.write_bytes(broken)
            assert cli.main(["inspect", str(bad)]) == cli.EXIT_FORMAT
            assert message in capsys.readouterr().err
        assert cli.main(["inspect", str(tmp / "absent")]) == cli.EXIT_IO


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
