"""Command-line interface: compress/decompress plus the study harness.

Argument parsing uses the stdlib argparse; every argv problem (unknown
command or option, missing required option, unparseable value) is a usage
error. Exit codes: 0 success (also for --help), 1 usage, 2 I/O (including a
missing input file), 3 format or corrupt stream, 4 model mismatch,
5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import container, pipeline, synthetic
from .codec import RecConfig
from .errors import ConfigError, CorruptStreamError, FormatError, ModelMismatchError
from .errors import UsageError
from .model import load_model, read_pgm, write_pgm

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_MODEL = 4
EXIT_VALIDATE = 5


class _Parser(argparse.ArgumentParser):
    """Reports argv problems as UsageError instead of exiting the process."""

    def error(self, message):
        raise UsageError(message)


def _list_of(kind):
    """argparse type for a comma-separated list of `kind` values."""
    def convert(text):
        return [kind(x) for x in text.split(",")]

    convert.__name__ = f"comma-separated {kind.__name__}"
    return convert


def cmd_compress(args):
    """Compress a PGM image to an IREC container."""
    lossless = args.mode == "lossless"
    epsilon = args.epsilon if args.epsilon is not None else (0.2 if lossless else 0.0)
    beams = args.beams if args.beams is not None else (20 if lossless else 10)
    model = load_model(args.model_path)
    img = read_pgm(args.in_path)
    cfg = RecConfig(omega=args.omega, epsilon=epsilon, beams=beams)
    compress = pipeline.compress_lossless if lossless else pipeline.compress_lossy
    result = compress(img, model, cfg, args.seed)
    with open(args.out_path, "wb") as fh:
        fh.write(result.data)
    print(json.dumps({
        "bpp": result.bpp,
        "kl_nats": sum(result.kl_per_block),
        "log_w_nats": sum(result.log_w_per_block),
        "bits": 8 * len(result.data),
        "psnr": result.psnr,
        "seconds": result.seconds,
        "mode": args.mode,
    }))


def cmd_decompress(args):
    """Decompress an IREC container back to a PGM image."""
    model = load_model(args.model_path)
    with open(args.in_path, "rb") as fh:
        data = fh.read()
    lossless = args.mode == "lossless"
    decompress = pipeline.decompress_lossless if lossless else pipeline.decompress_lossy
    write_pgm(decompress(data, model), args.out_path)


def cmd_inspect(args):
    """Print what an IREC container holds; needs no model."""
    with open(args.file, "rb") as fh:
        data = fh.read()
    header, blocks, residual = container.unpack(data)
    m = header.M
    checksummed = header.version == container.VERSION
    lines = [
        f"bytes {len(data)}",
        f"version {header.version}",
        f"flags {data[5]:#04x}",
        f"seed {header.seed}",
        f"omega {header.omega!r}",
        f"epsilon {header.epsilon!r}",
        f"samples_per_step {m}",
        f"model_id {header.model_id:#018x}",
        f"image {header.image_width}x{header.image_height}",
        f"blocks {len(blocks)}",
    ]
    if checksummed:
        # unpack accepts only the canonical K field, so this is the file's.
        k_min, width = container.k_field(blocks)
        lines += [f"k_min {k_min}", f"k_width {width}"]
    else:
        lines += [f"latent_dim {header.latent_dim}", "k_field varint"]
    lines += [
        f"block {i} K {len(b)} index_bits {container.index_bits(len(b), m)}"
        for i, b in enumerate(blocks)
    ]
    lines.append(f"residual_bytes {'none' if residual is None else len(residual)}")
    # unpack has checked the CRC32 of a version-3 file; versions 1 and 2 have none.
    crc = int.from_bytes(data[-4:], "little")
    lines.append(f"crc32 {crc:#010x} ok" if checksummed else "crc32 none")
    print("\n".join(lines))


def cmd_bias_study(args):
    """Mean final log-importance-weight per beam count, as CSV."""
    rows = synthetic.bias_study(
        args.beam_list, args.kl_target, args.dims, args.trials, args.seed
    )
    lines = ["beams,mean_log_ratio,stderr,kl_nats"]
    lines += [
        f"{r.beams},{r.mean_log_ratio:.6f},{r.stderr:.6f},{r.kl:.6f}" for r in rows
    ]
    _write_csv(args.out_path, lines)


def cmd_sweep(args):
    """Hyperparameter grid: codelength overhead and wall time, as CSV."""
    cells = synthetic.sweep(
        args.omega_grid, args.epsilon_grid, args.beam_grid, trials=args.trials,
        kl_target=args.kl_target, dims=args.dims, seed=args.seed,
    )
    lines = ["omega,epsilon,beams,overhead_ratio,seconds,failures"]
    lines += [
        f"{c.omega},{c.epsilon},{c.beams},{c.overhead_ratio:.6f},"
        f"{c.seconds:.3f},{c.failures}"
        for c in cells
    ]
    _write_csv(args.out_path, lines)


def cmd_validate(args):
    """Run the oracle suite; nonzero exit on any failed check."""
    results = synthetic.run_validation(seed=args.seed, csv_path=args.csv_path)
    for r in results:
        print(f"{'ok' if r.passed else 'FAIL':4s} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else EXIT_VALIDATE


def _write_csv(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _parser() -> _Parser:
    parser = _Parser(prog="irec", description="Relative-entropy-coding image codec.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, func):
        sub = commands.add_parser(
            name, help=func.__doc__, description=func.__doc__, allow_abbrev=False
        )
        sub.set_defaults(func=func)

        def option(flag, dest=None, help=None, **kwargs):
            if kwargs.get("default") is not None:
                help = f"{help or ''} [default: %(default)s]".lstrip()
            if dest:
                # A renamed destination keeps the flag's name in usage and help.
                kwargs.update(dest=dest, metavar=flag[2:].upper())
            sub.add_argument(flag, help=help, **kwargs)

        return option

    for name, func in (("compress", cmd_compress), ("decompress", cmd_decompress)):
        option = command(name, func)
        option("--mode", choices=("lossy", "lossless"), default="lossless")
        option("--model", "model_path", required=True)
        if func is cmd_compress:
            option("--seed", type=int, default=0)
            option("--omega", type=float, default=3.0)
            option("--epsilon", type=float,
                   help="Oversampling rate; defaults to 0.2 lossless, 0.0 lossy.")
            option("--beams", type=int,
                   help="Beam count; defaults to 20 lossless, 10 lossy.")
        option("--in", "in_path", required=True)
        option("--out", "out_path", required=True)

    option = command("inspect", cmd_inspect)
    option("file", metavar="FILE", help="An IREC container of any version.")

    option = command("bias-study", cmd_bias_study)
    option("--beams", "beam_list", type=_list_of(int), default="1,5,20",
           help="Comma-separated beam counts.")
    option("--kl", "kl_target", type=float, default=30.0)
    option("--dims", type=int, default=16)
    option("--trials", type=int, default=200)
    option("--seed", type=int, default=0)
    option("--out", "out_path", default="-")

    option = command("sweep", cmd_sweep)
    option("--omega-grid", type=_list_of(float), default="3,4,5")
    option("--epsilon-grid", type=_list_of(float), default="0.2")
    option("--beam-grid", type=_list_of(int), default="1,5,20")
    option("--trials", type=int, default=50)
    option("--kl", "kl_target", type=float, default=30.0)
    option("--dims", type=int, default=16)
    option("--seed", type=int, default=0)
    option("--out", "out_path", default="-")

    option = command("validate", cmd_validate)
    option("--seed", type=int, default=0)
    option("--csv", "csv_path", help="Where to write the per-step KL histogram CSV.")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args) or 0
    except SystemExit as exc:  # --help
        return exc.code
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FormatError, CorruptStreamError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ModelMismatchError as exc:
        print(f"model mismatch: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
