"""Golden containers: SHA-256 of the bytes compressed from fixed inputs.

Each entry fixes (image, model, codec seed, config). The 16x16 entries use
the test suite's session fixtures (8-latent model from rng 2024, image from
rng 7) in both modes with B in {1, 4, 20}; the workload entries use the
first image of each workload at seed 0. Input hashes are stored too, so a
change of the generator is told apart from a change of the wire format.

Re-record after a deliberate format change with:

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 0


@dataclass(frozen=True)
class Case:
    name: str
    lossless: bool
    model: object
    image: object
    cfg: object
    codec_seed: int


def cases(gen):
    from irec import RecConfig

    model = inputs.model_for(gen, 8)
    image = gen.sample_image(model, np.random.default_rng(7), 16, 16)
    for lossless in (True, False):
        for beams in (1, 4, 20):
            cfg = RecConfig(omega=inputs.OMEGA, epsilon=0.2 if lossless else 0.0, beams=beams)
            mode = "lossless" if lossless else "lossy"
            yield Case(f"16x16-{mode}-b{beams}", lossless, model, image, cfg, 0)
    for wl in inputs.WORKLOADS:
        wl_model = inputs.model_for(gen, wl.latent)
        wl_image = inputs.image_for(gen, wl_model, wl, GOLDEN_SEED, 0)
        yield Case(f"{wl.name}-first", wl.lossless, wl_model, wl_image, wl.config(), 0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(case: Case, pipeline):
    """Compress the case; return (golden entry, CompressionResult)."""
    compress = pipeline.compress_lossless if case.lossless else pipeline.compress_lossy
    result = compress(case.image, case.model, case.cfg, case.codec_seed)
    data = result.data
    entry = {
        "model_sha256": _sha(case.model.to_bytes()),
        "image_sha256": _sha(case.image.pixels.tobytes()),
        "container_sha256": _sha(data),
        "container_bytes": len(data),
    }
    return entry, result


def check(gen, pipeline):
    """Compress every case.

    Returns (mismatched names, golden set size, {name: (case, result)}); a
    case whose compression raised counts as mismatched and has no result.
    """
    expected = json.loads(GOLDEN_PATH.read_text())
    mismatched, containers = [], {}
    for case in cases(gen):
        try:
            entry, result = record(case, pipeline)
        except Exception:
            traceback.print_exc()
            mismatched.append(case.name)
            continue
        containers[case.name] = (case, result)
        if expected.get(case.name) != entry:
            mismatched.append(case.name)
    mismatched += sorted(set(expected) - set(containers) - set(mismatched))
    return mismatched, len(expected), containers


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 1
    gen = inputs.load_generator()
    from irec import pipeline

    entries = {case.name: record(case, pipeline)[0] for case in cases(gen)}
    GOLDEN_PATH.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
