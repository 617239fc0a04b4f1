"""Golden outputs: SHA-256 of containers and codes from fixed inputs.

Every entry fixes (image, model, codec seed, config) and pins the exact
bytes the encoder writes for container version 2. A change that alters any
of them changes the wire output, so it must be deliberate and re-recorded
here together with a note in CHANGES.md.

The 128x128 images span several step counts K per image and several
encoder chunks per K.
"""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_MODEL_PATHS, sample_image
from irec import codec, pipeline
from irec.chain import build_schedule
from irec.codec import RecConfig
from irec.gauss import DiagGaussian, kl_divergence
from irec.model import load_model

SMALL_GOLDEN = {
    ("lossless", 1): "7b84ded2aba0f17a709eb00e4f8e3c96f40ddfcdbffa277ec3b964c3d31979a1",
    ("lossless", 4): "d45fff6075cb3fdff89ed792de4c0568e8cfaf01c317031190d7627dae7896b8",
    ("lossless", 20): "337ce510fc2f46cfced0116214e1d4831aee5575b99b39e66dfb54a5b198118a",
    ("lossy", 1): "95df6ebf0ca63ae3c65360fe74db8feddff562d22c3d9bd17e1f36d7f33e27a8",
    ("lossy", 4): "bfa33fe500cabe2360289def2f4eeb120485b4095c4a7de913340fdace6b71e3",
    ("lossy", 20): "b89693e022605b9526e2c7c74e734e597dc0e6c56a97d3b98cdca0d3767062f3",
}
LOSSLESS_128_GOLDEN = "9535e5e4066f319a7c3909e8588d5494cd822cbba476f0659993670c188ad966"
LOSSY_128_GOLDEN = "10d37c0eb1102f12567b248632c6d0f427955d0d2d02986efe7877c6a35f9578"
STOCHASTIC_ENCODE_GOLDEN = "667f5249df31612528ccd51cfadce845a533523e7c975440e436940057436ce2"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _compress(lossless: bool, img, model, cfg: RecConfig) -> bytes:
    compress = pipeline.compress_lossless if lossless else pipeline.compress_lossy
    return compress(img, model, cfg, seed=0).data


@pytest.fixture(scope="module")
def model_l16():
    return load_model(GOLDEN_MODEL_PATHS[16])


@pytest.mark.parametrize("mode,beams", sorted(SMALL_GOLDEN))
def test_small_image(fitted_model, small_image, mode, beams):
    lossless = mode == "lossless"
    cfg = RecConfig(omega=3.0, epsilon=0.2 if lossless else 0.0, beams=beams)
    data = _compress(lossless, small_image, fitted_model, cfg)
    assert _sha(data) == SMALL_GOLDEN[(mode, beams)]


def test_small_images_under_other_blas_kernel():
    # The golden models are files, and the codec fixes its own summation
    # orders, so the containers do not depend on the host's BLAS kernels.
    # OPENBLAS_CORETYPE acts on the child process only.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_small_image"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr


def test_lossless_128(fitted_model):
    img = sample_image(fitted_model, np.random.default_rng(11), 128, 128)
    data = _compress(True, img, fitted_model, RecConfig(omega=3.0, epsilon=0.2, beams=20))
    assert _sha(data) == LOSSLESS_128_GOLDEN


def test_lossy_128(model_l16):
    img = sample_image(model_l16, np.random.default_rng(12), 128, 128)
    data = _compress(False, img, model_l16, RecConfig(omega=3.0, epsilon=0.0, beams=10))
    assert _sha(data) == LOSSY_128_GOLDEN


def test_stochastic_encode():
    rng = np.random.default_rng(13)
    q = DiagGaussian(rng.normal(0.0, 1.5, 6), rng.uniform(0.2, 0.6, 6))
    schedule = build_schedule(kl_divergence(q, DiagGaussian.standard(6)), 3.0, 0.0, q.var)
    cfg = RecConfig(omega=3.0, epsilon=0.0, beams=1, stochastic_final=True)
    indices, z, ratio = codec.encode(q, schedule, cfg, seed=5, block=9)
    code = struct.pack(f"<{len(indices)}I", *indices)
    assert _sha(code + z.tobytes() + struct.pack("<d", ratio)) == STOCHASTIC_ENCODE_GOLDEN
