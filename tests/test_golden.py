"""Golden outputs: SHA-256 of containers and codes from fixed inputs.

Every entry fixes (image, model, codec seed, config) and pins the exact
bytes the encoder writes for container version 3. A change that alters any
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
    ("lossless", 1): "90b463d893aff06dc8ff9d0b1b6b0d07d813260c9dc4a712da462f2b036a84fe",
    ("lossless", 4): "5e490e687c6c65c52c1cf411006f89019f4fa6a9ab22300b042cc5168beb3649",
    ("lossless", 20): "96b4cdb8aa4f0281692750d1a139ade4cb60523eca2c6b5007c5ec466c68df8f",
    ("lossy", 1): "061ad509e9c3401df8b89fa56ff2b07606f812c289106aefca7be2d50a2137f7",
    ("lossy", 4): "a57bde25663e947290c10ddf1d3608c898e9e5f20ebfe8f3e3eecfec5e965b5d",
    ("lossy", 20): "f49aa121934af03781ebeae385497630686a528d2b8ed4e8ce60795416d6e4c4",
}
LOSSLESS_128_GOLDEN = "e4eee0ff34e4511f3c1e61f24ea8587557eec8be20d303881e9dd2d1c2a2a3a6"
LOSSY_128_GOLDEN = "3d16717af012e6082789f2e83080f044570d00bdaefcb6a7649b52cc9e23ed5c"
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
