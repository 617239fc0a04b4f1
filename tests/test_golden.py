"""Golden outputs: SHA-256 of containers and codes from fixed inputs.

Every entry fixes (image, model, codec seed, config) and pins the exact
bytes the encoder writes for container version 4, and separately the block
codes those bytes hold. A new container version re-records the container
hashes only; the code hashes stay, as they did from version 3 to 4. A
change that alters any of them changes the wire output, so it must be
deliberate and re-recorded here together with a note in CHANGES.md.

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
from irec import codec, container, pipeline
from irec.chain import build_schedule
from irec.codec import RecConfig
from irec.gauss import DiagGaussian, kl_divergence
from irec.model import load_model

SMALL_GOLDEN = {
    ("lossless", 1): "227c28f6dbbd057bc4ab8a481e8c1f7f43d2412e4901fd3a4dfccc57b9f53b83",
    ("lossless", 4): "94f501b447ef8272d3fb80a255969e4084c59d2e0474ab34bf28dae107590f1c",
    ("lossless", 20): "21413267c86e65b7d9d77dd582e99323ae2ce9777ae5c54b16bfc8901b6aaf7d",
    ("lossy", 1): "aa964902d9270a6b893e8c6ea365ee95f21b846e6de75ee8502eb8cafe715253",
    ("lossy", 4): "3e8d3e64fa5e830fc28b1441ad74dd5250f56d5d9c7d7800a8bbcc4248b46253",
    ("lossy", 20): "209cf3a44c8a8f1053befb5ce57f3d7a97225e3f3bd84a4988fdf029b0f252b0",
}
LOSSLESS_128_GOLDEN = "c0152eaaa90fa0fd394cc51540c8ccbc0dd8074583c763e3c2cfbe0c6923b80e"
LOSSY_128_GOLDEN = "06cc53e19e4384b1d94f62c3f04fc8fcd0dac58eac9fdd3638bd961a2b400301"
# SHA-256 of repr() of each case's list of block tuples, as unpack returns it.
SMALL_CODES_GOLDEN = {
    ("lossless", 1): "f38e5fd9009b19c1b78b13bef4fd53d09a10793cf911beb31c1fc26885c3d3b0",
    ("lossless", 4): "d521142ddb3e68631c24e099fabed8e7b764fbaa0dcf37e1782f3f6fc6ca767b",
    ("lossless", 20): "2171452306206dd6d5aaa63fd6e562fd51d884a29d4330e81ea7ab76827c6502",
    ("lossy", 1): "cbd62434cfab0f3f25f34b7bafa87218899efac66dd5f949e234a0b6034dad7e",
    ("lossy", 4): "8d10ae36d41906a03addc0e55de50cb52f7b1594fed5198f8698fa1500d8b5ab",
    ("lossy", 20): "a9e0f22cae4d77136725ab03610a0d1e7cb95401329bdd838a6b1ac5845770d3",
}
LOSSLESS_128_CODES_GOLDEN = "c331054c1bcaf4b3125baf10d9e1bb9203bec271f517a5af1fc434d11eb31222"
LOSSY_128_CODES_GOLDEN = "60b765c092793e7559b54b7cfa330a100c5cf51e498f35b22da21f553bbdbbc1"
STOCHASTIC_ENCODE_GOLDEN = "667f5249df31612528ccd51cfadce845a533523e7c975440e436940057436ce2"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _codes_sha(data: bytes) -> str:
    return _sha(repr(container.unpack(data)[1]).encode())


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
    assert _codes_sha(data) == SMALL_CODES_GOLDEN[(mode, beams)]
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
    assert _codes_sha(data) == LOSSLESS_128_CODES_GOLDEN
    assert _sha(data) == LOSSLESS_128_GOLDEN


def test_lossy_128(model_l16):
    img = sample_image(model_l16, np.random.default_rng(12), 128, 128)
    data = _compress(False, img, model_l16, RecConfig(omega=3.0, epsilon=0.0, beams=10))
    assert _codes_sha(data) == LOSSY_128_CODES_GOLDEN
    assert _sha(data) == LOSSY_128_GOLDEN


def test_stochastic_encode():
    rng = np.random.default_rng(13)
    q = DiagGaussian(rng.normal(0.0, 1.5, 6), rng.uniform(0.2, 0.6, 6))
    schedule = build_schedule(kl_divergence(q, DiagGaussian.standard(6)), 3.0, 0.0, q.var)
    cfg = RecConfig(omega=3.0, epsilon=0.0, beams=1, stochastic_final=True)
    indices, z, ratio = codec.encode(q, schedule, cfg, seed=5, block=9)
    code = struct.pack(f"<{len(indices)}I", *indices)
    assert _sha(code + z.tobytes() + struct.pack("<d", ratio)) == STOCHASTIC_ENCODE_GOLDEN
