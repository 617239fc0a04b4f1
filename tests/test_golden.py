"""Golden outputs: SHA-256 of containers and codes from fixed inputs.

Every entry fixes (image, model, codec seed, config) and pins the exact
bytes the encoder writes for container version 5, and separately the block
codes those bytes hold. A new container version re-records the container
hashes; the code hashes stay unless the version changes what the blocks
draw, as version 5 did (every block at block address 0), and stayed from
version 3 to 4. A change that alters any of them changes the wire output, so
it must be deliberate and re-recorded here together with a note in CHANGES.md.

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
    ("lossless", 1): "aa60ce921f9bb8cc26abef8ace7181f7f01dbb76a3a54f895bbfa3ad4c779a94",
    ("lossless", 4): "1648b7330ebd9c12f2f4351ec2c1f7191b4c4e3889a67e0e5405e64d2c1727a0",
    ("lossless", 20): "9d51bb5b81853261bbec99a2d07508da800224506ea7213e5792dd53f5dfe7d8",
    ("lossy", 1): "f1512dd2889f51857a90f4cbd070f043848362596727557f660f86cb056680c9",
    ("lossy", 4): "04d5edb43700097aa717b57246a1c7f29daaf3d4faa3f66e09bccd27cf3d4d95",
    ("lossy", 20): "661df97458373174a7bc22f57616bc8b696cc5267653ee054a1cfe61e10d49c3",
}
LOSSLESS_128_GOLDEN = "5cb5b7c01772a25d7facbf1d6e4048f447bd2ad4e54941cf165cc2e58ec92a50"
LOSSY_128_GOLDEN = "58c5c3f39b866c616625d272341120d4e60d6abfe74274ce3cda8f808637b703"
# SHA-256 of repr() of each case's list of block tuples, as unpack returns it.
SMALL_CODES_GOLDEN = {
    ("lossless", 1): "cd9cda27b1d6a707203a9bf36eb4cdeaab249825ccacef912f553a27e2614209",
    ("lossless", 4): "cb6931452f99a2e1b6eb35a4be7c867d5d0f272eafd00b2a25329973db32fea6",
    ("lossless", 20): "c70203dd3a5732b1da8c18c2b59f5ce89ba31d4d525b2de4d93316a73416cd79",
    ("lossy", 1): "d035dd42049965c9a10db0b49c4b2147d0fbcb28a29be23d01c82386524da396",
    ("lossy", 4): "f306f143edcc4db35966ee28f28aff06afe70587a3d9693b57d8c1a6d067ada7",
    ("lossy", 20): "4825e03eb4e5aad7f356d60412c2ce6bbff7c081aba0d87192ab74dc15ebae3a",
}
LOSSLESS_128_CODES_GOLDEN = "971665eb45e373b8994e4d08557cecd26ffda20e2820c76ea6f3f7c0947028c8"
LOSSY_128_CODES_GOLDEN = "907160a6bb20d49e622672e95cdf430b50f03b9f5fc6846cd5bbda8b9735a94d"
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
