"""Workloads and their seeded inputs for the irec benchmark.

Inputs come from the test suite's generator in tests/conftest.py:
``make_training_patches`` then ``fit_ppca`` give the model, and
``sample_image`` draws images from that model. The codec under test only ever
sees the resulting images and the model.

The model of a workload is fixed, as a deployed codec's model would be: it
is fitted from the rng seed of the suite's ``fitted_model`` fixture, so the
8-latent model is that fixture's model. The workload seed chooses the
images.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"

OMEGA = 3.0
MODEL_SEED = 2024


class MissingProgram(RuntimeError):
    """The checkout lacks the irec sources or the input generator."""


@dataclass(frozen=True)
class Workload:
    name: str
    lossless: bool
    side: int  # images are side x side pixels
    latent: int  # latent dimension of the fitted model
    epsilon: float
    beams: int
    # The traced run cycles through this many images, so its per-image
    # counts are identical on every pass and repeat exactly for a seed.
    trace_images: int

    @property
    def pixels(self) -> int:
        return self.side * self.side

    def config(self):
        from irec import RecConfig

        return RecConfig(omega=OMEGA, epsilon=self.epsilon, beams=self.beams)


# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = (
    Workload("lossless-128", True, 128, 8, 0.2, 20, 1),
    Workload("lossy-128-l16", False, 128, 16, 0.0, 10, 1),
    Workload("tiles-16", True, 16, 8, 0.2, 20, 48),
)
BY_NAME = {wl.name: wl for wl in WORKLOADS}


def load_generator():
    """Import irec from this checkout's src/ and return the conftest module."""
    if not (SRC / "irec" / "__init__.py").is_file():
        raise MissingProgram(f"no irec package under {SRC}")
    if not CONFTEST.is_file():
        raise MissingProgram(f"no input generator at {CONFTEST}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import irec

    if Path(irec.__file__).resolve().parent != (SRC / "irec").resolve():
        raise MissingProgram(f"irec imported from {irec.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("irec_bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def model_for(gen, latent: int):
    patches = gen.make_training_patches(np.random.default_rng(MODEL_SEED), latent=latent)
    return gen.fit_ppca(patches, latent_dim=latent)


def image_for(gen, model, wl: Workload, seed: int, index: int):
    rng = np.random.default_rng([seed, index])
    return gen.sample_image(model, rng, wl.side, wl.side)
