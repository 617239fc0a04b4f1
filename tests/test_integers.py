"""The one integer rule, stream.check_int, at every scalar count, index and
address the library takes: a float, a string or a value below the argument's
minimum raises UsageError, and a NumPy integer acts as the plain int."""

import numpy as np
import pytest

from conftest import make_training_patches
from irec import stream
from irec.chain import schedule_from_steps
from irec.codec import RecConfig
from irec.container import ContainerHeader, index_bits, pack, write_varint
from irec.errors import UsageError
from irec.gauss import DiagGaussian
from irec.model import ImageGray8, fit_ppca
from irec.residual import decode_residuals, encode_residuals
from irec.synthetic import check_stochastic_ks, problem_set, synthetic_target

HEADER = {"seed": 7, "omega": 3.0, "epsilon": 0.2, "model_id": 9, "image_width": 16,
          "image_height": 8}
RESIDUALS = encode_residuals(np.array([0, 3, -1]), 2.0)
PATCHES = make_training_patches(np.random.default_rng(3), n=100, latent=4)
KS_TARGET = DiagGaussian(np.array([0.5]), np.array([0.8]))


def _words(seed=5, block=1, step=2, sample=3, lanes=4):
    return [w.tobytes() for w in stream.raw_words(seed, block, step, sample, lanes)]


# (argument, call, least valid value, a valid value); each call returns
# something whose repr shows the value's type wherever the value is kept.
CASES = [
    ("seed", stream.check_seed, 0, 7),
    ("block", lambda v: _words(block=v), 0, 1),
    ("step", lambda v: _words(step=v), 0, 2),
    ("sample", lambda v: _words(sample=v), 0, 3),
    ("lane count", lambda v: _words(lanes=v), 1, 4),
    ("dims", stream.lane_count, 1, 5),
    ("n_samples", lambda v: stream.draw_matrix(0, 0, 0, v, 2).tobytes(), 1, 3),
    *[
        (name, lambda v, name=name: ContainerHeader(**{**HEADER, name: v}), 0, HEADER[name])
        for name in ("seed", "model_id", "image_width", "image_height")
    ],
    ("latent_dim", lambda v: ContainerHeader(**HEADER, latent_dim=v, version=2), 0, 4),
    ("version", lambda v: ContainerHeader(**HEADER, latent_dim=4, version=v), 1, 2),
    ("k", lambda v: index_bits(v, 37), 1, 3),
    ("m", lambda v: index_bits(3, v), 1, 37),
    ("varint", write_varint, 0, 300),
    ("K", lambda v: schedule_from_steps(v, 3.0, 0.2), 1, 2),
    ("beams", lambda v: RecConfig(beams=v), 1, 2),
    ("residual count", lambda v: decode_residuals(RESIDUALS, 2.0, v).tolist(), 0, 3),
    ("width", lambda v: ImageGray8(width=v, height=2, pixels=np.arange(8)), 0, 4),
    ("height", lambda v: ImageGray8(width=2, height=v, pixels=np.arange(8)), 0, 4),
    ("latent_dim", lambda v: fit_ppca(PATCHES, v), 1, 2),
    ("dims", lambda v: synthetic_target(v, 5.0, np.random.default_rng(0)), 1, 2),
    ("trials", lambda v: len(problem_set(2, 5.0, v, 0)), 30, 30),
    ("seed", lambda v: problem_set(2, 5.0, 30, v)[0][1], 0, 1),
    ("seed", lambda v: check_stochastic_ks(KS_TARGET, 10, v).value, 0, 1),
    ("samples", lambda v: check_stochastic_ks(KS_TARGET, v, 0).value, 1, 10),
]
IDS = [f"{i}-{case[0]}" for i, case in enumerate(CASES)]


@pytest.mark.parametrize("name, call, lo, good", CASES, ids=IDS)
@pytest.mark.parametrize("bad", [2.5, "3", "below"])
def test_non_integers_and_values_below_the_minimum_are_refused(name, call, lo, good, bad):
    with pytest.raises(UsageError, match=name):
        call(lo - 1 if bad == "below" else bad)


@pytest.mark.parametrize("name, call, lo, good", CASES, ids=IDS)
def test_numpy_integers_act_as_plain_ints(name, call, lo, good):
    expected = repr(call(good))
    assert repr(call(np.int64(good))) == expected
    assert repr(call(np.uint16(good))) == expected


def test_pack_refuses_non_integer_indices():
    header = ContainerHeader(**{**HEADER, "image_width": 8})
    for bad in [(1.7, 0), ("3", 0), (np.float64(1.0), 0)]:
        with pytest.raises(UsageError, match="integer"):
            pack(header, [bad])
    assert pack(header, [(np.int64(1), 0)]) == pack(header, [(1, 0)])


def test_draw_matrix_refuses_a_fractional_sample_count():
    with pytest.raises(UsageError, match="n_samples"):
        stream.draw_matrix(0, 0, 0, 2.5, 2)
