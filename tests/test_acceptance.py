"""End-to-end acceptance criteria for the codec.

Each test covers one numbered criterion and prints a single pass/fail line
with the measured value, so a full run doubles as a report. Criteria 4-6
check the chain identities in closed form (the chain is linear-Gaussian), so
their values repeat exactly and their bound is rounding error; criterion 7
tests sampling on the real sample stream and stays statistical. Criteria 2
and 6 run on the 30-nat, 16-dimensional synthetic benchmark with the
equal-KL schedule of container version 2, built for each target from its
variances:

* criterion 6: every expected per-step KL is 3.000 nats (budget 3.6); the
  power-law schedule of version 1 gave 70% of steps within budget.
* criterion 2: the B=20 mean log weight is 24.06 +/- 0.29 nats against a
  band that starts at 24, a margin below one standard error. Over problem
  seeds 0-5 it ranges from 23.67 to 24.54. The shortfall from the 30-nat
  KL is the bias of greedy beam selection over 37 shared candidates per
  step, not the schedule: every step already carries omega nats.
"""

import math

import numpy as np

from conftest import make_training_patches, sample_image
from irec import codec, container, pipeline, residual, synthetic
from irec.chain import build_schedule
from irec.codec import RecConfig
from irec.errors import IrecError
from irec.gauss import DiagGaussian
from irec.model import ImageGray8, fit_ppca
from irec.residual import LO, TOTAL_FREQ
from irec.synthetic import synthetic_target

_LN2 = math.log(2.0)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_codelength_bound():
    omega, epsilon = 3.0, 0.2
    worst = ""
    ok = True
    for kl in (10.0, 30.0, 100.0):
        schedule = build_schedule(kl, omega, epsilon)
        payload_bytes = (container.index_bits(schedule.K, schedule.M) + 7) // 8
        bits = 8 * payload_bytes + 8 * len(container.write_varint(schedule.K))
        bound = (1 + epsilon) * kl / _LN2 + math.ceil(math.log2(37)) + 16
        ok = ok and bits <= bound
        worst = f"KL={kl:g}: {bits} bits vs bound {bound:.1f}"
        if bits > bound:
            break
    report(1, ok, worst)


def test_criterion_02_beam_bias():
    # The problem set of `irec bias-study` at its defaults.
    kl, trials = 30.0, 200
    problems = synthetic.problem_set(dims=16, kl=kl, trials=trials, seed=0)
    ratios = {
        beams: synthetic.log_ratios(problems, kl, RecConfig(beams=beams))
        for beams in (1, 5, 20)
    }
    ordered = True
    for lo, hi in ((1, 5), (5, 20)):
        diff = ratios[hi] - ratios[lo]
        se = diff.std(ddof=1) / math.sqrt(trials)
        ordered = ordered and diff.mean() > 2 * se
    mean20 = float(ratios[20].mean())
    in_band = 0.8 * kl <= mean20 <= 1.2 * kl
    detail = (
        f"means B1/B5/B20 = {ratios[1].mean():.2f}/{ratios[5].mean():.2f}/"
        f"{mean20:.2f}, band [{0.8 * kl:.0f}, {1.2 * kl:.0f}]"
    )
    report(2, ordered and in_band, detail)


def test_criterion_03_overhead_ordering():
    cells = synthetic.sweep([3.0, 4.0, 5.0], [0.2], [1, 5, 20], trials=50)
    by_key = {(c.omega, c.beams): c.overhead_ratio for c in cells}
    ok = all(
        by_key[(omega, 20)] < by_key[(omega, 5)] < by_key[(omega, 1)]
        for omega in (3.0, 4.0, 5.0)
    )
    detail = ", ".join(
        f"omega={omega:g}: {by_key[(omega, 1)]:.3f}/{by_key[(omega, 5)]:.3f}/"
        f"{by_key[(omega, 20)]:.3f}"
        for omega in (3.0, 4.0, 5.0)
    )
    report(3, ok, detail)


def test_criterion_04_chain_rule_identity():
    rng = np.random.default_rng(1)
    problems = []
    for _ in range(20):
        kl = float(rng.uniform(2.0, 8.0))
        problems.append((synthetic_target(1, kl, rng), build_schedule(kl, 3.0, 0.2)))
    for _ in range(20):
        problems.append((synthetic_target(16, 30.0, rng), build_schedule(30.0, 3.0, 0.2)))
    result = synthetic.check_chain_rule(problems)
    report(4, result.passed, result.detail)


def test_criterion_05_conditional_moments():
    def draw_problem(rng):
        dims = int(rng.integers(1, 6))
        kl = float(rng.uniform(4.0, 20.0))
        q = synthetic_target(dims, kl, rng)
        schedule = build_schedule(kl, 3.0, 0.2)
        return q, schedule, int(rng.integers(0, schedule.K))

    result = synthetic.check_target_moments(np.random.default_rng(8), draw_problem, configs=50)
    report(5, result.passed, result.detail)


def test_criterion_06_per_step_kl_histogram(tmp_path):
    rng = np.random.default_rng(0)
    problems = []
    for _ in range(20):
        q = synthetic_target(16, 30.0, rng)
        problems.append((q, build_schedule(30.0, 3.0, 0.2, q.var)))
    csv = tmp_path / "steps.csv"
    result = synthetic.check_step_kl(problems, csv_path=csv)
    step_kls = {row.split(",")[1] for row in csv.read_text().splitlines()[1:]}
    report(6, result.passed and step_kls == {"3.000000"}, result.detail)


def test_criterion_07_stochastic_fidelity():
    q = DiagGaussian(np.array([0.5]), np.array([0.8]))
    result = synthetic.check_stochastic_ks(q, samples=10_000, seed=1)
    report(7, result.passed, result.detail)


def test_criterion_08_round_trip_exactness(fitted_model):
    rng = np.random.default_rng(3)
    # Part 1: encode/decode bit-exact z.
    for trial in range(1000):
        dims = int(rng.integers(1, 9))
        kl = dims + float(rng.uniform(0.5, 12.0))
        q = synthetic_target(dims, kl, rng)
        schedule = build_schedule(kl, 3.0, 0.2)
        cfg = RecConfig(omega=3.0, epsilon=0.2, beams=int(rng.integers(1, 5)))
        seed = int(rng.integers(0, 2**63))
        indices, z, _ = codec.encode(q, schedule, cfg, seed, block=trial % 8)
        if not np.array_equal(
            z, codec.decode(indices, schedule, seed, trial % 8, dims)
        ):
            report(8, False, f"z mismatch at trial {trial}")

    # Part 2: 20 images compress/decompress byte-identical.
    cfg = RecConfig(omega=3.0, epsilon=0.2, beams=4)
    for i in range(20):
        if i % 2 == 0:
            img = sample_image(fitted_model, rng, 16, 16)
        else:
            img = ImageGray8(16, 16, rng.integers(0, 256, (16, 16), dtype=np.uint8))
        result = pipeline.compress_lossless(img, fitted_model, cfg, seed=i)
        out = pipeline.decompress_lossless(result.data, fitted_model)
        if not np.array_equal(out.pixels, img.pixels):
            report(8, False, f"lossless mismatch on image {i}")

    # Part 3: no single-bit flip crashes the decoder; each bit is flipped once.
    img = sample_image(fitted_model, rng, 16, 16)
    data = pipeline.compress_lossless(img, fitted_model, cfg, seed=99).data
    flips = 8 * len(data)
    crashes = 0
    for pos in range(flips):
        mutated = bytearray(data)
        mutated[pos // 8] ^= 1 << (pos % 8)
        try:
            pipeline.decompress_lossless(bytes(mutated), fitted_model)
        except IrecError:
            pass
        except Exception:
            crashes += 1
    report(
        8, crashes == 0, f"1000 z round trips, 20 images, {crashes} crashes in {flips} bit flips"
    )


def test_criterion_09_residual_optimality():
    rng = np.random.default_rng(4)
    worst = 0.0
    for sigma in (1.5, 4.0, 12.0):
        freq = residual.pmf_quantized(sigma)
        p = freq / float(TOTAL_FREQ)
        r = np.clip(np.rint(rng.normal(0, sigma, size=10_000)).astype(np.int64), -255, 255)
        data = residual.encode_residuals(r, sigma)
        assert np.array_equal(residual.decode_residuals(data, sigma, r.size), r)
        ideal = float(-np.sum(np.log2(p[r - LO])))
        excess = 8 * len(data) - ideal
        worst = max(worst, excess - 0.01 * ideal)
    report(9, worst <= 64.0, f"worst excess beyond 1% slack: {worst:.1f} bits (limit 64)")


def test_criterion_10_elbo_overhead():
    rng = np.random.default_rng(5)
    model = fit_ppca(make_training_patches(rng, n=1200), latent_dim=8)
    cfg = RecConfig(omega=3.0, epsilon=0.2, beams=20)
    ratios = []
    for i in range(3):
        img = sample_image(model, rng, 64, 64)
        result = pipeline.compress_lossless(img, model, cfg, seed=i)
        elbo_bpp = pipeline.model_elbo_bits(img, model) / (64 * 64)
        ratios.append(result.bpp / elbo_bpp)
    ok = all(0.75 <= r <= 1.25 for r in ratios)
    report(10, ok, "bpp/ELBO ratios " + ", ".join(f"{r:.3f}" for r in ratios))
