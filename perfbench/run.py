"""Benchmark of the irec codec: closed-loop compress/decompress round trips.

    python3 perfbench/run.py                 # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1       # every workload, per-layer metrics
    python3 perfbench/run.py --workload lossless-128 --seed 3 --seconds 30 --trace 0

One client sends one image at a time and starts the next only when the
previous round trip has finished. With --workload, the workload runs in this
interpreter and the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Without it, each workload runs
in its own fresh interpreter. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS; this must happen before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import golden  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
LOAD_REPEATS = 5
# The self times of a traced round trip must add up to the round trip as
# timed from outside the tracer, within this share plus this floor.
SELF_CHECK_REL = 0.005
SELF_CHECK_ABS_S = 5e-4
P90_MIN_SAMPLES = 100  # a p90 needs ten samples beyond it

clock = time.perf_counter


def environment() -> dict:
    config = getattr(np, "__config__", None)
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_sha": git_sha(),
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = inputs.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def output_ok(lossless: bool, img, back, result) -> bool:
    """Lossless output must be bit-exact; lossy output must have the PSNR
    the encoder reported."""
    from irec import model as model_mod

    if lossless:
        return np.array_equal(back.pixels, img.pixels)
    return model_mod.psnr(img, back) == result.psnr


def roundtrip(wl, img, model, codec_seed: int, tracer=None, pause=None):
    """Compress then decompress one image.

    Returns ((t0, t1), (t2, t3), result, ok): compress runs over [t0, t1]
    and decompress over [t2, t3]; pause() runs untimed in between. The codec
    functions are looked up at call time, so inside spans.installed() the
    round trip runs through the tracer's wrappers.
    """
    from irec import pipeline

    if wl.lossless:
        compress, decompress = pipeline.compress_lossless, pipeline.decompress_lossless
    else:
        compress, decompress = pipeline.compress_lossy, pipeline.decompress_lossy
    cfg = wl.config()
    if tracer is not None:
        tracer.phase = "compress"
    t0 = clock()
    result = compress(img, model, cfg, codec_seed)
    t1 = clock()
    if pause is not None:
        pause()
    if tracer is not None:
        tracer.phase = "decompress"
    t2 = clock()
    back = decompress(result.data, model)
    t3 = clock()
    return (t0, t1), (t2, t3), result, output_ok(wl.lossless, img, back, result)


def setup_seconds(model_path: Path) -> tuple[float, float]:
    """Median (raw, scaled to reference speed) set-up time over fresh interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(inputs.SRC), str(model_path)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        seconds, kernel_s = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * calib.REFERENCE_S / kernel_s)
    return statistics.median(raw), statistics.median(scaled)


def warm_up(wl, gen):
    """Check the golden set, then decompress this workload's golden container.

    Nothing here is timed; it also runs every code path once.
    Returns (mismatched golden names, golden set size, warm-up round trip ok).
    """
    from irec import pipeline

    mismatched, total, containers = golden.check(gen, pipeline)
    if f"{wl.name}-first" not in containers:
        return mismatched, total, False
    case, result = containers[f"{wl.name}-first"]
    decompress = pipeline.decompress_lossless if wl.lossless else pipeline.decompress_lossy
    try:
        ok = output_ok(wl.lossless, case.image, decompress(result.data, case.model), result)
    except Exception:
        traceback.print_exc()
        ok = False
    return mismatched, total, ok


def golden_note(mismatched, total) -> str:
    names = f": {', '.join(mismatched)}" if mismatched else ""
    return f"{'golden_mismatch':<32} {len(mismatched)} of {total}{names}"


def end_to_end(wl, gen, model, model_path, seed, seconds):
    from irec import pipeline

    setup_raw, setup_s = setup_seconds(model_path)
    mismatched, golden_total, warm_ok = warm_up(wl, gen)
    attempted, failed = 1, int(not warm_ok)
    spans_c, spans_d, psnrs = [], [], []
    bits = ideal_bits = 0.0
    speed = calib.HostSpeed()
    deadline = clock() + seconds
    index = 1
    while True:
        img = inputs.image_for(gen, model, wl, seed, index)
        attempted += 1
        speed.sample_if_due()
        try:
            span_c, span_d, result, ok = roundtrip(
                wl, img, model, index, pause=speed.sample_if_due)
        except Exception:
            traceback.print_exc()
            ok = False
        if ok:
            spans_c.append(span_c)
            spans_d.append(span_d)
            psnrs.append(result.psnr)
            bits += 8 * len(result.data)
            if wl.lossless:
                ideal_bits += pipeline.model_elbo_bits(img, model)
            else:
                ideal_bits += sum(result.kl_per_block) / math.log(2.0)
        else:
            failed += 1
        index += 1
        if clock() >= deadline:
            break
    speed.sample()

    n = len(spans_c)
    px = wl.pixels * n
    raw, scaled = {}, {}
    for op, intervals in (("compress", spans_c), ("decompress", spans_d)):
        raw[op] = [b - a for a, b in intervals]
        scaled[op] = [(b - a) * speed.scale(a, b) for a, b in intervals]
    metrics = dict.fromkeys(["compress_px_per_s", "decompress_px_per_s", "compress_ms_p50",
                             "decompress_ms_p50", "bpp", "elbo_gap_bpp", "psnr_db"], 0.0)
    if n:  # otherwise every round trip failed, and correct is false
        for op in ("compress", "decompress"):
            metrics[f"{op}_px_per_s"] = px / sum(scaled[op])
            metrics[f"{op}_ms_p50"] = 1e3 * statistics.median(scaled[op])
        metrics["bpp"] = bits / px
        metrics["elbo_gap_bpp"] = (bits - ideal_bits) / px
        metrics["psnr_db"] = statistics.fmean(psnrs)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    notes = [f"images timed: {n}, after one untimed warm-up image",
             f"host speed: kernel median {speed.median() * 1e3:.4f} ms against "
             f"{calib.REFERENCE_S * 1e3:g} ms reference"]
    for op in ("compress", "decompress"):
        if n:
            notes.append(f"{op + '_px_per_s (raw)':<32} {px / sum(raw[op]):.6g} px/s")
            notes.append(f"{op + '_ms_p50 (raw)':<32} {1e3 * statistics.median(raw[op]):.6g} ms")
        if n >= P90_MIN_SAMPLES:
            p90 = 1e3 * statistics.quantiles(scaled[op], n=10)[-1]
            notes.append(f"{op + '_ms_p90':<32} {p90:.6g} ms (n={n})")
        else:
            notes.append(f"{op + '_ms_p90':<32} n/a: {n} samples < {P90_MIN_SAMPLES}")
    notes.append(f"{'setup_s (raw)':<32} {setup_raw:.6g} s")
    notes.append(f"{'roundtrip_fail_frac':<32} {failed / attempted} ({failed}/{attempted})")
    notes.append(golden_note(mismatched, golden_total))
    return metrics, attempted, failed, failed == 0, notes


def traced(wl, gen, model, model_path, seed, seconds):
    from irec import container, model as model_mod

    load = []
    for _ in range(LOAD_REPEATS):
        t0 = clock()
        model_mod.load_model(model_path)
        load.append(clock() - t0)
    mismatched, golden_total, warm_ok = warm_up(wl, gen)
    attempted, failed = 1, int(not warm_ok)
    images = [inputs.image_for(gen, model, wl, seed, i) for i in range(1, wl.trace_images + 1)]
    tracer = spans.Tracer()
    total_spans, total_counts = {}, {}
    plain_s = traced_s = 0.0
    problems = []
    done = 0
    deadline = clock() + seconds
    while True:
        # Whole passes only, so per-image counts are the same on every pass.
        for index, img in enumerate(images, 1):
            attempted += 1
            try:
                span_c, span_d, _, ok = roundtrip(wl, img, model, index)
                with spans.installed(tracer):
                    trace_c, trace_d, result, ok_t = roundtrip(wl, img, model, index, tracer)
                steps = sum(len(b) for b in container.unpack(result.data)[1])
            except Exception:
                traceback.print_exc()
                tracer.take()
                failed += 1
                continue
            image_spans, counts = tracer.take()
            draws = counts.get("raw_words.decompress", 0)
            if draws != steps:
                problems.append(f"image {index}: {draws} decompress draws != sum of K {steps}")
            own = spans.self_seconds(image_spans)
            outside = trace_c[1] - trace_c[0] + trace_d[1] - trace_d[0]
            if abs(own - outside) > SELF_CHECK_REL * outside + SELF_CHECK_ABS_S:
                problems.append(f"image {index}: self times {own:.6f} s != round trip "
                                f"{outside:.6f} s")
            if not (ok and ok_t):
                failed += 1
                continue
            done += 1
            plain_s += span_c[1] - span_c[0] + span_d[1] - span_d[0]
            traced_s += outside
            spans.merge(total_spans, image_spans)
            for key, value in counts.items():
                total_counts[key] = total_counts.get(key, 0) + value
        if clock() >= deadline:
            break

    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    metrics = spans.per_layer(total_spans, total_counts, max(done, 1),
                              statistics.median(load), overhead)
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "traced_round_trips": done,
        "spans": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                  for (p, n), (c, t, s) in sorted(total_spans.items(), key=str)],
        "counts": total_counts,
    }, indent=1) + "\n")
    notes = [f"traced round trips: {done}, over {len(images)} distinct images",
             f"self-check: self times within {SELF_CHECK_REL:.1%} + "
             f"{SELF_CHECK_ABS_S * 1e3:g} ms of each round trip; problems: {len(problems)}",
             *problems[:10],
             golden_note(mismatched, golden_total),
             f"spans written to {dump.relative_to(inputs.ROOT)}"]
    return metrics, attempted, failed, failed == 0 and not problems, notes


def run_workload(args, spec) -> int:
    try:
        gen = inputs.load_generator()
    except inputs.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = inputs.BY_NAME[args.workload]
    from irec.model import load_model, save_model

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        model_path = work / "model.lgm"
        save_model(inputs.model_for(gen, wl.latent), model_path)
        model = load_model(model_path)  # the codec gets the model as a user would
        run = traced if args.trace else end_to_end
        metrics, attempted, failed, correct, notes = run(
            wl, gen, model, model_path, args.seed, args.seconds)
    finally:
        shutil.rmtree(work)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(environment())}")
    for m in wanted:
        print(f"{m['name']:<32} {metrics[m['name']]:.6g} {m['unit']}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own fresh interpreter, one after another."""
    results = {}
    for wl in inputs.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", wl.name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[wl.name] = json.loads(lines[-1])
        print()
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
