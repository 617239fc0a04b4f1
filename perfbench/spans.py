"""Outside-in tracing of the irec modules for the benchmark's traced run.

For one traced round trip, each function a caller reaches through a module
attribute is replaced by a wrapper that records a span, and the original is
put back afterwards. A wrapper goes under the name its caller looks up:

* pipeline binds build_schedule, schedule_from_steps, whiten and
  kl_divergence at import, so those are patched in irec.pipeline;
* codec binds target_moments and posterior_moments at import, so those are
  patched in irec.codec;
* the draw functions reach Philox through irec.stream.raw_words, and
  model_id reaches FNV through irec.model.fnv1a64.

A span is named after the module that defines the function. Spans nest on a
stack; a span's self time is its duration minus the durations of its direct
children, so the self times of one round trip add up to the time spent in
its outermost spans. Counts are taken from arguments and return values at
the same boundaries.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


def _on_raw_words(counts, phase, args, result):
    counts[f"raw_words.{phase}"] += 1
    counts["words"] += result[0].size


def _on_build_schedule(counts, phase, args, result):
    counts["blocks"] += 1
    counts["steps"] += result.K
    counts["kl_nats"] += args[0]


def _on_target_moments(counts, phase, args, result):
    counts["beam_rows"] += len(args[0])  # live beams scored at this step


def _on_encode(counts, phase, args, result):
    counts["candidates"] += counts.pop("beam_rows", 0) * args[1].M
    counts["log_w_nats"] += result[2]


def _on_codelength_report(counts, phase, args, result):
    for key in ("payload_bits", "varint_bits", "ideal_bits"):
        counts[key] += result[key]


def _on_encode_residuals(counts, phase, args, result):
    counts["symbols_encoded"] += len(args[0])
    counts["residual_bits"] += 8 * len(result)


def _on_decode_residuals(counts, phase, args, result):
    counts["symbols_decoded"] += args[2]


def _targets():
    """(module, attribute, hook) for every traced call site."""
    from irec import codec, container, model, pipeline, residual, stream

    return (
        (pipeline, "compress_lossless", None),
        (pipeline, "compress_lossy", None),
        (pipeline, "decompress_lossless", None),
        (pipeline, "decompress_lossy", None),
        (pipeline, "build_schedule", _on_build_schedule),
        (pipeline, "schedule_from_steps", None),
        (pipeline, "whiten", None),
        (pipeline, "kl_divergence", None),
        (codec, "encode", _on_encode),
        (codec, "decode", None),
        (codec, "target_moments", _on_target_moments),
        (codec, "posterior_moments", None),
        (stream, "draw_matrix", None),
        (stream, "draw_vector", None),
        (stream, "draw_uniform", None),
        (stream, "scale_to_aux", None),
        (stream, "raw_words", _on_raw_words),
        (container, "pack", None),
        (container, "unpack", None),
        (container, "codelength_report", _on_codelength_report),
        (residual, "encode_residuals", _on_encode_residuals),
        (residual, "decode_residuals", _on_decode_residuals),
        (residual, "pmf_quantized", None),
        (model, "patchify", None),
        (model, "unpatchify", None),
        (model, "posterior", None),
        (model, "reconstruct", None),
        (model, "fnv1a64", None),
    )


class Tracer:
    """Collects spans and counts of one round trip at a time, in memory."""

    def __init__(self):
        self.phase = "compress"  # set by the caller: compress or decompress
        # (parent name, name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple, list] = {}
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [name, child seconds] per open span

    def take(self):
        """Return the spans and counts recorded so far, and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = {}, defaultdict(float)
        return spans, counts

    def wrap(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                record = self.spans.get((parent, name))
                if record is None:
                    record = self.spans[(parent, name)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
            if hook is not None:
                hook(self.counts, self.phase, args, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced call site for the duration of the block."""
    saved = []
    try:
        for module, attr, hook in _targets():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", fn, hook))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def merge(total: dict, spans: dict) -> None:
    for key, (calls, dur, own) in spans.items():
        record = total.setdefault(key, [0, 0.0, 0.0])
        record[0] += calls
        record[1] += dur
        record[2] += own


def self_seconds(spans: dict, layer: str | None = None) -> float:
    """Sum of self times, over every span or over one layer's spans."""
    prefix = None if layer is None else layer + "."
    return sum(
        rec[2] for (_, name), rec in spans.items()
        if prefix is None or name.startswith(prefix)
    )


def _total(spans: dict, *names: str) -> tuple[int, float]:
    calls = seconds = 0
    for (_, name), rec in spans.items():
        if name in names:
            calls += rec[0]
            seconds += rec[1]
    return calls, seconds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: dict, counts: dict, images: int, load_s: float,
              overhead_frac: float) -> dict:
    """Per-image layer metrics by name; BENCHMARK.json gives their units."""
    c = defaultdict(float, counts)
    blocks = c["blocks"]
    _, raw_s = _total(spans, "stream.raw_words")
    _, enc_res_s = _total(spans, "residual.encode_residuals")
    _, dec_res_s = _total(spans, "residual.decode_residuals")
    decode_blocks, _ = _total(spans, "codec.decode")
    whiten_calls, _ = _total(spans, "gauss.whiten")
    id_calls, id_s = _total(spans, "model.fnv1a64")

    def per(x):
        # Division, not a product with 1/images: a count then reads the
        # same whatever the number of passes.
        return x / images

    def per_block_ms(name, n):
        own = sum(rec[2] for (_, nm), rec in spans.items() if nm == name)
        return 1e3 * _ratio(own, n)

    return {
        "stream.compress_calls": per(c["raw_words.compress"]),
        "stream.decompress_calls": per(c["raw_words.decompress"]),
        "stream.words": per(c["words"]),
        "stream.self_s": per(self_seconds(spans, "stream")),
        "stream.words_per_s": _ratio(c["words"], raw_s),
        "codec.encode_self_ms_per_block": per_block_ms("codec.encode", blocks),
        "codec.decode_self_ms_per_block": per_block_ms("codec.decode", decode_blocks),
        "codec.candidates_per_block": _ratio(c["candidates"], blocks),
        "codec.log_w_over_kl": _ratio(c["log_w_nats"], c["kl_nats"]),
        "codec.bias_gap_nats": _ratio(c["kl_nats"] - c["log_w_nats"], blocks),
        "chain.steps_per_block": _ratio(c["steps"], blocks),
        "chain.schedule_s":
            per(_total(spans, "chain.build_schedule", "chain.schedule_from_steps")[1]),
        "chain.moments_s":
            per(_total(spans, "chain.target_moments", "chain.posterior_moments")[1]),
        "gauss.whiten_calls": per(whiten_calls),
        "gauss.self_s": per(self_seconds(spans, "gauss")),
        "residual.symbols": per(c["symbols_encoded"]),
        "residual.encode_sym_per_s": _ratio(c["symbols_encoded"], enc_res_s),
        "residual.decode_sym_per_s": _ratio(c["symbols_decoded"], dec_res_s),
        "residual.bits_per_symbol": _ratio(c["residual_bits"], c["symbols_encoded"]),
        "residual.table_s": per(_total(spans, "residual.pmf_quantized")[1]),
        "container.pack_s": per(_total(spans, "container.pack")[1]),
        "container.unpack_s": per(_total(spans, "container.unpack")[1]),
        "container.payload_bits": per(c["payload_bits"]),
        "container.varint_bits": per(c["varint_bits"]),
        "container.overhead_ratio": _ratio(c["payload_bits"], c["ideal_bits"]),
        "model.load_s": load_s,
        "model.model_id_calls": per(id_calls),
        "model.model_id_s": per(id_s),
        "model.posterior_s": per(_total(spans, "model.posterior")[1]),
        "model.reconstruct_s": per(_total(spans, "model.reconstruct")[1]),
        "model.patch_s": per(_total(spans, "model.patchify", "model.unpatchify")[1]),
        "pipeline.self_s": per(self_seconds(spans, "pipeline")),
        "trace_overhead_frac": overhead_frac,
    }
