"""In-memory span tracer around rirshape's public functions.

The tracer replaces each function at the module attribute the program
calls it through (``rirshape.pipeline.convolve``, not
``rirshape.dsp.convolve``, because the pipeline imported the name), and
puts the originals back on exit. Each call becomes a span
``[layer, parent span index, start, end]``; spans stay in a list until the
benchmark reads them. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, layer.function). A function the program reaches
# through two names is wrapped at both, under one layer name.
HOOKS = (
    ("rirshape.pipeline", "read_wav", "wavio.read_wav"),
    ("rirshape.wavio", "read_wav", "wavio.read_wav"),  # shaping.read_rir -> wavio.read_wav
    ("rirshape.pipeline", "write_wav", "wavio.write_wav"),
    ("rirshape.pipeline", "synth_rir", "shaping.synth_rir"),
    ("rirshape.pipeline", "read_rir", "shaping.read_rir"),
    ("rirshape.pipeline", "shape_rir", "shaping.shape_rir"),
    ("rirshape.pipeline", "convolve", "dsp.convolve"),
    ("rirshape.pipeline", "mix_at_snr", "dsp.mix_at_snr"),
    ("rirshape.pipeline", "analyze", "dsp.analyze"),
    ("rirshape.pipeline", "band_energies", "bands.band_energies"),
    ("rirshape.pipeline", "ideal_gains", "bands.ideal_gains"),
    ("rirshape.pipeline", "write_band_matrix_csv", "bands.write_band_matrix_csv"),
    ("rirshape.pipeline", "estimate_rt60", "acoustics.estimate_rt60"),
    ("rirshape.kvtext", "save_kv", "kvtext.save_kv"),
    ("rirshape.kvtext", "load_kv", "kvtext.load_kv"),
    ("rirshape.pipeline", "load_manifest", "pipeline.load_manifest"),
    ("rirshape.pipeline", "generate_example", "pipeline.generate_example"),
    ("rirshape.pipeline", "build_dataset", "pipeline.build_dataset"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in HOOKS))

# layer -> (byte counter, index of the path argument)
BYTE_COUNTERS = {
    "wavio.read_wav": ("wavio.read_bytes", 0),
    "wavio.write_wav": ("wavio.write_bytes", 1),
    "bands.write_band_matrix_csv": ("bands.csv_bytes", 1),
}
COUNTERS = tuple(name for name, _ in BYTE_COUNTERS.values())


class Tracer:
    """Records spans and byte counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, layer, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        byte_counter = BYTE_COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else None, time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if byte_counter is not None:
                name, index = byte_counter
                counters[name] += os.path.getsize(
                    args[index] if len(args) > index else kwargs["path"])
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer in HOOKS:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def tree_errors(self) -> list[str]:
        """Spans that do not nest, or trees whose self times miss their root."""
        own = self.self_times()
        root_of: list[int] = []
        totals: dict[int, float] = {}
        errors = []
        for i, (layer, parent, _, _) in enumerate(self.spans):
            root = i if parent is None else root_of[parent]
            root_of.append(root)
            totals[root] = totals.get(root, 0.0) + own[i]
            if own[i] < -1e-9:
                errors.append(f"span {i} ({layer}) has negative self time {own[i]:.3g} s")
        for root, total in totals.items():
            _, _, start, end = self.spans[root]
            if abs(total - (end - start)) > 1e-9 + 1e-9 * (end - start):
                errors.append(f"self times of tree {root} sum to {total:.9f} s, "
                              f"root span is {end - start:.9f} s")
        return errors

    def per_layer(self, units: int) -> dict[str, tuple[float, float]]:
        """layer -> (self ms per unit, calls per unit)."""
        ms = Counter()
        calls = Counter()
        for (layer, _, _, _), own in zip(self.spans, self.self_times()):
            ms[layer] += own * 1e3
            calls[layer] += 1
        return {layer: (ms[layer] / units, calls[layer] / units) for layer in LAYERS}
