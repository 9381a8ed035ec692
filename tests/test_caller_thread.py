"""Every stage ``pipeline`` calls runs on the caller's thread.

``dsp`` may split a long transform over helper threads, but only inside
``dsp``: the helpers run scipy and numpy, never a function reached
through a ``pipeline`` name. A profiler or tracer that keeps one call
stack around those names (as the benchmark's does) then sees every call
nest on one thread. This wraps each such name with a recorder of the
calling thread, makes helpers start whatever the host's cores, and runs
a 10 s example and a 2-entry 10 s build.
"""

import inspect
import threading
import types
from collections import Counter

import pytest

from rirshape import ShapingParams, Strategy, dsp, pipeline, synth_rir, write_rir, write_wav
from rirshape.pipeline import DatasetManifest, ManifestEntry, build_dataset, generate_example
from conftest import noise_like, speech_like

ROOTS = ("generate_example", "_process_entry")


def called_names(fn) -> set[str]:
    """Global and attribute names used in ``fn``, its comprehensions and lambdas."""
    names, codes = set(), [fn.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def pipeline_callees() -> set[str]:
    """``pipeline`` names of callables the roots reach through ``pipeline`` functions."""
    found, todo = set(), list(ROOTS)
    while todo:
        name = todo.pop()
        if name in found:
            continue
        found.add(name)
        fn = getattr(pipeline, name)
        if inspect.isfunction(fn) and fn.__module__ == pipeline.__name__:
            todo.extend(n for n in called_names(fn)
                        if callable(getattr(pipeline, n, None))
                        and not inspect.isclass(getattr(pipeline, n)))
    return found


@pytest.fixture
def recorded(monkeypatch):
    """Wrap every callee; return the list of (name, thread id) calls and the helper count."""
    calls, helpers = [], []

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for name in pipeline_callees():
        monkeypatch.setattr(pipeline, name, recorder(name, getattr(pipeline, name)))

    class CountingThread(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
    return calls, helpers


def test_callees_include_every_stage():
    assert {"read_wav", "read_rir", "synth_rir", "shape_rir", "convolve", "mix_at_snr",
            "pair_gains", "analyze", "band_energies", "ideal_gains", "estimate_rt60",
            "write_wav", "write_band_matrix_csv", "generate_example"} <= pipeline_callees()


def test_example_stages_run_on_the_main_thread(recorded):
    calls, helpers = recorded
    generate_example(speech_like(10.0, seed=1), noise_like(3.0, seed=2), synth_rir(1.0, seed=3),
                     ShapingParams(Strategy.ATTENUATED_DECAYED), 10.0, seed=4)
    assert helpers, "no long transform started a helper thread"
    assert {ident for _, ident in calls} == {threading.main_thread().ident}
    counts = Counter(name for name, _ in calls)
    assert counts["convolve"] == 1 and counts["analyze"] == 1


def test_build_stages_run_on_the_main_thread(tmp_path, recorded):
    write_wav(speech_like(10.0, seed=5), tmp_path / "speech.wav")
    write_wav(noise_like(3.0, seed=6), tmp_path / "noise.wav")
    write_rir(synth_rir(0.8, seed=7), tmp_path / "room.wav")
    entries = [
        ManifestEntry(speech=str(tmp_path / "speech.wav"), noise=str(tmp_path / "noise.wav"),
                      rir=str(tmp_path / "room.wav"), snr=5.0),
        ManifestEntry(speech=str(tmp_path / "speech.wav"), rir_rt60=1.0,
                      strategy=Strategy.NONE),
    ]
    calls, helpers = recorded
    summary = build_dataset(DatasetManifest(entries, seed=8), tmp_path / "out", workers=1)
    assert summary.n_ok == 2
    assert helpers, "no long transform started a helper thread"
    assert {ident for _, ident in calls} == {threading.main_thread().ident}
    counts = Counter(name for name, _ in calls)
    assert counts["_process_entry"] == counts["convolve"] == counts["analyze"] == 2
