import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rirshape
from rirshape import Rir, Signal

FS = 48000
GLIBC = platform.libc_ver()[0] == "glibc"
HAS_MALLINFO2 = GLIBC and hasattr(ctypes.CDLL(None), "mallinfo2")


def speech_like(duration=0.4, seed=0, sample_rate=FS):
    """Broadband speech-stand-in: AM tones over a gentle noise floor.

    Every ERB band gets some energy, so band gains never hit the
    silence floor in tests that assume energetic frames.
    """
    rng = np.random.default_rng(seed)
    n = int(duration * sample_rate)
    t = np.arange(n) / sample_rate
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * 2.7 * t + rng.uniform(0, 2 * np.pi))
    tones = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
                for f in (210.0, 470.0, 1350.0, 3100.0))
    noise = rng.standard_normal(n)
    return Signal(0.08 * envelope * tones + 0.02 * noise, sample_rate)


def noise_like(duration=0.3, seed=1, sample_rate=FS):
    rng = np.random.default_rng(seed)
    n = int(duration * sample_rate)
    return Signal(0.05 * rng.standard_normal(n), sample_rate)


@pytest.fixture
def speech():
    return speech_like()


@pytest.fixture
def noise():
    return noise_like()


def envelope_rir(rt60, length=None, sample_rate=FS):
    """Deterministic exponential-envelope response (no noise, no reflections)."""
    if length is None:
        length = max(1.5 * rt60, rt60 + 0.3)
    t = np.arange(int(length * sample_rate)) / sample_rate
    return Rir(10.0 ** (-3.0 * t / rt60), sample_rate, 0)


def fresh_env() -> dict[str, str]:
    """This process's environment with this rirshape's source first on PYTHONPATH."""
    src = str(Path(rirshape.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter that imports this rirshape; return stdout."""
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(), capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


# preludes of fresh-process scripts: ``libc.mallinfo2()``, glibc's heap
# statistics; ``resident()``, the process's resident bytes; and the inputs
# of a 10 s example (``speech``, ``noise``, ``h0``, ``params``), with ``dsp``
# set to two transform threads whatever the host's cores
MALLINFO2 = """
import ctypes
class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]
libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes = ()
libc.mallinfo2.restype = Mallinfo2
"""
RESIDENT = """
def resident():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmRSS:"))
"""
EXAMPLE_10S = """
import numpy as np
from rirshape import ShapingParams, Signal, Strategy, dsp, synth_rir
from rirshape.pipeline import generate_example
dsp._usable_cores = lambda: 2
rng = np.random.default_rng(0)
speech = Signal(0.1 * rng.standard_normal(10 * 48000), 48000)
noise = Signal(0.05 * rng.standard_normal(4 * 48000), 48000)
h0 = synth_rir(1.0, seed=1)
params = ShapingParams(Strategy.ATTENUATED_DECAYED)
"""
