import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rirshape
from rirshape import Signal

FS = 48000
GLIBC = platform.libc_ver()[0] == "glibc"


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


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter that imports this rirshape; return stdout."""
    src = str(Path(rirshape.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout
