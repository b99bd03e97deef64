"""`scipy.signal` is the largest cost of a fresh interpreter's start-up, and
no library call imports it: `audio.resample` between differing rates loads
only its compiled polyphase kernel, `scipy.signal._upfirdn_apply`. No
library call leaves a thread running: a long resample joins the threads it
starts. Each check runs in a fresh interpreter, because this suite's own
process has long loaded the one and may have started the other."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from yingram import sine_tone
from conftest import write_wav

SRC = Path(__file__).resolve().parents[1] / "src"

# run each step, an expression that must hold, and print whether scipy.signal
# and its kernel are loaded and how many threads are alive
SCRIPT = """
import sys, threading
import yingram
def state(step):
    print(step, "scipy.signal" in sys.modules, "scipy.signal._upfirdn_apply" in sys.modules,
          threading.active_count())
state("import")
from yingram import cli, pitch_shifted_copy, sine_tone
for step, check in {steps!r}:
    assert eval(check), step
    state(step)
"""


def _cli(step: str, argv: list[str]) -> tuple[str, str]:
    return step, f"cli.main({argv!r}) == 0"


def _fresh(script: str) -> str:
    """stdout of `script` in a fresh interpreter that imports yingram from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_steps(steps: list[tuple[str, str]]) -> dict[str, tuple[bool, bool, int]]:
    """Per step (and "import"): whether scipy.signal and its kernel are
    loaded after it, and the threads alive."""
    names = {"import", *(step for step, _ in steps)}
    lines = [line.rsplit(" ", 3) for line in _fresh(SCRIPT.format(steps=steps)).splitlines()]
    return {step: (signal == "True", kernel == "True", int(threads))
            for step, signal, kernel, threads in lines if step in names}


def test_nothing_that_does_not_resample_loads_scipy_signal(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 0.5, sample_rate=22050))
    loaded = {step: (signal, kernel) for step, (signal, kernel, _) in _run_steps([
        _cli("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")]),
        _cli("gradcheck", ["gradcheck", "--frames", "2", "--out", str(tmp_path / "g.json")]),
        # a shift of 0 semitones keeps the rate, so nothing is resampled
        ("shift 0", "len(pitch_shifted_copy(sine_tone(220.0, 0.05), 0.0)) == 1102"),
    ]).items()}
    nothing = (False, False)
    assert loaded == {"import": nothing, "analyze": nothing, "gradcheck": nothing, "shift 0": nothing}


def test_a_clip_at_another_rate_loads_the_kernel_but_not_scipy_signal(tmp_path):
    # the gate above is not vacuous: the same analyze resamples, and loads
    # the one module of scipy.signal that resampling runs
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 0.5, sample_rate=44100))
    states = _run_steps([_cli("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")])])
    assert states == {"import": (False, False, 1), "analyze": (False, True, 1)}


def test_short_clips_and_gradients_start_no_thread(tmp_path):
    # a long resample runs its parts on two threads where two cores are
    # usable (tests/test_audio.py), and joins them before it returns
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 1.0, sample_rate=22050))  # 87 frames: one block
    threads = {step: count for step, (_, _, count) in _run_steps([
        _cli("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")]),
        _cli("gradcheck", ["gradcheck", "--frames", "2", "--out", str(tmp_path / "g.json")]),
        ("long resample", "len(pitch_shifted_copy(sine_tone(220.0, 10.0), 12.0)) == 110250"),
    ]).items()}
    assert threads == {"import": 1, "analyze": 1, "gradcheck": 1, "long resample": 1}


# `first` is the process's first resample, of n samples from 48 kHz to
# 22.05 kHz with two usable cores; scipy.signal is imported before or after
# it, and the kernel it loaded must be the one `_upfirdn_kernel` returns
ORDER_SCRIPT = """
import os, sys, threading
os.sched_getaffinity = lambda pid: {{0, 1}}
import numpy as np
from yingram import Waveform, audio, resample
x = np.random.default_rng(0).standard_normal({n})
if {signal_first}:
    import scipy.signal
first = resample(Waveform(x, 48000), 22050).samples
kernel = sys.modules["scipy.signal._upfirdn_apply"]
assert threading.active_count() == 1
if not {signal_first}:
    assert "scipy.signal" not in sys.modules
    import scipy.signal
import scipy.signal._upfirdn
assert audio._upfirdn_kernel() is kernel and scipy.signal._upfirdn._apply is kernel._apply
fir = scipy.signal.firwin(64 * 320 + 1, 1.0 / 320, window=("kaiser", 8.6))
expected = scipy.signal.resample_poly(x, 147, 320, window=fir)[: len(first)]
again = resample(Waveform(x, 48000), 22050).samples
print(first.tobytes() == expected.tobytes() == again.tobytes())
"""


@pytest.mark.parametrize("n", [48000, 2**18 + 5], ids=["short", "long split"])
@pytest.mark.parametrize("signal_first", [False, True], ids=["resample first", "scipy.signal first"])
def test_the_kernel_and_scipy_signal_load_in_either_order_to_the_same_bits(n, signal_first):
    assert _fresh(ORDER_SCRIPT.format(n=n, signal_first=signal_first)).split() == ["True"]


# peak RSS over the loaded input's of one resample of 60 s from 48 kHz to
# 22.05 kHz; the output alone holds 10.1 MiB
RSS_SCRIPT = """
import os, resource
os.sched_getaffinity = lambda pid: set(range({cores}))
import numpy as np
from yingram import Waveform, resample
w = Waveform(np.random.default_rng(0).standard_normal(60 * 48000), 48000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
y = resample(w, 22050)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""
RSS_BOUND_MIB = 24.0


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("cores", [1, 2], ids=["one call", "split"])
def test_a_long_resample_raises_the_peak_by_little_more_than_its_output(cores):
    # measured on a 2-core VM: 11.1 MiB in one call, 12.3-12.9 MiB split;
    # through scipy.signal's resample_poly, 58.6 and 69.5 MiB
    assert float(_fresh(RSS_SCRIPT.format(cores=cores))) <= RSS_BOUND_MIB


# no file of the kernel found: the usual import, scipy.signal and all
FALLBACK_SCRIPT = """
import importlib.machinery, sys
importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing"]
import numpy as np
from yingram import Waveform, resample
x = np.random.default_rng(0).standard_normal(48000)
first = resample(Waveform(x, 48000), 22050).samples
print("scipy.signal" in sys.modules)
import scipy.signal
fir = scipy.signal.firwin(64 * 320 + 1, 1.0 / 320, window=("kaiser", 8.6))
print(first.tobytes() == scipy.signal.resample_poly(x, 147, 320, window=fir).tobytes())
"""


def test_without_the_kernel_file_resampling_imports_scipy_signal_to_the_same_bits():
    assert _fresh(FALLBACK_SCRIPT).split() == ["True", "True"]
