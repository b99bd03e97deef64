"""`scipy.signal` is the largest cost of a fresh interpreter's start-up, and
no library call imports it: `audio.resample` between differing rates loads
only its compiled polyphase kernel, `scipy.signal._upfirdn_apply`. No
library call leaves a thread running: a long resample joins the worker
thread it starts. No command on a long WAV file holds a whole clip. Each
check runs in a fresh interpreter, because this suite's own process has
long loaded the one and may have started the other, and its peak RSS
counts only what the check itself needs."""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from yingram import sine_tone
from conftest import write_stored, write_wav

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
    # usable (tests/test_audio.py), and joins its worker before it returns
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


# the peak RSS of a fresh interpreter in MiB: VmHWM, the high-water mark of
# its own address space. Not ru_maxrss: a child that subprocess starts with
# vfork keeps its parent's peak through exec, and this suite's process peaks
# above a child's, so a rise of 100 MiB in a child once read 0
PEAK = """
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
"""
# peak RSS over the loaded input's of one resample of 60 s from 48 kHz to
# 22.05 kHz; the output alone holds 10.1 MiB
RSS_SCRIPT = PEAK + """
import os
os.sched_getaffinity = lambda pid: set(range({cores}))
import numpy as np
from yingram import Waveform, resample
w = Waveform(np.random.default_rng(0).standard_normal(60 * 48000), 48000)
before = peak()
y = resample(w, 22050)
print(peak() - before)
"""
RSS_BOUND_MIB = 24.0


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("cores", [1, 2], ids=["one core", "two cores"])
def test_a_long_resample_raises_the_peak_by_little_more_than_its_output(cores):
    # measured on a 2-core VM, in parts: 11.2-11.7 MiB on one core, 11.6-12.8
    # on two; through scipy.signal's resample_poly, 58.6 and 69.5 MiB
    assert float(_fresh(RSS_SCRIPT.format(cores=cores))) <= RSS_BOUND_MIB


# peak RSS over `import yingram.cli`'s of a command on a WAV file
CLI_RSS_SCRIPT = PEAK + """
from yingram import cli
before = peak()
assert cli.main({argv!r}) == 0
print(peak() - before)
"""
# per command, MiB. Measured on a 2-core VM, 100 fresh runs each: analyze
# +10.5-12.0; compare-shift of the clip against itself +23.9-25.6 and a
# one-entry batch of it +23.8-25.9, against 67.4-68.7 with both clips
# decoded whole. Over analyze's, a pair holds scoring arrays that grow with
# the clip, such as `shift_consistency_metric`'s float64 copies of the two
# matrices
CLI_RSS_BOUNDS_MIB = {"analyze": 16.0, "compare-shift": 32.0, "batch": 32.0}


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc/self/status")
@pytest.mark.parametrize("command", CLI_RSS_BOUNDS_MIB)
def test_analyze_of_a_long_wav_holds_no_whole_clip(tmp_path, command):
    # 60 s of 48 kHz stereo 24-bit: the decoded clip alone is 22 MiB of
    # float64, and resampled 10.1 MiB. `compare-shift` and `batch` score the
    # clip against itself, streamed from the file as `analyze` reads it
    t = np.arange(60 * 48000) / 48000
    mono = np.round(0.5 * np.sin(2 * np.pi * 220.0 * t) * (2**23 - 1))
    write_stored(tmp_path / "long.wav", np.stack([mono, np.round(0.8 * mono)], axis=1), 48000, "s24")
    del t, mono
    wav = str(tmp_path / "long.wav")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"normal": wav, "shifted": wav, "scope_shift": 0}]))
    out = str(tmp_path / "out")
    argv = {"analyze": ["analyze", wav, "--out", out + ".csv", "--binary", out + ".f32"],
            "compare-shift": ["compare-shift", wav, wav, "--scope-shift", "0", "--out", out + ".json"],
            "batch": ["batch", str(manifest), "--out-json", out + ".json"]}[command]
    assert float(_fresh(CLI_RSS_SCRIPT.format(argv=argv))) <= CLI_RSS_BOUNDS_MIB[command]


# minor page faults of a warm pass over a WAV file, per pass
FAULTS_SCRIPT = """
import resource
from yingram import AnalysisConfig, audio, feature
if {unprimed}:
    feature._raise_mmap_threshold = lambda: None
def run():
    with audio._WavFile({wav!r}) as wav:
        feature._analyse(wav, AnalysisConfig())
run(), run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    run()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize("rate", [22050, 48000])
def test_a_warm_pass_faults_no_pages_back_in(tmp_path, rate):
    # a block's temporaries stay in the heap once `_raise_mmap_threshold` has
    # run: measured on a 2-core VM over 30 fresh runs, 0-86 faults a pass of
    # 10 s (the worker thread's arena varies), and, without it, 1556-2894,
    # as each block mapped its temporaries afresh
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 10.0, sample_rate=rate))
    faults = {unprimed: float(_fresh(FAULTS_SCRIPT.format(wav=str(wav), unprimed=unprimed)))
              for unprimed in (False, True)}
    assert faults[False] <= 400 < faults[True], faults


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
