"""`scipy.signal` is the largest cost of a fresh interpreter's start-up, and
only `audio.resample` between differing rates uses it. No library call
leaves a thread running: a long resample joins the threads it starts.
Each check runs in a fresh interpreter, because this suite's own process
has long loaded the one and may have started the other."""
import os
import subprocess
import sys
from pathlib import Path

from yingram import sine_tone
from conftest import write_wav

SRC = Path(__file__).resolve().parents[1] / "src"

# run each step, an expression that must hold, and print whether scipy.signal
# is loaded and how many threads are alive
SCRIPT = """
import sys, threading
import yingram
print("import", "scipy.signal" in sys.modules, threading.active_count())
from yingram import cli, pitch_shifted_copy, sine_tone
for step, check in {steps!r}:
    assert eval(check), step
    print(step, "scipy.signal" in sys.modules, threading.active_count())
"""


def _cli(step: str, argv: list[str]) -> tuple[str, str]:
    return step, f"cli.main({argv!r}) == 0"


def _run_steps(steps: list[tuple[str, str]]) -> dict[str, tuple[bool, int]]:
    """Per step (and "import"): whether scipy.signal is loaded after it, and
    the threads alive."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(steps=steps)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = {"import", *(step for step, _ in steps)}
    lines = [line.rsplit(" ", 2) for line in done.stdout.splitlines()]
    return {step: (loaded == "True", int(threads)) for step, loaded, threads in lines if step in names}


def _loaded_after(steps: list[tuple[str, str]]) -> dict[str, bool]:
    return {step: loaded for step, (loaded, _) in _run_steps(steps).items()}


def test_nothing_that_does_not_resample_loads_scipy_signal(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 0.5, sample_rate=22050))
    loaded = _loaded_after([
        _cli("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")]),
        _cli("gradcheck", ["gradcheck", "--frames", "2", "--out", str(tmp_path / "g.json")]),
        # a shift of 0 semitones keeps the rate, so nothing is resampled
        ("shift 0", "len(pitch_shifted_copy(sine_tone(220.0, 0.05), 0.0)) == 1102"),
    ])
    assert loaded == {"import": False, "analyze": False, "gradcheck": False, "shift 0": False}


def test_a_clip_at_another_rate_loads_scipy_signal(tmp_path):
    # the gate above is not vacuous: the same analyze resamples and loads it
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 0.5, sample_rate=44100))
    loaded = _loaded_after([_cli("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")])])
    assert loaded == {"import": False, "analyze": True}


def test_short_clips_and_gradients_start_no_thread(tmp_path):
    # a long resample runs its two parts on two threads where two cores are
    # usable (tests/test_audio.py), and joins them before it returns
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 1.0, sample_rate=22050))  # 87 frames: one block
    threads = {step: count for step, (_, count) in _run_steps([
        _cli("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")]),
        _cli("gradcheck", ["gradcheck", "--frames", "2", "--out", str(tmp_path / "g.json")]),
        ("long resample", "len(pitch_shifted_copy(sine_tone(220.0, 10.0), 12.0)) == 110250"),
    ]).items()}
    assert threads == {"import": 1, "analyze": 1, "gradcheck": 1, "long resample": 1}
