"""`scipy.signal` is the largest cost of a fresh interpreter's start-up, and
only `audio.resample` between differing rates uses it. Each check runs in a
fresh interpreter, because this suite's own process has long loaded it."""
import os
import subprocess
import sys
from pathlib import Path

from yingram import sine_tone
from conftest import write_wav

SRC = Path(__file__).resolve().parents[1] / "src"

# after each step, print whether scipy.signal is loaded
SCRIPT = """
import sys
import yingram
print("import", "scipy.signal" in sys.modules)
from yingram import cli
for step, argv in {steps!r}:
    assert cli.main(argv) == 0, step
    print(step, "scipy.signal" in sys.modules)
"""


def _loaded_after(steps: list[tuple[str, list[str]]]) -> dict[str, bool]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(steps=steps)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line.rsplit(" ", 1) for line in done.stdout.splitlines() if line.endswith(("True", "False"))]
    return {step: loaded == "True" for step, loaded in lines}


def test_nothing_that_does_not_resample_loads_scipy_signal(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 0.5, sample_rate=22050))
    loaded = _loaded_after([
        ("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")]),
        ("gradcheck", ["gradcheck", "--frames", "2", "--out", str(tmp_path / "g.json")]),
    ])
    assert loaded == {"import": False, "analyze": False, "gradcheck": False}


def test_a_clip_at_another_rate_loads_scipy_signal(tmp_path):
    # the gate above is not vacuous: the same analyze resamples and loads it
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine_tone(220.0, 0.5, sample_rate=44100))
    loaded = _loaded_after([("analyze", ["analyze", str(wav), "--out", str(tmp_path / "y.csv")])])
    assert loaded == {"import": False, "analyze": True}
