"""WAV ingestion, band-limited resampling and analysis framing."""
from __future__ import annotations

import contextvars
import importlib
import importlib.machinery
import importlib.util
import os
import struct
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import _require_int, _require_real_dtype

__all__ = [
    "Waveform",
    "Frame",
    "WavFormatError",
    "load_wav",
    "resample",
    "frame_count",
    "frame_signal",
]

# Kaiser-windowed sinc resampler: 32 zero crossings per side = 64 taps per
# polyphase branch. beta=8.6 puts the stopband around -90 dB, which keeps
# aliasing well below the CMND noise floor. `_kaiser_sinc` builds the filter
# from its symmetric half and equals scipy.signal.firwin's bit for bit.
_SINC_HALF_WIDTH = 32
_KAISER_BETA = 8.6
# Largest polyphase factor: the filter holds 64 * max(up, down) + 1 taps, so
# this caps it at 2097153 (16 MB). It keeps exact every conversion between
# common rates (8 to 192 kHz) and every scope-shift copy at 22.05 kHz
# (`pitch_shifted_copy` by -s/2 semitones, |s| <= 15; s = 12 needs
# 31183/22050). Other pairs resample at the nearest ratio within the cap.
_MAX_POLYPHASE = 1 << 15
# Inputs of at least this many samples resample in parts of at most this many
# (plus margins), at least two, on two threads (`_resample_poly`); shorter
# ones, in one call, gain less than a thread costs.
_SPLIT_SAMPLES = 1 << 17
# scipy's compiled polyphase loop, the one part of scipy.signal resampling runs
_UPFIRDN = "scipy.signal._upfirdn_apply"
# (format tag, bits) -> (the type a sample is viewed as, full scale)
_STORED_TYPES = {(1, 16): ("<i2", 2.0**15), (1, 24): ("<i4", 2.0**23), (3, 32): ("<f4", 1.0)}
# Stored samples `load_wav` reads and decodes at a time (rounded down to
# whole frames, at least one frame): the one block it holds besides the clip
_BLOCK_SAMPLES = 1 << 14


class WavFormatError(ValueError):
    """Raised for WAV files we cannot or refuse to decode."""


def _require_mono(samples) -> None:
    """The sample rules of `Waveform` and `Frame`: samples form one 1-D
    channel of real values."""
    if np.ndim(samples) != 1:
        raise ValueError(f"samples must be 1-D (mono), got shape {np.shape(samples)}")
    _require_real_dtype(samples, "samples")


@dataclass(frozen=True)
class Waveform:
    """Mono sample buffer at a known rate.

    Samples are 1-D float64 with nominal range [-1, 1]; sample_rate is in Hz.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", _require_int(self.sample_rate, "sample_rate", 1))
        _require_mono(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class Frame:
    """One analysis window cut from a waveform: 1-D samples, as `Waveform`.

    Frames past end-of-signal are zero padded and flagged, so the frame count
    is deterministic from the hop alone. start_index (at least 0) and
    sample_rate (at least 1) are integers.
    """

    samples: np.ndarray
    start_index: int
    sample_rate: int
    padded: bool = False

    def __post_init__(self):
        object.__setattr__(self, "start_index", _require_int(self.start_index, "start_index", 0))
        object.__setattr__(self, "sample_rate", _require_int(self.sample_rate, "sample_rate", 1))
        _require_mono(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def _decode_fmt(chunk: bytes) -> tuple[int, int, int, int]:
    if len(chunk) < 16:
        raise WavFormatError("corrupt file: fmt chunk too short")
    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack(
        "<HHIIHH", chunk[:16]
    )
    if audio_format == 0xFFFE:
        # WAVE_FORMAT_EXTENSIBLE: the real format tag leads the SubFormat GUID
        if len(chunk) < 40:
            raise WavFormatError("corrupt file: extensible fmt chunk too short")
        audio_format = struct.unpack("<H", chunk[24:26])[0]
    return audio_format, n_channels, sample_rate, bits


@np.errstate(invalid="ignore")  # inf + -inf channels: load_wav's finite check names them
def _decode_samples(
    buf: bytearray, audio_format: int, bits: int, n_channels: int, out: np.ndarray
) -> None:
    """Decode the first len(out) frames of buf into out, one mono float64
    sample per frame, by one rule for every format: view the samples as
    their stored type, sum each frame's channels in float64, and divide
    once by full scale x channel count. Integer samples and their sums are
    exact and full scale is a power of two, so this rounds once, as the mean
    of the scaled channels does. Integer channels add column by column, in
    any order the same sum; float32 channels add in the mean's order, by
    `sum`, whose -0.0 + -0.0 reads +0.0 where a column add keeps -0.0.
    24-bit samples start at buf[1]: word i, read with a 3-byte stride, holds
    the byte before sample i and the sample in its top three bytes, and
    shifting right by 8 brings its sign back."""
    stored, full_scale = _STORED_TYPES[audio_format, bits]
    count = len(out) * n_channels
    if bits == 24:
        words = np.ndarray(count, stored, buf, 0, (3,)) >> 8
    else:
        words = np.frombuffer(buf, stored, count)
    frames = words.reshape(-1, n_channels)
    if n_channels == 1:
        out[:] = frames[:, 0]  # a one-term sum would turn -0.0 into +0.0
    elif audio_format == 3:
        frames.sum(1, np.float64, out=out)
    else:  # a row-wise sum over a few strided columns is about 6x slower
        np.add(frames[:, 0], frames[:, 1], out=out, dtype=np.float64)
        for channel in range(2, n_channels):
            out += frames[:, channel]
    out /= full_scale * n_channels


def _read_samples(fh, size: int, audio_format: int, bits: int, n_channels: int) -> np.ndarray:
    """Mono float64 samples of the data chunk of `size` bytes at fh's
    position, read _BLOCK_SAMPLES samples at a time into one reused buffer
    and decoded straight into the clip. A trailing partial frame is dropped;
    a short read raises the chunk walk's "truncated" message."""
    if (audio_format, bits) not in _STORED_TYPES:
        raise WavFormatError(f"unsupported format: audio format tag {audio_format} at {bits} bits")
    frame_bytes, lead = n_channels * (bits // 8), int(bits == 24)
    block = max(1, _BLOCK_SAMPLES // n_channels)  # frames
    buf = bytearray(lead + block * frame_bytes)
    samples = np.empty(size // frame_bytes)
    for start in range(0, len(samples), block):
        out = samples[start : start + block]
        view = memoryview(buf)[lead : lead + len(out) * frame_bytes]
        if fh.readinto(view) < len(view):  # the file shrank after the chunk walk
            raise WavFormatError("corrupt file: truncated b'data' chunk")
        _decode_samples(buf, audio_format, bits, n_channels, out)
        if not np.isfinite(out).all():
            raise WavFormatError("corrupt file: non-finite samples")
    return samples


def load_wav(path: str | os.PathLike) -> Waveform:
    """Load a RIFF/WAVE file as a mono Waveform.

    Supports PCM 16-bit, PCM 24-bit and IEEE float 32-bit, any channel
    count. Multi-channel audio is averaged to mono; integer PCM is scaled
    to [-1, 1]. The data chunk is read in blocks, so beyond the returned
    clip (8 B per frame) only one block is held.

    Raises:
        WavFormatError: "unsupported format" for codecs outside the list
            above, "corrupt file" for truncated or malformed chunks.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12:
            raise WavFormatError("corrupt file: shorter than a RIFF header")
        if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise WavFormatError("unsupported format: not a RIFF/WAVE file")

        fmt = None
        data = None  # (offset, size) of the data chunk's body
        pos = 12
        while pos + 8 <= file_size:
            fh.seek(pos)
            cid, size = struct.unpack("<4sI", fh.read(8))
            if pos + 8 + size > file_size:
                raise WavFormatError(f"corrupt file: truncated {cid!r} chunk")
            if cid == b"fmt ":
                fmt = _decode_fmt(fh.read(size))
            elif cid == b"data":
                data = pos + 8, size
            pos += 8 + size + (size & 1)  # chunks are word aligned

        if fmt is None or data is None:
            raise WavFormatError("corrupt file: missing fmt or data chunk")

        audio_format, n_channels, sample_rate, bits = fmt
        if n_channels < 1:
            raise WavFormatError("corrupt file: zero channels")
        fh.seek(data[0])
        return Waveform(_read_samples(fh, data[1], audio_format, bits, n_channels), sample_rate)


def _polyphase_factors(source_sr: int, target_sr: int) -> tuple[int, int]:
    """(up, down): target_sr / source_sr in lowest terms, or, when a term
    exceeds _MAX_POLYPHASE, the nearest ratio whose terms do not. That
    ratio is off by less than 2 / _MAX_POLYPHASE (about 0.1 cent of pitch).

    Raises:
        ValueError: the rates differ by more than a factor _MAX_POLYPHASE.
    """
    ratio = Fraction(target_sr, source_sr)
    if max(ratio.numerator, ratio.denominator) > _MAX_POLYPHASE:
        small = min(ratio, 1 / ratio)
        if small < Fraction(1, _MAX_POLYPHASE):
            raise ValueError(
                f"unsupported resampling ratio: {source_sr} Hz to {target_sr} Hz "
                f"differ by more than a factor {_MAX_POLYPHASE}"
            )
        small = small.limit_denominator(_MAX_POLYPHASE)
        ratio = small if ratio < 1 else 1 / small
    return ratio.numerator, ratio.denominator


def _kaiser_sinc(max_rate: int) -> np.ndarray:
    """The resampler's low-pass filter: the 64 * max_rate + 1 taps of
    firwin(numtaps, 1 / max_rate, window=("kaiser", _KAISER_BETA)), equal
    bit for bit. The filter is symmetric, so the sinc and the window are
    evaluated on taps 0..32 * max_rate only, mirrored, and divided by the
    sum over the full filter; each step keeps firwin's order of operations.
    firwin's other passes change no bit, so they are left out: it adds the
    taps to 0 (no tap is zero) and subtracts 0 * sinc(0 * m) for the zero
    band edge, and it weighs the taps by cos(0) = 1 before their sum."""
    import scipy.special  # loaded with scipy.fft already; costs no start-up

    half = _SINC_HALF_WIDTH * max_rate
    m = np.arange(0, half + 1, dtype=np.float64) - half  # tap offsets -half..0
    cutoff = 1.0 / max_rate
    h = cutoff * np.sinc(cutoff * m)
    window = scipy.special.i0(_KAISER_BETA * np.sqrt(1 - (m / half) ** 2.0))
    h *= window / scipy.special.i0(_KAISER_BETA)
    h = np.concatenate((h, h[-2::-1]))
    h /= np.sum(h)
    return h


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, where the platform
    reports one, else the core count.

    `_resample_poly` splits only with two of them. Fresh processes resampled
    60 s of 48 kHz noise to 22.05 kHz, best of 9, in 5 alternating rounds on
    a 2-core VM. Pinned to one core, one call took 108-141 ms at a peak RSS
    of 88.7-89.0 MiB, and a forced split 113-126 ms at 92.5-94.0 MiB; on two
    cores the split took 58-66 ms at 91.2-91.7 MiB. On one core the split
    gains nothing and holds 3-5 MiB more."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _upfirdn_kernel():
    """The module `_UPFIRDN`. `import scipy.signal` loads about 450 modules,
    scipy.stats among them: in a fresh interpreter it took about 0.5 s and
    48 MiB, where this extension alone takes 0.5 ms and no measurable RSS.
    So, unless something has loaded it, it is loaded from its file in
    scipy's signal/ folder under its own name and registered in sys.modules,
    where a later `import scipy.signal` finds it and reuses it. Only where no
    such file exists is it imported the usual way, package and all."""
    if _UPFIRDN in sys.modules:
        return sys.modules[_UPFIRDN]
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_upfirdn_apply" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(_UPFIRDN, path)
            kernel = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(kernel)
            sys.modules[_UPFIRDN] = kernel
            return kernel
    return importlib.import_module(_UPFIRDN)


def _polyphase_filter(kernel, fir: np.ndarray, up: int, down: int, n_in: int) -> tuple:
    """(kernel, taps, skip, h) for `_resample_part`: what
    scipy.signal.resample_poly(x, up, down, window=fir) builds around the
    kernel for len(x) == n_in. fir * up, zero padded in front so the outputs
    sit at the filter's centre (and behind, as long as the kernel's output
    would fall short), holds `taps` taps; `skip` outputs lead the kept ones;
    h is upfirdn's `_pad_h` of the taps, each phase's taps flipped, one
    phase after another."""
    half_len = (len(fir) - 1) // 2
    pre_pad, post_pad = down - half_len % down, 0
    skip = (half_len + pre_pad) // down
    n_out = -(-n_in * up // down)
    while kernel._output_len(len(fir) + pre_pad + post_pad, n_in, up, down) < n_out + skip:
        post_pad += 1
    taps = pre_pad + len(fir) + post_pad
    h = np.zeros(taps + -taps % up)
    h[pre_pad : pre_pad + len(fir)] = fir * up
    return kernel, taps, skip, np.ascontiguousarray(h.reshape(-1, up).T[:, ::-1].ravel())


def _resample_part(x: np.ndarray, up: int, down: int, poly: tuple) -> np.ndarray:
    """scipy.signal.resample_poly(x, up, down, window=fir), bit for bit, for
    poly = `_polyphase_filter(kernel, fir, up, down, n)`: the kernel's
    constant-mode loop over x as float64, the dtype resample_poly computes in
    with a float64 fir, less the outputs resample_poly drops. The parts of a
    split share the whole input's poly: `_kaiser_sinc` filters need no
    padding behind at any length."""
    kernel, taps, skip, h = poly
    out = np.zeros(kernel._output_len(taps, len(x), up, down))
    kernel._apply(np.asarray(x, np.float64), h, out, up, down, 0, kernel.mode_enum("constant"), 0.0)
    return out[skip : skip + -(-len(x) * up // down)]


def _resample_poly(x: np.ndarray, up: int, down: int, fir: np.ndarray) -> np.ndarray:
    """scipy.signal.resample_poly(x, up, down, window=fir), bit for bit,
    through scipy's compiled kernel (`_upfirdn_kernel`), never importing
    scipy.signal. A long x (at least _SPLIT_SAMPLES samples, with two usable
    cores) runs as overlapping parts on two threads that the call joins
    before it returns or raises.

    The parts meet at multiples of down, `step` input samples apart, at most
    _SPLIT_SAMPLES where down allows, and each reaches `margin` samples past
    its ends: at least len(fir) / up, the inputs one output reads, rounded up
    to a multiple of down. Each upfirdn output sums its taps times its inputs
    in input order, and the taps an input meets depend only on its offset
    from the output's position, so when a part starts at a multiple of down
    its outputs are those of the whole call: part [a, a + step) gives outputs
    a * up / down up to (a + step) * up / down. At most three parts are in
    flight; each is copied into the one output in input order and dropped.
    Each part runs in a copy of the caller's context, so numpy's errstate
    holds in it, and the first part's error wins, as in a serial loop. The
    calling thread runs no part and resolves the kernel before any part
    starts. Resampling 60 s of 48 kHz noise to 22.05 kHz in a fresh process
    raised the peak RSS over the input's by 12.3-12.9 MiB split and 11.1 MiB
    in one call, of which the output holds 10.1 MiB; through scipy.signal's
    resample_poly, by 69.5 and 58.6 MiB (2-core VM).
    """
    poly = _polyphase_filter(_upfirdn_kernel(), fir, up, down, len(x))
    margin = -(-len(fir) // up)
    margin = -(-margin // down) * down
    n = len(x)
    parts = max(2, -(-n // max(down, _SPLIT_SAMPLES // down * down)))
    step = -(-n // (parts * down)) * down
    if n < _SPLIT_SAMPLES or _usable_cores() < 2 or not margin <= step < n:
        return _resample_part(x, up, down, poly)
    y = np.empty(-(-n * up // down))

    def copy(a: int, future) -> None:
        first = max(a - margin, 0) * up // down  # the output the part starts at
        stop = min((a + step) * up // down, len(y))
        y[a * up // down : stop] = future.result()[a * up // down - first : stop - first]

    with ThreadPoolExecutor(2) as pool:
        running = deque()
        for a in range(0, n, step):
            part = x[max(a - margin, 0) : a + step + margin]
            running.append((a, pool.submit(contextvars.copy_context().run, _resample_part,
                                           part, up, down, poly)))
            if len(running) > 2:
                copy(*running.popleft())
        while running:
            copy(*running.popleft())
    return y


def resample(w: Waveform, target_sr: int) -> Waveform:
    """Resample with a polyphase Kaiser-windowed sinc filter.

    Output length is round(len * target_sr / source_sr). When the rates
    already match, `w` itself is returned: its samples are not copied. The
    filter size is bounded (see `_polyphase_factors`), whatever rate a WAV
    header claims.

    Raises:
        ValueError: for a target rate that is not a positive integer, or
            rates more than a factor 32768 apart.
    """
    target_sr = _require_int(target_sr, "target_sr", 1)
    if target_sr == w.sample_rate:
        return w
    up, down = _polyphase_factors(w.sample_rate, target_sr)
    y = _resample_poly(np.asarray(w.samples), up, down, _kaiser_sinc(max(up, down)))

    n_out = int(np.floor(len(w.samples) * target_sr / w.sample_rate + 0.5))
    if len(y) < n_out:
        y = np.pad(y, (0, n_out - len(y)))
    return Waveform(y[:n_out], target_sr)


def frame_count(num_samples: int, frame_len: int, hop: int) -> int:
    """Number of frames `frame_signal` cuts from num_samples samples:
    ceil(num_samples / hop).

    Raises:
        ValueError: unless num_samples (at least 0), frame_len and hop (at least 1) are integers.
    """
    num_samples = _require_int(num_samples, "num_samples", 0)
    _require_int(frame_len, "frame_len", 1)
    return -(-num_samples // _require_int(hop, "hop", 1))


def _frame_span(x: np.ndarray, frame_len: int, hop: int, first: int, stop: int) -> tuple:
    """(span, padded) of frames first..stop-1 of x, first < stop: the samples
    they read, x[first*hop : (stop-1)*hop + frame_len], and their padded
    flags. The one framing rule: frame k starts at k*hop and is padded when
    it runs past the end of x, and x has `frame_count` frames. The span is a
    view of x, or, when it runs past the end, a copy with a zero-padded tail."""
    span = x[first * hop : (stop - 1) * hop + frame_len]
    tail = (stop - 1 - first) * hop + frame_len - len(span)
    # frame k runs past the end from k = ceil((len(x) - frame_len + 1) / hop) on,
    # found in Python ints: k * hop may not fit in int64
    padded = np.arange(first, stop) >= -(-(len(x) - frame_len + 1) // hop)
    return (np.concatenate((span, np.zeros(tail, x.dtype))) if tail > 0 else span), padded


def frame_signal(w: Waveform, frame_len: int, hop: int) -> list[Frame]:
    """Slice a waveform into hop-spaced frames of frame_len samples.

    Frame k starts at k*hop; the count is ceil(len/hop). Tail frames are
    zero padded and flagged `padded`. Frames are read-only views.
    """
    count = frame_count(len(w), frame_len, hop)
    # an empty clip still gets one frame's span, of which it keeps no frame
    span, padded = _frame_span(np.asarray(w.samples), frame_len, hop, 0, max(count, 1))
    frames = zip(sliding_window_view(span, frame_len)[::hop][:count], padded)
    return [Frame(f, k * hop, w.sample_rate, bool(p)) for k, (f, p) in enumerate(frames)]
