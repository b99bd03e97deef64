"""WAV ingestion, band-limited resampling and analysis framing."""
from __future__ import annotations

import contextvars
import importlib
import importlib.machinery
import importlib.util
import itertools
import os
import struct
import sys
import threading
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
# (plus margins), at least two (`_Resampling`), so that a streamed pass holds
# a few parts; shorter ones, in one call, gain less than a thread costs.
_SPLIT_SAMPLES = 1 << 17
# Parts `_Resampling` claims past the first one whose outputs it still holds,
# unless a read waits for them: the window of outputs a clip pass holds
_WINDOW_PARTS = 3
# scipy's compiled polyphase loop, the one part of scipy.signal resampling runs
_UPFIRDN = "scipy.signal._upfirdn_apply"
# (format tag, bits) -> (the type a sample is viewed as, full scale)
_STORED_TYPES = {(1, 16): ("<i2", 2.0**15), (1, 24): ("<i4", 2.0**23), (3, 32): ("<f4", 1.0)}
# Stored samples `_WavFile.read` reads and decodes at a time (rounded down to
# whole frames, at least one frame): the one block it holds besides its result
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


def _pread(fd: int, view: memoryview, offset: int) -> int:
    """Read into `view` from byte `offset` of the file `fd`, without moving
    (or reading) any file position; the count read, short only at the end
    of the file."""
    got = 0
    while got < len(view):
        n = os.preadv(fd, [view[got:]], offset + got)
        if n == 0:
            break
        got += n
    return got


class _WavFile:
    """An open RIFF/WAVE file whose chunks have been walked: its
    `sample_rate`, its whole frames (`len`), and `read`, which decodes any
    frame range of the data chunk. Reads go by offset (`_pread`), so threads
    may share the file. Leaving the context closes it.

    Raises WavFormatError as `load_wav` does, for the header on opening and
    for the samples on reading.
    """

    def __init__(self, path: str | os.PathLike):
        self._fh = fh = open(path, "rb")
        try:
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
            audio_format, n_channels, self.sample_rate, bits = fmt
            if n_channels < 1:
                raise WavFormatError("corrupt file: zero channels")
            if (audio_format, bits) not in _STORED_TYPES:
                raise WavFormatError(f"unsupported format: audio format tag {audio_format} at {bits} bits")
        except BaseException:
            fh.close()
            raise
        self._format = audio_format, bits, n_channels
        self._offset, self._frame_bytes = data[0], n_channels * (bits // 8)
        self._frames = data[1] // self._frame_bytes  # a trailing partial frame is dropped

    def __enter__(self) -> "_WavFile":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def __len__(self) -> int:
        return self._frames

    def read(self, first: int, stop: int) -> np.ndarray:
        """Mono float64 samples of frames first..stop-1, read _BLOCK_SAMPLES
        stored samples at a time into one reused buffer and decoded straight
        into the result (`_decode_samples`). A bad frame raises, the first
        in file order: "non-finite samples", or, for frames the file no
        longer holds (it shrank after the chunk walk), the chunk walk's
        "truncated" message."""
        audio_format, bits, n_channels = self._format
        frame_bytes, lead = self._frame_bytes, int(bits == 24)
        block = max(1, _BLOCK_SAMPLES // n_channels)  # frames
        samples = np.empty(stop - first)
        buf = bytearray(lead + min(block, len(samples)) * frame_bytes)
        for start in range(0, len(samples), block):
            out = samples[start : start + block]
            view = memoryview(buf)[lead : lead + len(out) * frame_bytes]
            whole = _pread(self._fh.fileno(), view, self._offset + (first + start) * frame_bytes) // frame_bytes
            _decode_samples(buf, audio_format, bits, n_channels, out[:whole])
            if not np.isfinite(out[:whole]).all():
                raise WavFormatError("corrupt file: non-finite samples")
            if whole < len(out):
                raise WavFormatError("corrupt file: truncated b'data' chunk")
        return samples

    def check(self, first: int, stop: int) -> None:
        """Decode frames first..stop-1, _SPLIT_SAMPLES at a time, for their errors alone."""
        for start in range(first, stop, _SPLIT_SAMPLES):
            self.read(start, min(start + _SPLIT_SAMPLES, stop))


def load_wav(path: str | os.PathLike) -> Waveform:
    """Load a RIFF/WAVE file as a mono Waveform: `_WavFile`'s read of the
    whole data chunk.

    Supports PCM 16-bit, PCM 24-bit and IEEE float 32-bit, any channel
    count. Multi-channel audio is averaged to mono; integer PCM is scaled
    to [-1, 1]. The data chunk is read in blocks, so beyond the returned
    clip (8 B per frame) only one block is held.

    Raises:
        WavFormatError: "unsupported format" for codecs outside the list
            above, "corrupt file" for truncated or malformed chunks.
    """
    with _WavFile(path) as wav:
        return Waveform(wav.read(0, len(wav)), wav.sample_rate)


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

    `_Resampling` starts its thread only with two of them. Fresh processes
    analysed 60 s of 48 kHz vibrato through `feature._analyse` (resampling
    it as they went), best of 7, in 3 alternating rounds on a 2-core VM.
    Pinned to one core, one part took 240-280 ms and parts on two threads
    240-259 ms; on two cores the parts took 133-144 ms. So one core splits
    the clip into parts too, which bounds its memory, but runs them all on
    the calling thread."""
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
    """(kernel, skip, h) for `_resample_part`: what
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
    return kernel, skip, np.ascontiguousarray(h.reshape(-1, up).T[:, ::-1].ravel())


def _resample_part(x: np.ndarray, up: int, down: int, poly: tuple, out: np.ndarray) -> np.ndarray:
    """scipy.signal.resample_poly(x, up, down, window=fir), bit for bit, for
    poly = `_polyphase_filter(kernel, fir, up, down, n)`, written into the
    zeros of `out`: `out` less the `skip` leading outputs resample_poly
    drops. The kernel's constant-mode loop runs over x as float64, the dtype
    resample_poly computes in with a float64 fir, and stops at the end of
    `out` or at its last output, whichever comes first; past that, `out`
    stays zero. The parts of one input share its poly: `_kaiser_sinc`
    filters need no padding behind at any length."""
    kernel, skip, h = poly
    kernel._apply(np.asarray(x, np.float64), h, out, up, down, 0, kernel.mode_enum("constant"), 0.0)
    return out[skip:]


class _Resampling:
    """`resample(source, target_sr)` in progress, for a Waveform or an open
    `_WavFile`, in parts that each decode their own inputs, margins
    included, and write their own outputs: scipy.signal.resample_poly(x, up,
    down, window=fir), bit for bit, through scipy's compiled kernel
    (`_upfirdn_kernel`), never importing scipy.signal. Inside the context,
    `clip[a:b]` returns outputs a..b-1 (`len(clip)` in all, `resample`'s
    length with its zero tail) once they are final: a view of one part's
    outputs, or a copy joining two. `release(stop)` drops the outputs of the
    done parts that end by `stop`, and `finish()` runs the parts left,
    dropping each, so a reader that releases as it goes holds a window of a
    few parts, whatever the clip's length. At the target rate, a Waveform is
    one part, a view of its samples, and a file has no parts: each read
    decodes its samples straight from it, after any that no read asked for.
    Entering starts the worker thread, leaving joins it.

    An input of at least _SPLIT_SAMPLES samples resamples in parts of at
    most that many own samples (or down), at least two; a shorter one in
    one. With two usable cores and two parts or more a worker thread starts:
    it, and the calling thread whenever a read would otherwise wait, claim
    the parts in input order, at most _WINDOW_PARTS past the first part not
    yet released unless a read waits for it. A part starts at a multiple of
    down and reads `margin` more samples on each side: len(fir) / up, the
    inputs one output reads, rounded up to a multiple of down. An upfirdn
    output sums its taps times its inputs in input order, and the taps an
    input meets depend only on its offset from the output, so such a part
    gives the whole call's outputs for its own samples. The thread runs in a
    copy of the caller's context, so numpy's errstate holds in it. A read
    raises the first failed part's error once every part before it is done,
    as a serial loop would, and no part is claimed after a failure. Errors
    come as if the whole file was decoded first: a decoding error, in file
    order, before the rate errors and before any other part's error, which
    is raised only once the file from that part on has decoded. The kernel
    is resolved on the calling thread first.

    Fresh processes on a 2-core VM: resampling 60 s of 48 kHz noise to
    22.05 kHz raised the peak RSS over the input's by 10.0-10.1 MiB in one
    part, of which the output holds 10.1 MiB (58.6 MiB through
    scipy.signal's resample_poly). An `analyze` of 60 s of 48 kHz stereo
    24-bit audio, streamed from the file, peaked 9.9-11.1 MiB over `import
    yingram.cli`, against 39.7 MiB when the decoded and the resampled clip
    were held whole; in 10 alternating pairs of the long_clips benchmark,
    its op costs read 1.03-1.04 times the whole-clip path's.
    """

    def __init__(self, source: Waveform | _WavFile, target_sr: int):
        if isinstance(source, _WavFile):
            self._decode, self._check = source.read, source.check
        else:  # cutting a Waveform's samples raises nothing to check for
            x = np.asarray(source.samples)
            self._decode = lambda first, stop: np.asarray(x[first:stop], np.float64)
            self._check = lambda first, stop: None
        self._n = n = len(source)
        self._cond, self._thread = threading.Condition(), None
        # parts claimed, the leading parts done, the leading parts released, the
        # others done, the outputs held, their non-finite counts, failed ones' errors
        self._claimed = self._done = self._released = 0
        self._finished, self._outputs, self._bad, self._failed = set(), {}, {}, {}
        self._wanted, self._closed = 0, False  # the parts a read waits for
        self._checked = 0  # at the target rate, a file's samples decoded so far
        try:  # the rate rules, once the file has decoded
            n_out = _resampled_length(source, target_sr)
        except ValueError:
            self._check(0, n)
            raise
        self._poly, self._margin, down = None, 0, 1
        if target_sr != source.sample_rate:
            self._up, self._down = up, down = _polyphase_factors(source.sample_rate, target_sr)
            fir = _kaiser_sinc(max(up, down))
            self._poly = _polyphase_filter(_upfirdn_kernel(), fir, up, down, n)
            margin = -(-len(fir) // up)
            self._margin = -(-margin // down) * down
        step = min(max(down, _SPLIT_SAMPLES // down * down), -(-n // (2 * down)) * down)
        split = self._poly is not None and n >= _SPLIT_SAMPLES and self._margin <= step < n
        # at the target rate, reads cut a Waveform's samples, or decode a file's straight
        self._direct = self._poly is None and isinstance(source, _WavFile)
        starts = range(0, n, step) if split else [0]
        # part i owns inputs edges[i]..edges[i+1]-1 and outputs bounds[i]..bounds[i+1]-1,
        # up to resample_poly's last output, `kept`: the tail past it stays zero
        self._edges = self._bounds = [*starts, n]
        self._kept = n
        if self._poly is not None:
            self._kept = kept = min(-(-n * up // down), n_out)
            self._bounds = [min(a * up // down, kept) for a in starts] + [n_out]

    def __enter__(self) -> "_Resampling":
        if len(self._bounds) > 2 and _usable_cores() >= 2:
            self._thread = threading.Thread(target=contextvars.copy_context().run,
                                            args=(self._work,), name="yingram-resample")
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()

    def __len__(self) -> int:
        return self._bounds[-1]

    def __getitem__(self, key: slice) -> np.ndarray:
        """Outputs key.start..key.stop-1, cut at the end, once final, none
        released; raises as `_wait`."""
        first, stop = key.start, min(key.stop, len(self))
        if self._direct:  # in file order, the samples before `first` too
            self._check(self._checked, first)
            self._checked = max(self._checked, stop)
            return self._decode(first, stop)
        self._wait(stop)
        pieces = []
        with self._cond:
            for part in range(self._released, len(self._bounds) - 1):
                lo, hi = self._bounds[part], self._bounds[part + 1]
                if lo >= stop:
                    break
                if hi > first:
                    pieces.append(self._outputs[part][max(first - lo, 0) : stop - lo])
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces or [np.zeros(0)])

    def release(self, stop: int) -> None:
        """Drop the outputs of the done parts that end at or before output `stop`."""
        with self._cond:
            while self._released < self._done and self._bounds[self._released + 1] <= stop:
                del self._outputs[self._released]
                self._released += 1
            self._cond.notify_all()

    def finish(self) -> tuple[int, int]:
        """Run the parts left, dropping each output once done; raises as
        `_wait`. Returns how many outputs of the whole clip are not finite,
        and the index of the first."""
        if self._direct:  # decoded samples are finite
            self._check(self._checked, self._n)
            return 0, 0
        for stop in self._bounds[self._released + 1 :]:
            self._wait(stop)
            self.release(stop)
        counts = self._bad.values()
        return sum(count for count, _ in counts), min((first for _, first in counts), default=0)

    def _wait(self, stop: int) -> None:
        """Return once the first `stop` outputs are final, at the clip's end once
        every part has run (a last one may own no outputs). Until then the
        calling thread runs the next part it may claim, or waits for the
        thread's. Raises the first failed part's error once the parts before
        it are done; one that is not a decoding error only once the inputs
        from that part on have decoded, so a decoding error there comes first."""
        need = len(self._bounds) - 1 if stop >= len(self) else int(np.searchsorted(self._bounds, stop))
        while True:
            with self._cond:
                if self._done >= need:
                    return
                if self._done in self._failed:
                    failed = self._done
                    break
                self._wanted = need
                part = self._claim()
                if part is None:
                    self._cond.wait()
                    continue
            self._run(part)
        if not isinstance(self._failed[failed], WavFormatError):
            self._check(max(self._edges[failed] - self._margin, 0), self._n)
        raise self._failed[failed]

    def _stopped(self) -> bool:
        """Whether no part is left to claim: each is, one has failed or the context is left."""
        return bool(self._failed) or self._closed or self._claimed == len(self._bounds) - 1

    def _claim(self) -> int | None:
        """The next part to run, with the lock held; None once `_stopped`, and
        while the part lies _WINDOW_PARTS past the first one held and no read
        waits for it."""
        part = self._claimed
        if self._stopped() or part >= max(self._released + _WINDOW_PARTS, self._wanted):
            return None
        self._claimed += 1
        return part

    def _work(self) -> None:
        """The worker thread: claim and run parts until `_stopped`."""
        while True:
            with self._cond:
                while (part := self._claim()) is None and not self._stopped():
                    self._cond.wait()
            if part is None:
                return
            self._run(part)

    def _run(self, part: int) -> None:
        """Decode and resample one part and publish its outputs, or keep its
        error for the reads."""
        first = max(self._edges[part] - self._margin, 0)
        stop = min(self._edges[part + 1] + self._margin, self._n)
        lo, hi = self._bounds[part], self._bounds[part + 1]
        try:
            y = self._decode(first, stop)
            if self._poly is not None:  # the outputs from `start` on, `skip` dropped ones before
                up, down, skip = self._up, self._down, self._poly[1]
                start = first * up // down
                out = np.zeros(skip + hi - start)
                _resample_part(y, up, down, self._poly, out[: skip + min(hi, self._kept) - start])
                y = out[skip + lo - start :]
            finite = np.isfinite(y)
            bad = None if finite.all() else (int(y.size - finite.sum()), lo + int(np.argmin(finite)))
        except BaseException as exc:  # re-raised on the calling thread by `_wait`
            with self._cond:
                self._failed[part] = exc
                self._cond.notify_all()
            return
        with self._cond:
            self._outputs[part] = y
            if bad:
                self._bad[part] = bad
            self._finished.add(part)
            while self._done in self._finished:
                self._done += 1
            self._cond.notify_all()


def _resampled_length(w: Waveform | _WavFile, target_sr: int) -> int:
    """len(resample(w, target_sr)), the one length rule: round(len *
    target_sr / source_sr). Raises ValueError as `load_wav` does for a
    source rate of 0, then as `resample` for rates a factor over _MAX_POLYPHASE apart."""
    _require_int(w.sample_rate, "sample_rate", 1)
    if target_sr != w.sample_rate:
        _polyphase_factors(w.sample_rate, target_sr)
    return int(np.floor(len(w) * target_sr / w.sample_rate + 0.5))


def resample(w: Waveform, target_sr: int) -> Waveform:
    """Resample with a polyphase Kaiser-windowed sinc filter (`_Resampling`).

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
    with _Resampling(w, target_sr) as clip:
        if len(clip._bounds) == 2:  # one part: its outputs, with no copy
            return Waveform(clip[0 : len(clip)], target_sr)
        samples = np.empty(len(clip))
        for lo, hi in itertools.pairwise(clip._bounds):
            samples[lo:hi] = clip[lo:hi]
            clip.release(hi)
        return Waveform(samples, target_sr)


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
    it runs past the end of x, and x has `frame_count` frames. x is an array
    or a `_Resampling`; the span is what slicing x gives, or, when it runs
    past the end, a copy with a zero-padded tail."""
    span = x[first * hop : (stop - 1) * hop + frame_len]
    tail = (stop - 1 - first) * hop + frame_len - len(span)
    padded = np.arange(first, stop) >= _first_padded(len(x), frame_len, hop)
    return (np.concatenate((span, np.zeros(tail, span.dtype))) if tail > 0 else span), padded


def _first_padded(num_samples: int, frame_len: int, hop: int) -> int:
    """The first frame that runs past the end of num_samples samples,
    ceil((num_samples - frame_len + 1) / hop), found in Python ints: k * hop
    may not fit in int64. Frames from it on are padded."""
    return -(-(num_samples - frame_len + 1) // hop)


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
