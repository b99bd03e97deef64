"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
asserts both the criterion and its runtime budget. Expected values come
from independent constructions: resampled copies with exact known ratios,
brute-force reductions, and central differences.
"""
import time

import numpy as np

from yingram import (
    AnalysisConfig,
    crop_scope,
    compute_yingram,
    decoding_loss,
    difference_function,
    extract_pitch_contour,
    gradcheck_suite,
    harmonic_tone,
    median_semitone_offset,
    note_to_hz,
    pitch_shifted_copy,
    recon_loss,
    shift_consistency_metric,
    shift_to_semitones,
    sine_tone,
    vibrato_tone,
)
from oracles import crop_rows, exp_l1_mean, mean_abs_diff

SR = 22050


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail}; {elapsed:.1f}s/{budget:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_grid_exactness():
    t0 = time.perf_counter()
    ok = note_to_hz(69) == 440.0
    top = note_to_hz(74)
    ok &= 508.3 <= top <= 508.4
    octave_exact = all(note_to_hz(m + 24) == 2.0 * note_to_hz(m) for m in range(-5, 51))
    ok &= octave_exact
    _report(
        1,
        "grid exactness",
        ok,
        f"f(69)={note_to_hz(69)}, f(74)={top:.4f}, octave identity exact={octave_exact}",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_02_f0_accuracy_sweep():
    t0 = time.perf_counter()
    cfg = AnalysisConfig()
    worst = 1.0
    worst_note = None
    for m in range(5, 75):
        freq = note_to_hz(m)
        tone = sine_tone(freq, 1.0)
        contour = extract_pitch_contour(tone, cfg)
        cents = 1200.0 * np.log2(contour.f0[contour.voiced] / freq)
        good = int((np.abs(cents) < 10.0).sum())
        # score against all unpadded frames: unvoiced ones count as misses
        total = sum(
            1
            for k in range(len(contour))
            if k * cfg.hop + cfg.frame_length <= len(tone.samples)
        )
        frac = good / total
        if frac < worst:
            worst, worst_note = frac, m
    where = f" at m={worst_note}" if worst_note is not None else " (all notes)"
    _report(
        2,
        "f0 accuracy sweep",
        worst >= 0.95,
        f"worst per-note within-10-cents fraction {worst:.3f}{where}",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_03_valley_placement():
    t0 = time.perf_counter()
    cfg = AnalysisConfig()
    worst = 1.0
    worst_note = None
    for m in range(0, 71, 10):
        w = vibrato_tone(note_to_hz(m), 1.0, depth_semitones=0.1, rate_hz=5.0)
        argmins = np.argmin(compute_yingram(w, cfg).unpadded(), axis=1)
        frac = float(np.mean(np.abs(argmins - (m + 5)) <= 1))
        if frac < worst:
            worst, worst_note = frac, m
    where = f" at m={worst_note}" if worst_note is not None else " (all notes)"
    _report(
        3,
        "yingram valley placement",
        worst >= 0.90,
        f"worst per-note argmin-within-1 fraction {worst:.3f}{where}",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_04_translation_equivariance():
    t0 = time.perf_counter()
    cfg = AnalysisConfig()
    base = harmonic_tone(220.0, 1.0)
    y0 = compute_yingram(base, cfg).unpadded()
    worst = 0.0
    for k in (-8, -4, 4, 8):
        shifted = pitch_shifted_copy(base, -k / 2.0)  # pitch ratio 2^(-k/24)
        yk = compute_yingram(shifted, cfg).unpadded()
        frames = min(len(y0), len(yk))
        err = float(np.mean(np.abs(yk[:frames, 10:70] - y0[:frames, 10 + k : 70 + k])))
        worst = max(worst, err)
    _report(
        4,
        "translation equivariance",
        worst < 0.05,
        f"worst mean |dY| {worst:.4f} over k in {{-8,-4,4,8}}",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_05_crop_and_shift_semantics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True
    y = rng.standard_normal((17, 80))
    for s in range(-15, 16):
        cropped = crop_scope(y, s)
        ok &= cropped.shape == (17, 50)
        ok &= all(np.array_equal(cropped[:, c], y[:, 15 + s + c]) for c in range(50))
    ok &= np.array_equal(crop_scope(y, 0), y[:, 15:65])
    table = {8: -4, 6: -3, 4: -2, 2: -1, -2: 1, -4: 2, -6: 3, -8: 4}
    ok &= all(shift_to_semitones(s) == st for s, st in table.items())
    _report(
        5,
        "crop/shift semantics",
        ok,
        "row identity for all s in [-15,15], default scope 15..64, full shift table",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_06_loss_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    a = rng.uniform(0, 2, (23, 50))
    b = rng.uniform(0, 2, (23, 50))
    mats = [rng.uniform(0, 2, (23, 50)) for _ in range(4)]
    ya = rng.uniform(0, 2, (23, 80))
    yb = rng.uniform(0, 2, (23, 80))
    s = -6

    err_dec = abs(decoding_loss(a, b) - 45.0 * mean_abs_diff(a, b))
    err_rec = abs(
        recon_loss(*mats)
        - 45.0 * (exp_l1_mean(mats[0], mats[2]) + exp_l1_mean(mats[1], mats[3]))
    )
    err_shift = abs(
        shift_consistency_metric(ya, yb, s)
        - 45.0 * exp_l1_mean(crop_rows(ya, s), crop_rows(yb, 0))
    )
    ok = max(err_dec, err_rec, err_shift) < 1e-12
    ok &= decoding_loss(a, a) == 0.0
    ok &= recon_loss(mats[0], mats[1], mats[0], mats[1]) == 0.0
    ok &= shift_consistency_metric(ya, ya, 0) == 0.0
    doubled = AnalysisConfig(lambda_yin=90.0)
    ok &= decoding_loss(a, b, doubled) == 2.0 * decoding_loss(a, b)
    ok &= recon_loss(*mats, doubled) == 2.0 * recon_loss(*mats)
    ok &= shift_consistency_metric(ya, yb, s, doubled) == 2.0 * (
        shift_consistency_metric(ya, yb, s)
    )
    _report(
        6,
        "loss oracles",
        ok,
        f"max oracle deviation {max(err_dec, err_rec, err_shift):.2e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_07_shift_metric_dominance():
    t0 = time.perf_counter()
    cfg = AnalysisConfig()
    normal = harmonic_tone(220.0, 1.0)
    y_normal = compute_yingram(normal, cfg).unpadded()
    ok = True
    margins = []
    for s in range(-8, 9, 2):
        shifted = pitch_shifted_copy(normal, shift_to_semitones(s))
        y_shifted = compute_yingram(shifted, cfg).unpadded()
        frames = min(len(y_normal), len(y_shifted))

        def metric(scope_shift):
            return shift_consistency_metric(
                y_normal[:frames], y_shifted[:frames], scope_shift
            )

        at_true = metric(s)
        alternatives = [metric(s - 4), metric(s + 4)]
        ok &= all(at_true < alt for alt in alternatives)
        margins.append(min(alternatives) / max(at_true, 1e-12))
    _report(
        7,
        "shift-metric dominance",
        ok,
        f"min alt/true ratio {min(margins):.1f}x over even s in [-8,8]",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_08_contour_parallelism():
    t0 = time.perf_counter()
    # 440 Hz + 4 st + vibrato peaks near 571 Hz, so widen the f0 band and
    # shorten the window for finer time resolution (package defaults unchanged)
    cfg = AnalysisConfig(window=1024, f_max=600.0)
    base = vibrato_tone(440.0, 1.2, depth_semitones=0.5, rate_hz=5.0)
    contour_a = extract_pitch_contour(base, cfg)
    log_a = np.log2(contour_a.f0)
    ok = True
    details = []
    for st in (-4, -3, -2, -1, 1, 2, 3, 4):
        shifted = pitch_shifted_copy(base, st)
        contour_b = extract_pitch_contour(shifted, cfg)
        scale = len(shifted.samples) / len(base.samples)
        # independent alignment: interpolate log-f0 of b at i*scale
        log_b = np.log2(contour_b.f0)
        offsets = []
        for i in np.nonzero(contour_a.voiced)[0]:
            j = i * scale
            j0, j1 = int(np.floor(j)), int(np.ceil(j))
            if j1 >= len(contour_b) or np.isnan(log_b[j0]) or np.isnan(log_b[j1]):
                continue
            interp = log_b[j0] + (log_b[j1] - log_b[j0]) * (j - j0)
            offsets.append(12.0 * (interp - log_a[i]))
        offsets = np.array(offsets)
        median = float(np.median(offsets))
        spread = float(np.std(offsets))
        lib_median, _ = median_semitone_offset(contour_a, contour_b, time_scale=scale)
        ok &= abs(median - st) < 0.1
        ok &= spread < 0.1
        ok &= abs(lib_median - median) < 1e-9
        details.append(f"{st:+d}:{median - st:+.3f}/{spread:.3f}")
    _report(
        8,
        "contour parallelism",
        ok,
        "st:(median-expected)/std " + " ".join(details),
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_09_differentiability():
    t0 = time.perf_counter()
    reports = gradcheck_suite(50, AnalysisConfig(), eps=1e-5, probes=25, tolerance=1e-4)
    worst = max(r.max_rel_error for r in reports)
    ok = all(r.passed for r in reports) and not any(r.guarded for r in reports)
    _report(
        9,
        "differentiability",
        ok,
        f"50 frames, worst FD relative error {worst:.2e} at eps=1e-5",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_10_kernel_equivalence_and_speed():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    frames = rng.standard_normal((200, 2048 + 426))
    worst_rel = 0.0
    t_naive = 0.0
    t_fft = 0.0
    for x in frames:
        tn = time.perf_counter()
        naive = difference_function(x, 426, 2048, method="naive")
        t_naive += time.perf_counter() - tn
        tf = time.perf_counter()
        fast = difference_function(x, 426, 2048, method="fft")
        t_fft += time.perf_counter() - tf
        worst_rel = max(worst_rel, np.max(np.abs(fast - naive)) / np.max(naive))
    speedup = t_naive / t_fft
    ok = worst_rel < 1e-6 and speedup >= 5.0
    _report(
        10,
        "kernel equivalence",
        ok,
        f"max relative deviation {worst_rel:.2e}, speedup {speedup:.1f}x",
        time.perf_counter() - t0,
        60.0,
    )
