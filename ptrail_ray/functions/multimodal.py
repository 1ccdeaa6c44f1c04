"""Multimodal (image/audio/video) column plumbing.

Design: media are opaque ``binary`` payload columns with typed metadata
(``media_type``, ``width``/``height``/``duration_ms``), processed by
stateless ``map_batches`` task stages with SMALL batch sizes (payloads
dominate block size — see the memory notes in SURVEY.md §4.2).

Decode support tiers in this container:

* **REAL, no external codecs**: RIFF/WAV PCM audio (stdlib ``wave`` +
  numpy — ``decode_audio_batch``) and binary PPM/PGM images (P6/P5
  header + raw bytes — ``decode_image_batch`` parses them natively,
  including a real nearest-neighbor resize kernel). These paths decode
  actual bytes.
* **Gated**: JPEG/PNG/MP3/MP4 need PIL/ffmpeg, absent here.
  ``decode_image_batch(fake=False)`` first tries PIL and falls back to
  the native PPM parser; a payload in a format neither can read raises
  ``NotImplementedError`` (disclosed, not silently faked).
* **Fake**: ``fake=True`` keeps the deterministic md5-seeded stub for
  plumbing tests over arbitrary bytes.
"""

from __future__ import annotations

import functools
import hashlib
import io
import wave

import numpy as np
import pandas as pd
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_id", pa.int64()),
        pa.field("media_type", pa.string()),  # 'image' | 'audio' | 'video'
        pa.field("payload", pa.binary()),
        pa.field("meta_width", pa.int32()),
        pa.field("meta_height", pa.int32()),
        pa.field("meta_duration_ms", pa.int32()),
    ]
)


def synth_media(n: int = 64, seed: int = 21) -> pa.Table:
    """Deterministic fake media table (binary payloads)."""
    rng = np.random.default_rng(seed)
    types = rng.choice(["image", "audio", "video"], size=n)
    payloads = [rng.bytes(int(rng.integers(256, 4096))) for _ in range(n)]
    return pa.table(
        {
            "media_id": pa.array(np.arange(n), pa.int64()),
            "media_type": pa.array(types, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta_width": pa.array(rng.integers(64, 1024, n), pa.int32()),
            "meta_height": pa.array(rng.integers(64, 1024, n), pa.int32()),
            "meta_duration_ms": pa.array(rng.integers(0, 60_000, n), pa.int32()),
        }
    )


def _build_wav(n: int, seed: int) -> tuple[pa.Table, pa.Table]:
    """One pass building BOTH the WAV media table and its expected
    ``decode_audio_batch`` features (driver ground truth). A single loop
    draws all randomness so the two tables can never drift; the GT
    features are computed from the very PCM written into the payload
    with the same float64 ops the decode path runs (``wave`` round-trips
    PCM bytes untouched), so decode output is bit-identical to GT."""
    rng = np.random.default_rng(seed)
    rates = rng.choice([8000, 16000, 22050], size=n)
    n_frames = rng.integers(400, 4000, size=n)
    freqs = rng.uniform(100.0, 2000.0, size=n)
    amps = rng.uniform(0.1, 0.9, size=n)
    payloads = []
    rms = np.empty(n, np.float64)
    dur = np.empty(n, np.int64)
    for i in range(n):
        t = np.arange(int(n_frames[i])) / float(rates[i])
        pcm = (amps[i] * np.sin(2 * np.pi * freqs[i] * t) * 32767).astype("<i2")
        bio = io.BytesIO()
        with wave.open(bio, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(int(rates[i]))
            w.writeframes(pcm.tobytes())
        payloads.append(bio.getvalue())
        x = pcm.astype(np.float64) / 32768.0  # mirrors parse_wav exactly
        rms[i] = float(np.sqrt(np.mean(x * x)))
        dur[i] = int(round(1000.0 * len(x) / int(rates[i])))
    media = pa.table(
        {
            "media_id": pa.array(np.arange(n), pa.int64()),
            "media_type": pa.array(["audio"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "true_rate": pa.array(rates.astype(np.int32), pa.int32()),
            "true_frames": pa.array(n_frames.astype(np.int32), pa.int32()),
        }
    )
    gt = pa.table(
        {
            "media_id": pa.array(np.arange(n), pa.int64()),
            "sample_rate": pa.array(rates.astype(np.int64), pa.int64()),
            "n_samples": pa.array(n_frames.astype(np.int64), pa.int64()),
            "duration_ms": pa.array(dur, pa.int64()),
            "rms": pa.array(rms, pa.float64()),
        }
    )
    return media, gt


def synth_wav_media(n: int = 256, seed: int = 23) -> pa.Table:
    """Deterministic REAL WAV payloads (RIFF/PCM16 mono sine tones,
    written with stdlib ``wave``) plus the generator's ground truth
    (sample rate / frame count) for decode self-checks."""
    return _build_wav(n, seed)[0]


def wav_ground_truth(n: int = 256, seed: int = 23) -> pa.Table:
    """Expected ``decode_audio_batch`` output for
    ``synth_wav_media(n, seed)`` — the driver-oracle ground-truth table
    (rms unrounded float64)."""
    return _build_wav(n, seed)[1]


def _build_ppm(n: int, seed: int) -> tuple[pa.Table, pa.Table]:
    """One pass building BOTH the PPM media table and its expected
    ``decode_image_batch`` features. The per-channel means run the exact
    reduction the decode path runs (``reshape(-1, 3).mean(axis=0)`` over the same
    C-order uint8 array) so decode output is bit-identical to GT."""
    rng = np.random.default_rng(seed)
    ws = rng.integers(8, 64, size=n)
    hs = rng.integers(8, 64, size=n)
    payloads = []
    means = np.empty((n, 3), np.float64)
    for i in range(n):
        w, h = int(ws[i]), int(hs[i])
        pix = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        payloads.append(f"P6\n{w} {h}\n255\n".encode() + pix.tobytes())
        means[i] = pix.reshape(-1, 3).mean(axis=0)
    media = pa.table(
        {
            "media_id": pa.array(np.arange(n), pa.int64()),
            "media_type": pa.array(["image"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "true_width": pa.array(ws.astype(np.int32), pa.int32()),
            "true_height": pa.array(hs.astype(np.int32), pa.int32()),
        }
    )
    gt = pa.table(
        {
            "media_id": pa.array(np.arange(n), pa.int64()),
            "width": pa.array(ws.astype(np.int64), pa.int64()),
            "height": pa.array(hs.astype(np.int64), pa.int64()),
            "mean_r": pa.array(means[:, 0], pa.float64()),
            "mean_g": pa.array(means[:, 1], pa.float64()),
            "mean_b": pa.array(means[:, 2], pa.float64()),
        }
    )
    return media, gt


def synth_ppm_media(n: int = 256, seed: int = 29) -> pa.Table:
    """Deterministic REAL binary-PPM (P6) payloads + ground-truth
    dimensions for decode self-checks."""
    return _build_ppm(n, seed)[0]


def ppm_ground_truth(n: int = 256, seed: int = 29) -> pa.Table:
    """Expected ``decode_image_batch`` output for
    ``synth_ppm_media(n, seed)`` — the driver-oracle ground-truth table
    (means unrounded float64)."""
    return _build_ppm(n, seed)[1]


def parse_pnm(buf: bytes) -> np.ndarray:
    """Native binary-PNM parse: P6 → (h, w, 3) uint8, P5 → (h, w).
    Header = magic, width, height, maxval separated by whitespace
    (``#`` comments allowed), one whitespace byte, then raw samples."""
    if buf[:2] not in (b"P6", b"P5"):
        raise ValueError("not a binary PNM payload")
    tokens: list[bytes] = []
    i = 2
    while len(tokens) < 3:
        while i < len(buf) and buf[i : i + 1].isspace():
            i += 1
        if buf[i : i + 1] == b"#":
            while i < len(buf) and buf[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(buf) and not buf[j : j + 1].isspace():
            j += 1
        tokens.append(buf[i:j])
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = int(tokens[0]), int(tokens[1]), int(tokens[2])
    if maxval > 255:
        raise ValueError("16-bit PNM not supported")
    ch = 3 if buf[:2] == b"P6" else 1
    arr = np.frombuffer(buf, dtype=np.uint8, count=w * h * ch, offset=i)
    return arr.reshape(h, w, 3) if ch == 3 else arr.reshape(h, w)


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Real nearest-neighbor resize (index-map gather — the kernel a
    thumbnail/feature stage runs per item)."""
    h, w = img.shape[:2]
    ri = (np.arange(out_h) * h) // out_h
    ci = (np.arange(out_w) * w) // out_w
    return img[ri][:, ci]


def parse_wav(buf: bytes) -> tuple[int, np.ndarray]:
    """REAL RIFF/WAV decode via stdlib ``wave``: returns
    (sample_rate, float64 samples in [-1, 1), first channel)."""
    with wave.open(io.BytesIO(buf), "rb") as w:
        sr = w.getframerate()
        nch = w.getnchannels()
        sw = w.getsampwidth()
        raw = w.readframes(w.getnframes())
    if sw == 2:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif sw == 1:  # 8-bit WAV is unsigned
        x = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise ValueError(f"unsupported sample width {sw}")
    if nch > 1:
        x = x[::nch]
    return sr, x


def decode_audio_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """REAL audio decode stage (stdlib wave — no external codecs needed
    for RIFF/PCM). Per-item features: sample_rate, n_samples,
    duration_ms, rms, peak. Payload dropped on output."""
    sr_l, n_l, dur_l, rms_l, peak_l = [], [], [], [], []
    for p in batch["payload"]:
        sr, x = parse_wav(bytes(p))
        sr_l.append(sr)
        n_l.append(len(x))
        dur_l.append(int(round(1000.0 * len(x) / sr)) if sr else 0)
        rms_l.append(float(np.sqrt(np.mean(x * x))) if len(x) else 0.0)
        peak_l.append(float(np.max(np.abs(x))) if len(x) else 0.0)
    out = batch.drop(columns=["payload"])
    out["sample_rate"] = np.asarray(sr_l, np.int64)
    out["n_samples"] = np.asarray(n_l, np.int64)
    out["duration_ms"] = np.asarray(dur_l, np.int64)
    out["rms"] = np.asarray(rms_l, np.float64)
    out["peak"] = np.asarray(peak_l, np.float64)
    return out


@functools.lru_cache(maxsize=None)
def _pil_image():
    """PIL's ``Image`` module, or None where PIL is not installed —
    probed once per worker process."""
    try:
        from PIL import Image
    except ImportError:
        return None
    return Image


def _decode_image(buf: bytes) -> np.ndarray:
    pil = _pil_image()
    if pil is not None:
        img = pil.open(io.BytesIO(buf)).convert("RGB")
        return np.asarray(img, dtype=np.uint8)
    if buf[:2] in (b"P6", b"P5"):
        arr = parse_pnm(buf)
        if arr.ndim == 2:
            arr = np.repeat(arr[:, :, None], 3, axis=2)
        return arr
    raise NotImplementedError(
        "payload is not binary PNM and PIL is unavailable in this "
        "container — JPEG/PNG decode is gated on the PIL extra"
    )


def decode_image_batch(
    batch: pd.DataFrame, fake: bool = False, feat_dim: int = 16, thumb: int = 8
) -> pd.DataFrame:
    """Image decode stage.

    ``fake=False`` (default) decodes REAL bytes: PIL when importable
    (absent in this container), else the native binary-PNM parser —
    other formats raise ``NotImplementedError`` (disclosed, never
    silently faked). Features: width/height, per-channel means, and a
    ``thumb``×``thumb`` nearest-neighbor thumbnail as the feature vector
    (real resize kernel). ``fake=True`` keeps the md5-seeded stub of
    ``feat_dim`` values for plumbing tests over arbitrary bytes."""
    if not fake:
        widths, heights, means, feats = [], [], [], []
        for p in batch["payload"]:
            img = _decode_image(bytes(p))
            heights.append(img.shape[0])
            widths.append(img.shape[1])
            means.append(img.reshape(-1, 3).mean(axis=0))
            th = resize_nearest(img, thumb, thumb)
            feats.append((th.astype(np.float32) / 255.0).ravel())
        out = batch.drop(columns=["payload"])
        out["width"] = np.asarray(widths, np.int64)
        out["height"] = np.asarray(heights, np.int64)
        m = np.vstack(means)
        out["mean_r"] = m[:, 0]
        out["mean_g"] = m[:, 1]
        out["mean_b"] = m[:, 2]
        out["feature"] = [f.tolist() for f in feats]
        out["decoded_ok"] = True
        return out
    feats = []
    for p in batch["payload"]:
        h = hashlib.md5(bytes(p)).digest()
        seed = int.from_bytes(h[:8], "big") % (2**32)
        feats.append(
            np.random.default_rng(seed).normal(size=feat_dim).astype(np.float32)
        )
    batch["feature"] = [f.tolist() for f in feats]
    batch["decoded_ok"] = True
    return batch.drop(columns=["payload"])  # drop payload → small output


def decode_audio_features(ds, *, batch_size: int = 64):
    """Audio Dataset → per-item REAL decode features (payload dropped
    on output). Small batches: payloads dominate block memory."""
    return ds.map_batches(
        decode_audio_batch, batch_format="pandas", batch_size=batch_size
    )


def decode_features(ds, *, fake: bool = False, batch_size: int = 16):
    """Media Dataset → per-item feature vectors (payload dropped on
    output; small batch_size because payloads dominate memory)."""
    return ds.map_batches(
        decode_image_batch,
        fn_kwargs={"fake": fake},
        batch_format="pandas",
        batch_size=batch_size,
    )


# --- video: concatenated-PPM frame streams ---------------------------------
#
# Real video containers need ffmpeg (absent here — the PIL/ffmpeg gates
# below stay loud). Concatenated binary-PPM frames ARE parseable with
# the native P6 parser, so the frame-sampling operator — the part a
# training pipeline owns (stride selection, per-frame features, output
# layout) — is REAL end-to-end: actual header walking, actual pixel
# math, not a stub.


def parse_ppm_stream(buf: bytes) -> list[np.ndarray]:
    """Concatenated binary-PPM (P6) frames → list of (h, w, 3) uint8
    arrays. Each frame is self-describing; the walk is header parse →
    fixed-size payload skip."""
    frames = []
    off = 0
    n = len(buf)
    while off < n:
        if buf[off : off + 2] != b"P6":
            raise ValueError(f"frame boundary corrupt at byte {off}")
        tokens: list[bytes] = []
        i = off + 2
        while len(tokens) < 3:
            while i < n and buf[i : i + 1].isspace():
                i += 1
            if buf[i : i + 1] == b"#":
                while i < n and buf[i : i + 1] != b"\n":
                    i += 1
                continue
            j = i
            while j < n and not buf[j : j + 1].isspace():
                j += 1
            tokens.append(buf[i:j])
            i = j
        i += 1  # single whitespace after maxval
        w, h = int(tokens[0]), int(tokens[1])
        if int(tokens[2]) > 255:
            raise ValueError("16-bit PPM not supported")
        end = i + w * h * 3
        frames.append(np.frombuffer(buf[i:end], np.uint8).reshape(h, w, 3))
        off = end
    return frames


def _build_ppmv(n: int, seed: int, stride: int) -> tuple[pa.Table, pa.Table]:
    """One pass building BOTH the PPM-video table and the expected
    frame-sample features (every ``stride``-th frame; mean intensity =
    the exact uint8→float64 reduction the decode path runs)."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(3, 9, size=n)
    payloads = []
    gt_mid, gt_fi, gt_h, gt_w, gt_mean = [], [], [], [], []
    for i in range(n):
        w, h = int(rng.integers(8, 32)), int(rng.integers(8, 32))
        chunks = []
        for f in range(int(counts[i])):
            pix = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            chunks.append(f"P6\n{w} {h}\n255\n".encode() + pix.tobytes())
            if f % stride == 0:
                gt_mid.append(i)
                gt_fi.append(f)
                gt_h.append(h)
                gt_w.append(w)
                gt_mean.append(float(pix.reshape(-1).astype(np.float64).mean()))
        payloads.append(b"".join(chunks))
    media = pa.table(
        {
            "media_id": pa.array(np.arange(n), pa.int64()),
            "media_type": pa.array(["video"] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "true_frames": pa.array(counts.astype(np.int32), pa.int32()),
        }
    )
    gt = pa.table(
        {
            "media_id": pa.array(np.asarray(gt_mid, np.int64), pa.int64()),
            "frame_idx": pa.array(np.asarray(gt_fi, np.int64), pa.int64()),
            "height": pa.array(np.asarray(gt_h, np.int64), pa.int64()),
            "width": pa.array(np.asarray(gt_w, np.int64), pa.int64()),
            "mean_px": pa.array(np.asarray(gt_mean, np.float64), pa.float64()),
        }
    )
    return media, gt


def synth_ppmv_media(n: int = 128, seed: int = 31, stride: int = 2) -> pa.Table:
    return _build_ppmv(n, seed, stride)[0]


def ppmv_ground_truth(n: int = 128, seed: int = 31, stride: int = 2) -> pa.Table:
    return _build_ppmv(n, seed, stride)[1]


class FrameSample:
    """Frame-sampling stage: parse a concatenated-PPM video payload and
    emit every ``stride``-th frame's features (frame_idx, height,
    width, mean intensity) — the frame-sampling shape (decode once per
    item, expanding output rows) a real video pipeline uses; only the
    container parser would change under ffmpeg."""

    def __init__(self, stride: int = 2):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride

    def __call__(self, t: pa.Table) -> pa.Table:
        mids, fis, hs, ws, means = [], [], [], [], []
        ids = t["media_id"].to_numpy(zero_copy_only=False)
        payloads = t["payload"].to_pylist()
        for mid, buf in zip(ids, payloads):
            for f, frame in enumerate(parse_ppm_stream(buf)):
                if f % self.stride:
                    continue
                mids.append(int(mid))
                fis.append(f)
                hs.append(frame.shape[0])
                ws.append(frame.shape[1])
                means.append(float(frame.reshape(-1).astype(np.float64).mean()))
        return pa.table(
            {
                "media_id": pa.array(np.asarray(mids, np.int64), pa.int64()),
                "frame_idx": pa.array(np.asarray(fis, np.int64), pa.int64()),
                "height": pa.array(np.asarray(hs, np.int64), pa.int64()),
                "width": pa.array(np.asarray(ws, np.int64), pa.int64()),
                "mean_px": pa.array(np.asarray(means, np.float64), pa.float64()),
            }
        )


def frame_sample_features(ds, *, stride: int = 2, batch_size: int = 32):
    """Distributed frame sampling as a task stage: small batches, because
    video payloads are the large-binary case; Ray Data's backpressure
    bounds how many batches are in flight."""
    return ds.map_batches(
        FrameSample(stride), batch_format="pyarrow", batch_size=batch_size
    )
