"""Multimodal decode/feature queries (image/audio/video) (split from queries.py; keys unchanged)."""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Count
from ._registry import ORACLE_SQL, QUERIES
from ._shared import *  # noqa: F401,F403

def q_media_features(sf_dir: str):
    """Multimodal plumbing, ORACLE-CHECKED end to end.

    Synthesizes a deterministic binary media payload per document
    (utf-8 text bytes; kind from doc_id), runs the real actor-pool
    ``MediaFeatureExtractor`` stage (small batches, payload dropped
    after featurization), and emits digest-derived features the
    DuckDB twin reproduces bit-for-bit via chained sha256 — proving
    the batching/schema/actor plumbing, not just running it.
    """
    from ..stages.multimodal import media_feature_stage

    kinds = ["image", "audio", "video"]

    def _to_media(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table({
            "media_id": pa.array([f"m{i}" for i in ids], pa.string()),
            "kind": pa.array([kinds[i % 3] for i in ids], pa.string()),
            "payload": pa.array(
                [(t or "").encode("utf-8") for t in texts], pa.binary()
            ),
            "mime": pa.array(["application/octet-stream"] * len(ids),
                             pa.string()),
        })

    from ..stages.multimodal import DecodeConfig

    media = _docs(sf_dir).map_batches(_to_media, batch_format="pyarrow")
    # fake decoder pinned: these payloads are raw utf-8 text, not
    # decodable media — this query proves the digest/actor plumbing;
    # real PNM/WAV decoding is oracle-checked by `media_decode`
    feats = media_feature_stage(
        media, config=DecodeConfig(use_fake_decoder=True)
    )

    def _project(batch: pa.Table) -> pa.Table:
        # scalar projection of the feature vector (the comparator —
        # like most SQL engines — can't sort on list columns):
        # f0 = first component, features_sig = the 16 feature bytes
        # as hex
        fl = batch.column("features").to_pylist()
        f0 = [f[0] if f else None for f in fl]
        sig = [
            "".join(f"{round(v * 255):02x}" for v in f) if f else None
            for f in fl
        ]
        return pa.table({
            "media_id": batch.column("media_id"),
            "kind": batch.column("kind"),
            "payload_bytes": batch.column("payload_bytes"),
            "decode_error": batch.column("decode_error"),
            "f0": pa.array(f0, pa.float64()),
            "features_sig": pa.array(sig, pa.string()),
        })

    return feats.map_batches(_project, batch_format="pyarrow")
ORACLE_SQL["media_features"] = (
"SELECT 'm' || CAST(doc_id AS VARCHAR) AS media_id, "
        "CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' "
        "ELSE 'video' END AS kind, "
        "CAST(CASE WHEN text = '' THEN 0 ELSE octet_length(encode(text)) "
        "END AS BIGINT) AS payload_bytes, "
        "CASE WHEN text = '' THEN 'empty payload' ELSE NULL END "
        "AS decode_error, "
        "CASE WHEN text = '' THEN NULL ELSE "
        "CAST(('0x' || substr(sha256(sha256(text)), 1, 2)) AS INTEGER) "
        "/ 255.0 END AS f0, "
        "CASE WHEN text = '' THEN NULL ELSE "
        "substr(sha256(sha256(text)), 1, 32) END AS features_sig "
        "FROM documents"
)
QUERIES["media_features"] = q_media_features
def q_media_decode(sf_dir: str):
    """REAL media decode, ORACLE-CHECKED end to end.

    Synthesizes genuine binary media per document — a binary PGM
    image (dims and constant fill derived from doc_id), a mono 16-bit
    PCM WAV (frame count and amplitude from doc_id), a raw YUV4MPEG2
    video (dims/frame count/luma fill from doc_id), or an opaque
    codec-video payload — and runs the real actor-pool decoder
    (``decode_pnm`` / ``decode_wav`` / ``decode_y4m``, pure stdlib).
    The emitted dimensions, durations, byte counts and content means
    are read from the DECODED BYTES on the Ray side and recomputed
    from the doc_id formulas on the DuckDB side: a header-faking
    decoder cannot pass. Opaque video rows (doc_id % 6 == 5) pin the
    documented codec-formats-need-external-libs error.
    """
    from ..stages.multimodal import (
        encode_pgm,
        encode_wav,
        encode_y4m,
        media_feature_stage,
    )

    def _to_media(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        payloads, kinds = [], []
        for i, t in zip(ids, texts):
            m = i % 3
            if m == 0:
                w, h = 8 + i % 25, 8 + (i * 7) % 25
                payloads.append(encode_pgm(w, h, i % 256))
                kinds.append("image")
            elif m == 1:
                n_frames = 8 * (10 + i % 50)
                payloads.append(encode_wav([i % 100] * n_frames))
                kinds.append("audio")
            elif i % 6 == 2:
                w, h = 8 + 2 * (i % 13), 8 + 2 * ((i * 3) % 11)
                payloads.append(encode_y4m(w, h, 2 + i % 7, i % 256))
                kinds.append("video")
            else:
                # i % 6 == 5: opaque codec-compressed stand-in
                payloads.append((t or "").encode("utf-8"))
                kinds.append("video")
        return pa.table({
            "media_id": pa.array([f"m{i}" for i in ids], pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        })

    media = _docs(sf_dir).map_batches(_to_media, batch_format="pyarrow")
    # real decoder (default config); these synthetic payloads are
    # KB-scale, so a larger batch than the MB-payload default is right
    feats = media_feature_stage(media, batch_size=128, concurrency=(1, 16))
    return feats.select_columns([
        "media_id", "kind", "payload_bytes", "decoded_width",
        "decoded_height", "decoded_duration_ms", "content_mean",
        "decode_error",
    ])
ORACLE_SQL["media_decode"] = (
"WITH m AS (SELECT doc_id, text, "
        "8 + 2 * (doc_id % 13) AS vw, "
        "8 + 2 * ((doc_id * 3) % 11) AS vh, "
        "2 + doc_id % 7 AS vn FROM documents) "
        "SELECT 'm' || CAST(doc_id AS VARCHAR) AS media_id, "
        "CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' "
        "ELSE 'video' END AS kind, "
        "CAST(CASE doc_id % 3 "
        "WHEN 0 THEN 9 + length(CAST(8 + doc_id % 25 AS VARCHAR)) "
        "+ length(CAST(8 + (doc_id * 7) % 25 AS VARCHAR)) "
        "+ (8 + doc_id % 25) * (8 + (doc_id * 7) % 25) "
        "WHEN 1 THEN 44 + 2 * 8 * (10 + doc_id % 50) "
        "ELSE CASE WHEN doc_id % 6 = 2 THEN "
        "37 + length(CAST(vw AS VARCHAR)) + length(CAST(vh AS VARCHAR)) "
        "+ vn * (6 + (vw * vh * 3) // 2) "
        "WHEN text = '' THEN 0 ELSE octet_length(encode(text)) "
        "END END AS BIGINT) AS payload_bytes, "
        "CAST(CASE WHEN doc_id % 3 = 0 THEN 8 + doc_id % 25 "
        "WHEN doc_id % 6 = 2 THEN vw END AS INTEGER) AS decoded_width, "
        "CAST(CASE WHEN doc_id % 3 = 0 THEN 8 + (doc_id * 7) % 25 "
        "WHEN doc_id % 6 = 2 THEN vh END AS INTEGER) AS decoded_height, "
        "CAST(CASE WHEN doc_id % 3 = 1 THEN 10 + doc_id % 50 "
        "WHEN doc_id % 6 = 2 THEN vn * 40 END "
        "AS INTEGER) AS decoded_duration_ms, "
        "CASE WHEN doc_id % 3 = 0 THEN CAST(doc_id % 256 AS DOUBLE) "
        "WHEN doc_id % 3 = 1 THEN CAST(doc_id % 100 AS DOUBLE) "
        "WHEN doc_id % 6 = 2 THEN CAST(doc_id % 256 AS DOUBLE) "
        "END AS content_mean, "
        "CASE WHEN doc_id % 6 = 5 THEN (CASE WHEN text = '' "
        "THEN 'empty payload' ELSE "
        "'not a YUV4MPEG2 stream (codec formats unsupported "
        "without external libs)' END) "
        "END AS decode_error "
        "FROM m"
)
QUERIES["media_decode"] = q_media_decode
def q_image_dhash(sf_dir: str):
    """Image near-dup via 64-bit PERCEPTUAL HASH (dHash) computed
    from REAL decoded pixels (stages/multimodal.PerceptualHasher →
    decode_pnm): every doc becomes a deterministic 9x8 gradient PGM
    (pixel = (11·doc_id + 7x + 13y) mod 83, so docs sharing
    doc_id mod 83 are pixel-identical), the actor pool decodes and
    hashes, and ONE groupby over the 16-hex dhash yields dup groups.
    The DuckDB twin recomputes the hash from the pixel FORMULA — a
    header-faking decoder cannot match it."""
    import numpy as np

    from ray.data.aggregate import Count, Min

    from ..stages.multimodal import encode_pgm, image_dhash_stage

    ys, xs = np.mgrid[0:8, 0:9]

    def _to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table({
            "media_id": pa.array([f"m{i:06d}" for i in ids], pa.string()),
            "payload": pa.array(
                [encode_pgm(9, 8, (11 * i + 7 * xs + 13 * ys) % 83)
                 for i in ids],
                pa.binary()),
        })

    imgs = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _to_images, batch_format="pyarrow")
    hashed = image_dhash_stage(imgs)
    agg = hashed.groupby("dhash").aggregate(
        Count(), Min("media_id", alias_name="min_media_id"))

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({
            "dhash": batch.column("dhash"),
            "n_images": pc.cast(batch.column("count()"), pa.int64()),
            "min_media_id": batch.column("min_media_id"),
        })

    return agg.map_batches(_rename, batch_format="pyarrow").sort("dhash")
ORACLE_SQL["image_dhash"] = (
    "WITH bits AS (SELECT doc_id, y, x, "
    "CASE WHEN (11 * doc_id + 7 * (x + 1) + 13 * y) % 83 > "
    "(11 * doc_id + 7 * x + 13 * y) % 83 THEN 1 ELSE 0 END AS b "
    "FROM (SELECT doc_id, unnest(range(0, 8)) AS y FROM documents), "
    "(SELECT unnest(range(0, 8)) AS x)), "
    "h AS (SELECT doc_id, "
    "sum(CASE WHEN y * 8 + x >= 32 THEN b * (CAST(1 AS BIGINT) << "
    "CAST(y * 8 + x - 32 AS INTEGER)) ELSE 0 END) AS hi, "
    "sum(CASE WHEN y * 8 + x < 32 THEN b * (CAST(1 AS BIGINT) << "
    "CAST(y * 8 + x AS INTEGER)) ELSE 0 END) AS lo "
    "FROM bits GROUP BY doc_id) "
    "SELECT lower(lpad(to_hex(hi), 8, '0')) || "
    "lower(lpad(to_hex(lo), 8, '0')) AS dhash, "
    "CAST(count(*) AS BIGINT) AS n_images, "
    "min('m' || lpad(CAST(doc_id AS VARCHAR), 6, '0')) AS min_media_id "
    "FROM h GROUP BY 1 ORDER BY dhash"
)
QUERIES["image_dhash"] = q_image_dhash
def q_video_scene_cuts(sf_dir: str):
    """Scene-cut detection over REAL decoded Y4M frame planes.

    Every doc gets a genuine multi-frame YUV4MPEG2 payload whose
    per-frame luma fill follows ``(doc_id*31 + f*f) % 256``; the
    Ray side counts cuts from the DECODED per-frame plane sums
    (``|sum_f - sum_{f-1}| > T*w*h`` — exact integers), the ORACLE
    recomputes the fills and the same threshold rule from the
    formulas alone. A decoder that fakes per-frame stats from the
    header cannot pass.
    """
    from ..stages.multimodal import encode_y4m_frames, scene_cut_stage

    def _to_video(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = []
        for i in ids:
            w = 8 + 2 * (i % 5)
            h = 6 + 2 * (i % 4)
            fills = [(i * 31 + f * f) % 256 for f in range(3 + i % 6)]
            payloads.append(encode_y4m_frames(w, h, fills))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })

    vids = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _to_video, batch_format="pyarrow")
    return scene_cut_stage(vids, threshold=6).select_columns(
        ["doc_id", "n_frames", "n_cuts", "first_cut"])
ORACLE_SQL["video_scene_cuts"] = """
WITH f AS (
  SELECT d.doc_id, u.f AS fr,
         (d.doc_id * 31 + u.f * u.f) % 256 AS fill
  FROM documents d,
       LATERAL unnest(generate_series(0, 2 + d.doc_id % 6)) AS u(f)
), dif AS (
  SELECT doc_id, fr,
         abs(fill - lag(fill) OVER (
             PARTITION BY doc_id ORDER BY fr)) AS dd
  FROM f
)
SELECT doc_id,
  CAST(count(*) AS BIGINT) AS n_frames,
  CAST(count(*) FILTER (dd > 6) AS BIGINT) AS n_cuts,
  CAST(COALESCE(min(fr) FILTER (dd > 6), -1) AS BIGINT) AS first_cut
FROM dif GROUP BY doc_id
"""
QUERIES["video_scene_cuts"] = q_video_scene_cuts
def q_audio_silence(sf_dir: str):
    """Audio silence segmentation / VAD gate
    (stages/multimodal.SilenceDetector): every doc gets a REAL mono
    16-bit PCM WAV whose 40-sample segments alternate tone/silence
    by a doc_id formula; the actor-pool stage decodes the actual
    bytes and extracts contiguous silence RUNS from the decoded
    sample values with boundary masks. The oracle recomputes run
    structure from the generator formula via gaps-and-islands SQL —
    a header-faking decoder cannot reproduce run counts or lengths.
    Small batches for binary rows; payloads dropped after analysis."""
    from ..stages.multimodal import encode_wav, silence_stage

    SEG = 40

    def _to_audio(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch.column("doc_id").to_pylist()
        payloads = []
        for i in ids:
            n_segs = 10 + i % 20
            amp = 1000 + i % 100
            segs = np.arange(n_segs, dtype=np.int64)
            active = (segs + i) % 3 == 0
            samples = np.repeat(
                np.where(active, amp, 0).astype(np.int16), SEG)
            payloads.append(encode_wav(samples))
        return pa.table({
            "media_id": pa.array([f"m{i}" for i in ids], pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        })

    audio = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _to_audio, batch_format="pyarrow")
    return silence_stage(audio, threshold=16).select_columns(
        ["media_id", "n_samples", "n_active", "n_silence_runs",
         "longest_silence_ms"])
ORACLE_SQL["audio_silence"] = (
    "WITH seg AS (SELECT doc_id, "
    "unnest(range(0, 10 + doc_id % 20)) AS s FROM documents), "
    "sil AS (SELECT doc_id, s, ((s + doc_id) % 3 <> 0) AS silent "
    "FROM seg), "
    "isl AS (SELECT doc_id, s, "
    "s - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY s) AS g "
    "FROM sil WHERE silent), "
    "runs AS (SELECT doc_id, g, count(*) AS seglen FROM isl "
    "GROUP BY 1, 2), "
    "r AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_runs, "
    "CAST(max(seglen) AS BIGINT) AS longest_segs FROM runs "
    "GROUP BY 1), "
    "act AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_act_segs "
    "FROM sil WHERE NOT silent GROUP BY 1) "
    "SELECT 'm' || CAST(d.doc_id AS VARCHAR) AS media_id, "
    "CAST((10 + d.doc_id % 20) * 40 AS BIGINT) AS n_samples, "
    "CAST(coalesce(a.n_act_segs, 0) * 40 AS BIGINT) AS n_active, "
    "CAST(coalesce(r.n_runs, 0) AS BIGINT) AS n_silence_runs, "
    "CAST(coalesce(r.longest_segs, 0) * 40 * 1000 // 8000 AS BIGINT) "
    "AS longest_silence_ms "
    "FROM documents d LEFT JOIN r ON d.doc_id = r.doc_id "
    "LEFT JOIN act a ON d.doc_id = a.doc_id ORDER BY media_id"
)
QUERIES["audio_silence"] = q_audio_silence
def q_image_resize(sf_dir: str):
    """REAL nearest-neighbor image resize over real decoded pixels
    (`stages/multimodal.ImageResizer` actor pool): every doc becomes
    a deterministic gradient PGM with formula-driven dims (plus a
    pass-through small-image plant), the pool decodes, resamples with
    exact-integer geometry and emits an order-sensitive pixel
    checksum the DuckDB twin recomputes from the FORMULA — a
    header-faking resizer cannot match it."""
    import numpy as np

    from ..stages.multimodal import encode_pgm, image_resize_stage

    def _to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = []
        for i in ids:
            if i % 11 == 5:
                w, h = 9, 6
            else:
                w, h = 12 + (i % 5) * 3, 8 + (i % 7) * 2
            ys, xs = np.mgrid[0:h, 0:w]
            payloads.append(
                encode_pgm(w, h, (11 * i + 7 * xs + 13 * ys) % 83))
        return pa.table({
            "media_id": pa.array([f"m{i:06d}" for i in ids],
                                 pa.string()),
            "payload": pa.array(payloads, pa.binary()),
        })

    imgs = _docs(sf_dir, columns=["doc_id"]).map_batches(
        _to_images, batch_format="pyarrow")
    return image_resize_stage(imgs, max_side=10).select_columns(
        ["media_id", "width", "height", "target_w", "target_h",
         "checksum"]).sort("media_id")
ORACLE_SQL["image_resize"] = """
WITH d AS (
  SELECT doc_id,
    CASE WHEN doc_id % 11 = 5 THEN 9
         ELSE 12 + (doc_id % 5) * 3 END AS w,
    CASE WHEN doc_id % 11 = 5 THEN 6
         ELSE 8 + (doc_id % 7) * 2 END AS h
  FROM documents
), t AS (
  SELECT doc_id, w, h,
    CASE WHEN greatest(w, h) <= 10 THEN w
         ELSE greatest(1, w * 10 // greatest(w, h)) END AS tw,
    CASE WHEN greatest(w, h) <= 10 THEN h
         ELSE greatest(1, h * 10 // greatest(w, h)) END AS th
  FROM d
), g AS (
  SELECT doc_id, w, h, tw, th, xp.x, yp.y,
    (xp.x * w) // tw AS sx, (yp.y * h) // th AS sy
  FROM t,
  LATERAL unnest(range(0, tw)) AS xp(x),
  LATERAL unnest(range(0, th)) AS yp(y)
)
SELECT 'm' || lpad(CAST(doc_id AS VARCHAR), 6, '0') AS media_id,
  CAST(any_value(w) AS BIGINT) AS width,
  CAST(any_value(h) AS BIGINT) AS height,
  CAST(any_value(tw) AS BIGINT) AS target_w,
  CAST(any_value(th) AS BIGINT) AS target_h,
  CAST(sum(((11 * doc_id + 7 * sx + 13 * sy) % 83)
           * (1 + x + 31 * y)) AS BIGINT) AS checksum
FROM g GROUP BY doc_id ORDER BY media_id
"""
QUERIES["image_resize"] = q_image_resize
