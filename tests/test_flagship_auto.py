"""flagship_auto: the storage layout (via _manifest/layout.json), not an
env var, decides whether the conv exchange runs (VERDICT r04 #3).

- layout manifest present  -> exchange elided (prepartitioned plan)
- layout manifest absent   -> general exchange plan
- both plans value-identical
- tools/job.py --partition-only produces a layout flagship_auto detects
"""

import os
import tempfile

import pandas as pd
import pyarrow.parquet as pq
import pytest


def _sorted_df(ds):
    return (
        ds.to_pandas()
        .sort_values(["conv_id", "turn_idx", "ts"])
        .reset_index(drop=True)
    )


def test_layout_detection_present_vs_absent(tmp_path):
    from ptrail_ray.sources.transcripts import write_synth
    from ptrail_ray.state.manifest import conv_partitioned_files

    d = str(tmp_path / "corpus")
    write_synth(d, n_convs=30, mean_turns=8, seed=7, n_files=3, n_hot=0)
    files = conv_partitioned_files(d)
    assert files is not None and len(files) == 3
    assert all(os.path.exists(f) for f in files)

    # no manifest -> no elision, however the files are laid out
    os.remove(os.path.join(d, "_manifest", "layout.json"))
    assert conv_partitioned_files(d) is None


def test_layout_detection_rejects_non_transcript_payload(tmp_path):
    from ptrail_ray.sources.transcripts import write_synth
    from ptrail_ray.state.manifest import (
        conv_partitioned_files,
        load_layout_manifest,
        save_layout_manifest,
    )

    d = str(tmp_path / "corpus")
    write_synth(d, n_convs=10, mean_turns=5, seed=3, n_files=2, n_hot=0)
    m = load_layout_manifest(d)
    # featurized outputs are not a featurization INPUT
    save_layout_manifest(d, m["files"], payload="features")
    assert conv_partitioned_files(d) is None
    # a manifest naming a missing file disqualifies (loud fallback)
    save_layout_manifest(d, m["files"] + ["part-9999.parquet"])
    assert conv_partitioned_files(d) is None


def test_flagship_auto_value_identical_both_plans(ray_session):
    from ptrail_ray.pipelines.flagship import flagship, flagship_auto
    from ptrail_ray.sources.transcripts import (
        read_transcripts,
        side_scd_from_events,
        write_synth,
    )
    from ptrail_ray.state.manifest import conv_partitioned_files

    with tempfile.TemporaryDirectory() as d:
        write_synth(d, n_convs=50, mean_turns=10, seed=11, n_files=4, n_hot=1,
                    hot_turns=200)
        side = side_scd_from_events("/root/testdata/sf0.001")
        ref = _sorted_df(
            flagship(read_transcripts(d), side, num_buckets=8)
        )
        assert conv_partitioned_files(d) is not None
        elided = _sorted_df(flagship_auto(d, side))
        os.remove(os.path.join(d, "_manifest", "layout.json"))
        assert conv_partitioned_files(d) is None
        general = _sorted_df(
            flagship_auto(d, side, num_buckets=8)
        )
    assert list(ref.columns) == list(elided.columns)
    pd.testing.assert_frame_equal(ref, elided[ref.columns], check_dtype=False)
    pd.testing.assert_frame_equal(ref, general[ref.columns], check_dtype=False)


def test_job_partition_only_layout_roundtrip(ray_session, tmp_path):
    """job.py --partition-only writes a conv-bucketed RAW layout whose
    manifest flagship_auto detects; featurizing over it equals
    featurizing the original corpus through the exchange."""
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tools.job import main as job_main

    from ptrail_ray.pipelines.flagship import flagship, flagship_auto
    from ptrail_ray.sources.transcripts import (
        read_transcripts,
        write_synth,
    )
    from ptrail_ray.state.manifest import conv_partitioned_files

    src = str(tmp_path / "raw")
    out = str(tmp_path / "bucketed")
    write_synth(src, n_convs=40, mean_turns=6, seed=13, n_files=3, n_hot=0)
    job_main(
        [
            "--input", src,
            "--output", out,
            "--num-buckets", "6",
            "--partition-only",
            "--validate",
        ]
    )
    files = conv_partitioned_files(out)
    assert files is not None and len(files) >= 1  # non-empty buckets only
    # raw payload: text column preserved
    assert "text" in pq.read_schema(files[0]).names

    ref = _sorted_df(flagship(read_transcripts(src), num_buckets=4))
    got = _sorted_df(flagship_auto(out))
    pd.testing.assert_frame_equal(ref, got[ref.columns], check_dtype=False)


def test_job_prepartitioned_plan_matches_exchange_plan(ray_session, tmp_path, capsys):
    """job.py picks the exchange-free plan when the input declares a
    conv-partitioned layout; output is identical to the exchange plan
    over the same corpus with the manifest removed."""
    import glob
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tools.job import main as job_main

    from ptrail_ray.sources.transcripts import write_synth
    from ptrail_ray.state.manifest import load_job_manifest

    src = str(tmp_path / "src")
    o1, o2 = str(tmp_path / "prepart"), str(tmp_path / "exchange")
    write_synth(src, n_convs=50, mean_turns=7, seed=9, n_files=4, n_hot=0)

    job_main(["--input", src, "--output", o1, "--num-cpus", "4", "--validate"])
    assert load_job_manifest(o1)["plan"] == "prepartitioned"
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    files = glob.glob(os.path.join(o1, "bucket=*", "part.parquet"))
    assert summary["out_bytes"] == sum(os.path.getsize(f) for f in files)

    os.remove(os.path.join(src, "_manifest", "layout.json"))
    job_main(["--input", src, "--output", o2, "--num-buckets", "4",
              "--num-cpus", "4", "--validate"])
    assert "plan" not in (load_job_manifest(o2) or {})

    def load(d):
        return (
            pd.concat(
                pq.read_table(f).to_pandas()
                for f in sorted(glob.glob(os.path.join(d, "bucket=*", "part.parquet")))
            )
            .sort_values(["conv_id", "turn_idx", "ts"])
            .reset_index(drop=True)
        )

    a, b = load(o1), load(o2)
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_job_sf_side_runs_asof_backfill(ray_session, tmp_path):
    """--sf-side was a documented-but-dead CLI arg before r05; both job
    plans must now produce flagship(..., side)'s exact output."""
    import glob
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tools.job import main as job_main

    from ptrail_ray.pipelines.flagship import flagship
    from ptrail_ray.sources.transcripts import (
        read_transcripts,
        side_scd_from_events,
        write_synth,
    )

    src = str(tmp_path / "src")
    o1, o2 = str(tmp_path / "p"), str(tmp_path / "x")
    sfd = "/root/testdata/sf0.001"
    write_synth(src, n_convs=30, mean_turns=6, seed=21, n_files=3, n_hot=0)
    job_main(["--input", src, "--output", o1, "--num-cpus", "4",
              "--sf-side", sfd, "--validate"])
    os.remove(os.path.join(src, "_manifest", "layout.json"))
    job_main(["--input", src, "--output", o2, "--num-buckets", "4",
              "--num-cpus", "4", "--sf-side", sfd, "--validate"])

    ref = _sorted_df(
        flagship(read_transcripts(src), side_scd_from_events(sfd),
                 num_buckets=4)
    )

    def load(d):
        return (
            pd.concat(
                pq.read_table(f).to_pandas()
                for f in sorted(glob.glob(os.path.join(d, "bucket=*", "part.parquet")))
            )
            .sort_values(["conv_id", "turn_idx", "ts"])
            .reset_index(drop=True)
        )

    for got in (load(o1), load(o2)):
        pd.testing.assert_frame_equal(ref, got[ref.columns], check_dtype=False)


def test_job_refuses_cross_plan_resume(ray_session, tmp_path):
    """An output written by one plan must not be resumed by the other:
    exchange buckets are hash ids, prepartitioned buckets are file
    indices (code-review r05)."""
    import shutil
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tools.job import main as job_main

    from ptrail_ray.sources.transcripts import write_synth

    src = str(tmp_path / "src")
    out = str(tmp_path / "out")
    write_synth(src, n_convs=20, mean_turns=5, seed=31, n_files=2, n_hot=0)
    layout = os.path.join(src, "_manifest", "layout.json")
    layout_bak = layout + ".bak"

    # 1. exchange-plan output (layout hidden), then the input gains a
    #    layout -> prepartitioned resume must refuse
    shutil.move(layout, layout_bak)
    job_main(["--input", src, "--output", out, "--num-buckets", "3",
              "--num-cpus", "4"])
    shutil.move(layout_bak, layout)
    with pytest.raises(SystemExit, match="exchange plan"):
        job_main(["--input", src, "--output", out, "--num-cpus", "4"])

    # 2. prepartitioned output, then the layout disappears -> exchange
    #    resume must refuse
    out2 = str(tmp_path / "out2")
    job_main(["--input", src, "--output", out2, "--num-cpus", "4"])
    os.remove(layout)
    with pytest.raises(SystemExit, match="prepartitioned plan"):
        job_main(["--input", src, "--output", out2, "--num-buckets", "3",
                  "--num-cpus", "4"])


def test_job_per_file_fault_raises_and_resume_conserves(
    ray_session, tmp_path, capsys
):
    """An input file overwritten with garbage fails its bucket task: the
    job raises instead of hanging, writes no manifest for that bucket
    (the others finish), and once the file is restored a resume writes
    only that bucket and conserves every row."""
    import json
    import shutil
    import sys

    import ray

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tools.job import main as job_main

    from ptrail_ray.sources.transcripts import write_synth
    from ptrail_ray.state.manifest import completed_buckets, conv_partitioned_files

    src = str(tmp_path / "src")
    out = str(tmp_path / "out")
    write_synth(src, n_convs=30, mean_turns=6, seed=41, n_files=3, n_hot=0)
    bad = conv_partitioned_files(src)[1]
    good = str(tmp_path / "good.parquet")
    shutil.copy(bad, good)
    with open(bad, "wb") as fh:
        fh.write(b"not parquet " * 100)

    with pytest.raises(ray.exceptions.RayTaskError, match="Parquet"):
        job_main(["--input", src, "--output", out, "--num-cpus", "4"])
    assert completed_buckets(out) == {0, 2}

    shutil.copy(good, bad)
    capsys.readouterr()
    job_main(["--input", src, "--output", out, "--num-cpus", "4", "--validate"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["buckets_written_this_run"] == 1
    assert summary["validation"]["conserved"]
    assert summary["rows"] == summary["validation"]["input_rows"] > 0
    assert completed_buckets(out) == {0, 1, 2}


def test_job_split_threshold_with_sf_side_backfills_both_arms(
    ray_session, tmp_path
):
    """--sf-side must reach the _giants split arm too, and both output
    arms share one schema: names, order and types."""
    import glob
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tools.job import main as job_main

    from ptrail_ray.sources.transcripts import write_synth

    src = str(tmp_path / "src")
    out = str(tmp_path / "out")
    write_synth(src, n_convs=20, mean_turns=6, seed=7, n_files=2, n_hot=1,
                hot_turns=600)
    os.remove(os.path.join(src, "_manifest", "layout.json"))
    job_main(["--input", src, "--output", out, "--num-buckets", "3",
              "--num-cpus", "4", "--split-threshold", "500",
              "--sf-side", "/root/testdata/sf0.001", "--validate"])

    gfiles = glob.glob(os.path.join(out, "_giants", "*.parquet"))
    mfiles = glob.glob(os.path.join(out, "bucket=*", "part.parquet"))
    g = pd.concat(pq.read_table(f).to_pandas() for f in gfiles)
    m = pd.concat(pq.read_table(f).to_pandas() for f in mfiles)
    assert len(g) == 602 and len(m) == 112  # split conv vs the rest
    for df in (g, m):
        assert "attr_num" in df.columns and "attr_cat" in df.columns

    def fields(f):
        return [(x.name, x.type) for x in pq.read_schema(f)]

    ref = fields(mfiles[0])
    for f in gfiles + mfiles:
        assert fields(f) == ref, f


def test_verify_layout_proves_and_refutes(ray_session, tmp_path):
    """tools/verify_layout.py: green on a true declaration, names the
    split conversation when a producer lied."""
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import pyarrow as pa

    from tools.verify_layout import verify_layout

    from ptrail_ray.sources.transcripts import write_synth
    from ptrail_ray.state.manifest import save_layout_manifest

    d = str(tmp_path / "good")
    write_synth(d, n_convs=30, mean_turns=5, seed=17, n_files=3, n_hot=0)
    ok, n_files, n_convs, bad = verify_layout(d, num_buckets=4)
    assert ok and n_files == 3 and n_convs == 30 and bad == []

    # undeclared dir -> None (nothing to verify)
    assert verify_layout(str(tmp_path / "missing")) is None

    # a lying manifest: duplicate one conversation into a second file
    b = str(tmp_path / "bad")
    write_synth(b, n_convs=10, mean_turns=5, seed=19, n_files=2, n_hot=0)
    t = pq.read_table(os.path.join(b, "part-0000.parquet"))
    first_conv = t["conv_id"][0].as_py()
    rows = t.filter(pa.compute.equal(t["conv_id"], first_conv))
    pq.write_table(rows, os.path.join(b, "part-0099.parquet"))
    save_layout_manifest(
        b,
        ["part-0000.parquet", "part-0001.parquet", "part-0099.parquet"],
        producer="test-liar",
    )
    ok, _, _, bad = verify_layout(b, num_buckets=4)
    assert not ok
    assert any(r["conv_id"] == first_conv for r in bad)
