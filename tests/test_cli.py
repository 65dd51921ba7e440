"""CLI verb round-trip (dupers_ray/cli.py) — the reference's task surface
(task.go:42-56) driven end-to-end against a tmp index dir."""
from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dupers_ray.cli import main


def _corpus(path: str, rows: dict[str, str]) -> str:
    pq.write_table(
        pa.table(
            {
                "url": list(rows),
                "text": list(rows.values()),
            }
        ),
        path,
    )
    return path


@pytest.fixture()
def env(tmp_path):
    corpus = _corpus(
        str(tmp_path / "corpus.parquet"),
        {
            "http://a/1": "alpha text one",
            "http://a/2": "beta text two",
            "http://a/3": "alpha text one",  # exact dup of /1
            "http://b/readme.txt": "readme body",
        },
    )
    idx = str(tmp_path / "index")
    return tmp_path, corpus, idx


def test_up_ls_db_search(env, capsys):
    tmp, corpus, idx = env
    assert main(["up", "--index", idx, corpus, "--bucket", "b1"]) == 0
    t = pq.read_table(idx)
    assert t.num_rows == 4 and set(t.column_names) == {
        "bucket", "url", "digest", "digest_u64"
    }
    assert main(["ls", "--index", idx]) == 0
    out = capsys.readouterr().out
    assert "http://a/1" in out and out.index("http://a/1") < out.index("http://b/readme.txt")

    assert main(["db", "--index", idx]) == 0
    out = capsys.readouterr().out
    assert "'n': 4" in out and "__total__" in out

    assert main(["search", "--index", idx, "readme", "--name"]) == 0
    out = capsys.readouterr().out
    assert "readme.txt" in out and "http://a/1" not in out


def test_up_incremental(env, tmp_path):
    tmp, corpus, idx = env
    main(["up", "--index", idx, corpus, "--bucket", "b1"])
    c2 = _corpus(
        str(tmp_path / "c2.parquet"),
        {"http://a/1": "CHANGED", "http://c/new": "brand new page"},
    )
    main(["up", "--index", idx, c2, "--bucket", "b1"])
    t = pq.read_table(idx)
    assert t.num_rows == 5  # only the new url was added
    kept = {
        u: d
        for u, d in zip(t.column("url").to_pylist(), t.column("digest").to_pylist())
    }
    # walkCompare semantics: existing url keeps its stored digest
    from dupers_ray.functions.hashing import sha256_hex

    assert kept["http://a/1"] == sha256_hex(b"alpha text one")
    assert "http://c/new" in kept


def test_dupe_against_index(env, tmp_path, capsys):
    tmp, corpus, idx = env
    main(["up", "--index", idx, corpus, "--bucket", "b1"])
    src = _corpus(
        str(tmp_path / "src.parquet"),
        {"file:///downloads/x": "alpha text one", "file:///downloads/y": "nope"},
    )
    out_dir = str(tmp_path / "pairs")
    assert main(["dupe", "--index", idx, src, "--out", out_dir]) == 0
    pairs = pq.read_table(out_dir)
    urls = set(pairs.column("url").to_pylist()) | set(
        pairs.column("match_url").to_pylist()
    )
    assert "file:///downloads/x" in urls and "file:///downloads/y" not in urls


def test_export_import_mv_rm_clean_backup(env, tmp_path, capsys):
    tmp, corpus, idx = env
    main(["up", "--index", idx, corpus, "--bucket", "b1"])

    csv_path = str(tmp_path / "b1.csv")
    assert main(["export", "--index", idx, "--bucket", "b1", "--out", csv_path]) == 0
    assert open(csv_path).readline().startswith("sha256_sum,path#")

    assert main(["rm", "--index", idx, "b1"]) == 0
    assert pq.read_table(idx).num_rows == 0
    assert main(["import", "--index", idx, csv_path]) == 0
    assert pq.read_table(idx).num_rows == 4

    assert main(["mv", "--index", idx, "b1", "b2"]) == 0
    assert set(pq.read_table(idx).column("bucket").to_pylist()) == {"b2"}

    assert main(["backup", "--index", idx, "--tag", "t1"]) == 0
    assert main(["backup", "--index", idx, "--list"]) == 0
    assert "t1" in capsys.readouterr().out

    live = _corpus(
        str(tmp_path / "live.parquet"),
        {"http://a/1": "x", "http://a/2": "y"},
    )
    assert main(["clean", "--index", idx, live]) == 0
    assert sorted(pq.read_table(idx).column("url").to_pylist()) == [
        "http://a/1", "http://a/2",
    ]


def test_tiers_verb_with_store(env, tmp_path, capsys):
    tmp, corpus, idx = env
    out_pq = str(tmp_path / "tiers.parquet")
    store = str(tmp_path / "fused_store")
    # first run: writes the fused store + labels
    assert main(["tiers", corpus, "--store", store, "--out", out_pq]) == 0
    t = pq.read_table(out_pq)
    labels = dict(zip(t.column("url").to_pylist(), t.column("tier").to_pylist()))
    assert labels["http://a/3"] == "exact" and labels["http://a/1"] == "kept"
    assert os.path.isdir(store)
    # second run: incremental against the persisted store, same labels
    assert main(["tiers", corpus, "--store", store, "--out", out_pq]) == 0
    t2 = pq.read_table(out_pq)
    labels2 = dict(zip(t2.column("url").to_pylist(), t2.column("tier").to_pylist()))
    assert labels2 == labels
    assert "fused store now" in capsys.readouterr().out


def test_up_clean_shuffle_path(env, tmp_path, force_cogroup):
    """Force the hash-partitioned anti-join path (joins.BROADCAST_ROWS = 0) and
    check `up`/`clean` produce byte-identical indexes to the broadcast
    path — the count-gated switch the library already uses (tiers.py),
    now on the CLI verbs so a billion-row index never take_all()s onto
    the driver (mirrors walkCompare, pkg/dupe/dupe.go:940-966)."""
    tmp, corpus, idx = env
    c2 = _corpus(
        str(tmp_path / "c2.parquet"),
        {"http://a/1": "CHANGED", "http://c/new": "brand new page"},
    )
    live = _corpus(
        str(tmp_path / "live.parquet"),
        {"http://a/1": "x", "http://c/new": "y"},
    )

    def run(index_dir: str) -> list[tuple]:
        main(["up", "--index", index_dir, corpus, "--bucket", "b1"])
        main(["up", "--index", index_dir, c2, "--bucket", "b1"])
        assert main(["clean", "--index", index_dir, live]) == 0
        t = pq.read_table(index_dir)
        return sorted(
            zip(t.column("url").to_pylist(), t.column("digest").to_pylist())
        )

    broadcast = run(idx)

    calls = force_cogroup()
    shuffled = run(str(tmp_path / "index_shuffle"))
    assert calls["membership"] == 2  # the second `up` and `clean`

    assert shuffled == broadcast
    assert [u for u, _ in shuffled] == ["http://a/1", "http://c/new"]


def test_windows_path_check(tmp_path, capsys):
    """M13 (reference WindowsChk, pkg/cmd/cmd.go:198-247): drive-letter
    paths with a cmd.exe-escaped trailing quote or a bare drive root are
    rejected before any I/O; posix paths and clean Windows paths pass."""
    from dupers_ray.cli import windows_path_check

    assert windows_path_check("/data/corpus.parquet") is None
    assert windows_path_check("relative/path") is None
    assert windows_path_check("C:\\data\\corpus") is None
    assert windows_path_check("") is None
    assert windows_path_check('C:\\data"') is not None  # escaped quote
    assert windows_path_check("C:\\") is not None       # bare drive root

    rc = main(["ls", "--index", 'C:\\broken"'])
    assert rc == 2
    assert "trailing backslash" in capsys.readouterr().err


def test_rank_and_select_verbs(env, tmp_path, capsys):
    """Engine-new round-3 verbs: `rank` (PageRank/HITS over raw html)
    and `select` (DSIR weights / top-k)."""
    import numpy as np

    from dupers_ray.synth import synth_doc_html

    batch = pa.table({
        "doc_id": pa.array(range(8), pa.int64()),
        "text": pa.array([f"body {i} alpha" if i < 4 else f"body {i} beta"
                          for i in range(8)]),
        "source": pa.array(["tgt"] * 4 + ["raw"] * 4),
    })
    pages = synth_doc_html(batch, n_docs=8)
    pages = pages.append_column("text", batch.column("text"))
    pages = pages.append_column("source", batch.column("source"))
    corpus = str(tmp_path / "html_corpus.parquet")
    pq.write_table(pages, corpus)

    out = str(tmp_path / "ranks")
    assert main(["rank", corpus, "--id-col", "doc_id", "--out", out]) == 0
    t = pq.read_table(out)
    assert set(t.column_names) == {"host", "pr_ppm"}
    assert t.num_rows == 8 and (np.array(t.column("pr_ppm")) >= 150_000).all()

    out2 = str(tmp_path / "hits")
    assert main(["rank", corpus, "--id-col", "doc_id", "--algo", "hits",
                 "--out", out2]) == 0
    assert set(pq.read_table(out2).column_names) == {"host", "auth_ppm",
                                                     "hub_ppm"}

    out3 = str(tmp_path / "sel")
    assert main(["select", corpus, "--id-col", "doc_id",
                 "--target-col", "source", "--target-value", "tgt",
                 "--k", "3", "--out", out3]) == 0
    sel = pq.read_table(out3)
    assert sel.num_rows == 3
    assert set(sel.column_names) == {"doc_id", "n_tokens", "score"}


def test_warc_and_curate_verbs(tmp_path):
    import numpy as np

    from dupers_ray.sources.warc import build_warc
    from dupers_ray.synth import synth_doc_html_blocks

    # warc verb: two files (one gzip-membered), pages + cdx outputs
    recs = [
        (f"https://h{i}.example/p", 1_700_000_000_000_000 + i * 1_000_000,
         f"<p>body {i}</p>".encode())
        for i in range(6)
    ]
    w1, w2 = str(tmp_path / "a.warc"), str(tmp_path / "b.warc.gz")
    open(w1, "wb").write(build_warc(recs[:3]))
    open(w2, "wb").write(build_warc(recs[3:], gzip_members=True))

    out = str(tmp_path / "pages")
    assert main(["warc", w1, w2, "--out", out]) == 0
    t = pq.read_table(out)
    assert t.num_rows == 6
    assert set(t.column_names) == {"url", "warc_ts", "html", "warc_error"}

    out2 = str(tmp_path / "cdx")
    assert main(["warc", w1, w2, "--cdx", "--out", out2]) == 0
    c = pq.read_table(out2).sort_by("surt")
    assert c.num_rows == 6
    assert c.column("surt")[0].as_py() == "example,h0)/p"

    # curate verb over block pages with a host column
    docs = pa.table({
        "doc_id": list(range(8)),
        "text": [f"alpha beta gamma delta {i}" for i in range(8)],
        "host": ["a"] * 4 + ["b"] * 4,
    })
    pages = synth_doc_html_blocks(docs)
    pages = pages.append_column("host", docs.column("host"))
    corpus = str(tmp_path / "blocks.parquet")
    pq.write_table(pages, corpus)
    out3 = str(tmp_path / "curated")
    assert main(["curate", corpus, "--id-col", "doc_id", "--out", out3]) == 0
    cur = pq.read_table(out3)
    # doc_id % 7 == 3 dropped by noindex -> 7 rows survive
    assert cur.num_rows == 7
    assert set(cur.column_names) == {
        "doc_id", "n_lines", "n_removed", "clean_text"
    }
    by_id = {d: s for d, s in zip(cur.column("doc_id").to_pylist(),
                                  cur.column("clean_text").to_pylist())}
    assert "alpha beta gamma delta 5" in by_id[5]


def test_pack_and_mirrors_verbs(tmp_path):
    import numpy as np

    docs = pa.table({
        "doc_id": pa.array(np.arange(20, dtype=np.int64)),
        "text": [f"tok{j} " * (j % 5 + 1) for j in range(20)],
    })
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)

    out = str(tmp_path / "layout")
    assert main(["pack", corpus, "--seq-len", "16",
                 "--layout", "--out", out]) == 0
    lay = pq.read_table(out)
    assert lay.num_rows == 20
    assert set(lay.column_names) == {
        "doc_id", "n_tokens", "start_offset", "first_seq", "last_seq"
    }

    out2 = str(tmp_path / "windows")
    assert main(["pack", corpus, "--seq-len", "16", "--out", out2]) == 0
    win = pq.read_table(out2)
    total = int(pa.compute.sum(lay.column("n_tokens")).as_py()) + 20
    assert int(pa.compute.sum(win.column("n_toks")).as_py()) == total

    mirrors = pa.table({
        "host": ["a"] * 4 + ["b"] * 4,
        "text": ["x", "y", "z", "a-only", "x", "y", "z", "b-only"],
    })
    mcorpus = str(tmp_path / "mirror.parquet")
    pq.write_table(mirrors, mcorpus)
    out3 = str(tmp_path / "mirrors")
    assert main(["mirrors", mcorpus, "--min-jaccard", "0.5",
                 "--out", out3]) == 0
    m = pq.read_table(out3)
    assert m.num_rows == 1
    assert m.column("n_inter")[0].as_py() == 3
    assert abs(m.column("jaccard")[0].as_py() - 0.6) < 1e-9


def test_split_and_identity_verbs(tmp_path):
    import numpy as np

    from dupers_ray.synth import synth_redirect_pages

    docs = pa.table({
        "doc_id": pa.array(np.arange(30, dtype=np.int64)),
        "text": [f"group{j // 3} words here repeated enough " * 3
                 for j in range(30)],
    })
    corpus = str(tmp_path / "docs.parquet")
    pq.write_table(docs, corpus)
    out = str(tmp_path / "split")
    assert main(["split", corpus, "--out", out]) == 0
    sp = pq.read_table(out)
    assert sp.num_rows == 30
    assert set(sp.column("split").to_pylist()) <= {"train", "val", "test"}
    df = sp.to_pandas()
    assert (df.groupby("cluster_id")["split"].nunique() == 1).all()

    fix = synth_redirect_pages(
        pa.table({"doc_id": pa.array(np.arange(24, dtype=np.int64))}))
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(fix.select(["doc_id", "url", "html"]), pages)
    red = str(tmp_path / "redirects.parquet")
    pq.write_table(pa.table({
        "id": fix.column("doc_id"), "ptr": fix.column("ptr")}), red)
    out2 = str(tmp_path / "identity")
    assert main(["identity", pages, red, "--out", out2]) == 0
    ident = pq.read_table(out2).to_pandas().sort_values("doc_id")
    assert ident.cluster.tolist() == [i - i % 12 for i in range(24)]


def test_tiers_budget_plan_weight_col(tmp_path, capsys):
    """--budget-ppm with a non-default --weight-col prints the surviving
    mass under the weight column's own name (ADVICE r4: 'chars' labels
    misdescribed --weight-col n_tokens numbers)."""
    corpus = str(tmp_path / "wc.parquet")
    pq.write_table(
        pa.table({
            "url": [f"http://w/{i}" for i in range(6)],
            "text": ["same body text here"] * 3
                    + ["other page", "third page", "fourth page"],
            "n_tokens": pa.array([4] * 6, pa.int64()),
        }),
        corpus,
    )
    assert main(["tiers", corpus, "--budget-ppm", "600000",
                 "--weight-col", "n_tokens"]) == 0
    out = capsys.readouterr().out
    assert "n_tokens" in out          # labeled by weight col, not 'chars'
    assert "chars" not in out
    # 4 cascade-prefix rows: none / exact / normalized / near
    assert len([ln for ln in out.strip().splitlines() if "\t" in ln]) == 4
