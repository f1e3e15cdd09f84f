"""PII redaction: pattern behavior, ordering contract, summary merge."""

import duckdb
import pyarrow as pa

from ocr_pipeline_ray.stages.pii import (
    PII_PATTERNS,
    pii_redact_fn,
    pii_summary,
)


def _tbl(texts):
    return pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


class TestPiiRedactFn:
    def test_all_types(self):
        out = pii_redact_fn(_tbl([
            "mail a.b+c@ex.co or x@y.org, host 10.0.0.1, tel +49-30-123456",
        ]))
        assert out.column("text_redacted").to_pylist() == [
            "mail <EMAIL> or <EMAIL>, host <IP>, tel <PHONE>",
        ]
        assert out.column("n_email").to_pylist() == [2]
        assert out.column("n_ip").to_pylist() == [1]
        assert out.column("n_phone").to_pylist() == [1]

    def test_ordering_email_host_shields_ip(self):
        # the email pattern consumes a dotted-quad *local/host* part
        # before the ip pattern runs — ordering is the contract
        out = pii_redact_fn(_tbl(["x 1.2.3.4@ex.com y 1.2.3.4 z"]))
        assert out.column("text_redacted").to_pylist() == [
            "x <EMAIL> y <IP> z",
        ]
        assert out.column("n_email").to_pylist() == [1]
        assert out.column("n_ip").to_pylist() == [1]

    def test_no_pii_and_null(self):
        out = pii_redact_fn(_tbl(["plain words only", None]))
        assert out.column("text_redacted").to_pylist() == [
            "plain words only", "",
        ]
        for name, _, _ in PII_PATTERNS:
            assert out.column(f"n_{name}").to_pylist() == [0, 0]

    def test_word_boundaries(self):
        # leftmost-boundary RE2 semantics: in "v1.2.3.4.5" the first
        # \b-anchored quad starts after "v1." (v→1 is not a boundary);
        # digits glued to letters don't hit the phone rule (no \b)
        out = pii_redact_fn(_tbl(["v1.2.3.4.5 abc+1-23-456def"]))
        assert out.column("text_redacted").to_pylist() == [
            "v1.<IP> abc+1-23-456def",
        ]

    def test_matches_duckdb_regexes(self):
        texts = [
            "a@b.io 255.255.255.255 +1-800-5551212",
            "no hits", "double 8.8.8.8 8.8.4.4",
            "u.v-w_x%y+z@deep.sub.example.travel",
        ]
        col = _tbl(texts).column("text")
        got = pii_redact_fn(_tbl(texts)).column("text_redacted").to_pylist()
        con = duckdb.connect()
        con.register("t", pa.table({"x": col}))
        expr = "x"
        for _, pat, repl in PII_PATTERNS:
            expr = f"regexp_replace({expr}, '{pat}', '{repl}', 'g')"
        expect = [r[0] for r in con.sql(f"SELECT {expr} FROM t").fetchall()]
        assert got == expect


class TestPiiDataset:
    def test_redact_and_summary(self, ray_session):
        import ray.data

        texts = (["e a@b.cc"] * 3 + ["i 1.2.3.4"] * 2
                 + ["p +1-22-333"] + ["clean"] * 4)
        ds = ray.data.from_arrow(_tbl(texts)).repartition(4)
        red = ds.map_batches(pii_redact_fn,
                             batch_format="pyarrow").take_all()
        assert sum(r["n_email"] for r in red) == 3
        summary = pii_summary(ds).take_all()
        assert summary == [{
            "n_email": 3, "n_ip": 2, "n_phone": 1, "n_docs_hit": 6,
        }]
