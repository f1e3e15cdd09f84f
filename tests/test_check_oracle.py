"""``scripts/check_oracle.py`` full-surface mode reaches a verdict on
every query: the queries of a chunk process that died without printing
theirs run once more, together, and a query still without a verdict
fails the gate by name. A query that printed FAIL or ERROR never
reruns."""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from scripts import check_oracle  # noqa: E402

NAMES = ["q_a", "q_b", "q_c", "q_d", "q_e"]


@pytest.fixture
def chunks(monkeypatch):
    """Five registered queries in chunks of two; returns a function
    that installs the verdicts each successive chunk process prints
    and the list of the name lists it was run with."""
    import ocr_pipeline_ray.queries as queries

    monkeypatch.setattr(queries, "QUERIES", {n: None for n in NAMES})

    def install(*printed):
        calls = []

        def run_chunk(sf_dir, names):
            calls.append(list(names))
            return {n: v for n, v in printed[len(calls) - 1].items()
                    if n in names}

        monkeypatch.setattr(check_oracle, "_run_chunk", run_chunk)
        return calls

    return install


def test_every_query_with_a_verdict_passes(chunks, capsys):
    calls = chunks({"q_a": "OK", "q_b": "OK"}, {"q_c": "OK", "q_d": "rows"},
                   {"q_e": "OK"})
    assert check_oracle.chunked_main("sf", 2) == 0
    assert calls == [["q_a", "q_b"], ["q_c", "q_d"], ["q_e"]]
    assert "all queries match their oracles (5 with a verdict)" in \
        capsys.readouterr().out


def test_silent_queries_rerun_once_together(chunks):
    # the second chunk died after q_c, the first before printing q_a
    calls = chunks({"q_b": "OK"}, {"q_c": "OK"}, {"q_e": "OK"},
                   {"q_a": "OK", "q_d": "rows"})
    assert check_oracle.chunked_main("sf", 2) == 0
    assert calls[3:] == [["q_a", "q_d"]]


def test_fail_and_error_never_rerun(chunks, capsys):
    calls = chunks({"q_a": "FAIL"}, {"q_c": "ERROR", "q_d": "OK"},
                   {"q_e": "OK"}, {"q_b": "OK"})
    assert check_oracle.chunked_main("sf", 2) == 1
    assert calls[3:] == [["q_b"]]
    out = capsys.readouterr().out
    assert "FAILED: ['q_a', 'q_c']" in out
    assert "NO VERDICT" not in out


def test_query_still_silent_fails_by_name(chunks, capsys):
    calls = chunks({"q_a": "OK", "q_b": "OK"}, {"q_c": "OK"}, {"q_e": "OK"},
                   {})
    assert check_oracle.chunked_main("sf", 2) == 1
    assert len(calls) == 4
    out = capsys.readouterr().out
    assert "NO VERDICT: ['q_d']" in out
    assert "all queries match" not in out


def test_no_rerun_when_every_query_has_a_verdict(chunks):
    calls = chunks({"q_a": "FAIL", "q_b": "OK"}, {"q_c": "OK", "q_d": "OK"},
                   {"q_e": "ERROR"})
    assert check_oracle.chunked_main("sf", 2) == 1
    assert len(calls) == 3


class _Proc:
    """A chunk process that prints ``lines`` and exits with ``code``."""

    def __init__(self, lines, code):
        self.stdout = iter(line + "\n" for line in lines)
        self.code = code

    def wait(self):
        return self.code


def _popen(monkeypatch, lines, code):
    argv = []

    def popen(cmd, **kwargs):
        argv.append(cmd)
        return _Proc(lines, code)

    monkeypatch.setattr(subprocess, "Popen", popen)
    return argv


def test_run_chunk_collects_the_verdicts_of_its_queries(monkeypatch,
                                                        capsys):
    lines = ["OK     q_a: 3 rows [ray 0.1s, sql 0.0s]",
             "a log line from a Ray worker",
             "rows   q_b: 2 rows (no oracle — rows-only) [ray 0.1s]",
             "FAIL   q_other: row count 1 vs 2",
             "ERROR  q_c: ray side raised ValueError: boom"]
    argv = _popen(monkeypatch, lines, 0)
    got = check_oracle._run_chunk("sf", ["q_a", "q_b", "q_c"])
    assert got == {"q_a": "OK", "q_b": "rows", "q_c": "ERROR"}
    # unbuffered, so a verdict printed before an abort is not lost
    assert argv[0][1] == "-u"
    assert argv[0][-4:] == ["sf", "q_a", "q_b", "q_c"]
    out = capsys.readouterr().out
    assert out.splitlines() == lines


def test_run_chunk_keeps_verdicts_printed_before_an_abort(monkeypatch,
                                                          capsys):
    _popen(monkeypatch, ["OK     q_a: 1 rows [ray 0.1s, sql 0.0s]"], -6)
    assert check_oracle._run_chunk("sf", ["q_a", "q_b"]) == {"q_a": "OK"}
    assert "(process exited with code -6)" in capsys.readouterr().out


@pytest.mark.parametrize("line, verdict", [
    ("OK     q_x: 4 rows [ray 0.2s, sql 0.0s]", ("OK", "q_x")),
    ("rows   q_x: 4 rows (no oracle — rows-only) [ray 0.2s]",
     ("rows", "q_x")),
    ("FAIL   q_x: schema differs", ("FAIL", "q_x")),
    ("ERROR  q_x: oracle raised ParserException: bad", ("ERROR", "q_x")),
    ("FAILED: ['q_x']", None),
    ("all queries match their oracles", None),
])
def test_verdict_pattern_reads_the_lines_main_prints(line, verdict):
    m = check_oracle._VERDICT.match(line)
    assert (m.groups() if m else None) == verdict
