"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry through Ray AND its ``oracle_sql()``
twin through DuckDB on the same sf dir, then compares row count,
schema (column names + dtypes, sorted by name) and an
order-insensitive value comparison — mirroring CORRECTNESS_r{N}.json.

Usage: python scripts/check_oracle.py [sf_dir] [query ...]

Without query names every query runs, in chunk processes of
``$ORACLE_CHUNK`` queries each (default 40).
"""

from __future__ import annotations

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import duckdb
import pandas as pd

TABLES = ["orders", "events", "documents", "embeddings"]
# the line main() prints for each query it reaches a verdict on
_VERDICT = re.compile(r"^(OK|rows|FAIL|ERROR)\s+(\S+):")


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray.data.Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    if len(df):
        df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df.reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rows {len(ray_df)} != {len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(
            f"cols {sorted(ray_df.columns)} != {sorted(sql_df.columns)}"
        )
    if not problems:
        a, b = normalize(ray_df), normalize(sql_df)
        dt_a = [str(t) for t in a.dtypes]
        dt_b = [str(t) for t in b.dtypes]
        if dt_a != dt_b:
            problems.append(f"dtypes {dt_a} != {dt_b}")
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False)
        except AssertionError as exc:
            problems.append("values: " + str(exc).split("\n")[0:3].__repr__())
    return "; ".join(problems)


def _run_chunk(sf_dir: str, names) -> dict:
    """Run ``names`` in one fresh process, echoing its output; return
    the verdict (``OK``/``rows``/``FAIL``/``ERROR``) each query
    printed. A query missing from the result got none: its process
    died first."""
    import subprocess

    wanted = set(names)
    verdicts = {}
    # -u: a verdict printed before an abort is not lost in a buffer
    proc = subprocess.Popen(
        [sys.executable, "-u", os.path.abspath(__file__), sf_dir, *names],
        cwd=REPO, stdout=subprocess.PIPE, text=True)
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        m = _VERDICT.match(line)
        if m and m.group(2) in wanted:
            verdicts[m.group(2)] = m.group(1)
    code = proc.wait()
    if code:
        print(f"(process exited with code {code})", flush=True)
    return verdicts


def chunked_main(sf_dir: str, chunk: int) -> int:
    """Full-surface mode: run all registered queries in CHUNKS of
    ``chunk`` queries, each chunk in a fresh subprocess.

    One long-lived local Ray driver accumulates ~1000s of finished
    Datasets over a full gate; past ~90 query plans ray 2.49's
    ReferenceCounter can hit a fatal internal race
    (``Check failed: submitted_task_ref_count > 0``) that kills the
    driver mid-gate — a Ray bug, not a query bug (every query passes
    in isolation). Fresh processes bound the per-driver plan count.
    The race can still kill a chunk: the queries of that chunk that
    printed no verdict run once more, together in one fresh process
    (a query that printed FAIL or ERROR never reruns). A query still
    without a verdict fails the gate by name.
    """
    from ocr_pipeline_ray.queries import QUERIES

    names = list(QUERIES)
    verdicts = {}
    for i in range(0, len(names), chunk):
        verdicts.update(_run_chunk(sf_dir, names[i:i + chunk]))
    missing = [n for n in names if n not in verdicts]
    if missing:
        print(f"\nno verdict for {len(missing)} queries (their process "
              f"died); running them again: {missing}", flush=True)
        verdicts.update(_run_chunk(sf_dir, missing))
    failed = [n for n in names if verdicts.get(n) in ("FAIL", "ERROR")]
    missing = [n for n in names if n not in verdicts]
    print()
    if failed:
        print("FAILED:", failed)
    if missing:
        print("NO VERDICT:", missing)
    if failed or missing:
        return 1
    print(f"all queries match their oracles ({len(names)} with a "
          f"verdict)")
    return 0


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not only:
        return chunked_main(sf_dir, int(os.environ.get("ORACLE_CHUNK", "40")))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        path = f"{sf_dir}/{t}.parquet"
        if os.path.exists(path):
            con.sql(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')"
            )

    import time

    failed = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"ERROR  {name}: ray side raised {type(exc).__name__}: {exc}")
            failed.append(name)
            continue
        t_ray = time.time() - t0
        if name not in oracles:
            print(f"rows   {name}: {len(ray_df)} rows (no oracle — "
                  f"rows-only) [ray {t_ray:.1f}s]", flush=True)
            continue
        t0 = time.time()
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as exc:
            print(f"ERROR  {name}: oracle raised {type(exc).__name__}: {exc}")
            failed.append(name)
            continue
        t_sql = time.time() - t0
        problem = compare(name, ray_df, sql_df)
        if problem:
            print(f"FAIL   {name}: {problem}")
            failed.append(name)
        else:
            print(f"OK     {name}: {len(ray_df)} rows "
                  f"[ray {t_ray:.1f}s, sql {t_sql:.1f}s]", flush=True)
    print()
    if failed:
        print("FAILED:", failed)
        return 1
    print("all queries match their oracles")
    return 0


if __name__ == "__main__":
    code = main()
    import ray

    ray.shutdown()
    sys.exit(code)
