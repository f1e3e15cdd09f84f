"""BPE merge-table training: the iterative tokenizer-building loop.

Extends `queries.q_token_pair_counts` (the single first-merge
statistic) to the full Sennrich-style byte-pair-encoding training
loop, structured for scale:

* The CORPUS is touched exactly once — one streaming pass reduces it
  to the distinct-WORD histogram (map-side partial counts, then one
  vocab-scale groupby — the same bounded-cardinality contract as
  `stages/textstats.token_rarity`: web-scale corpora have ~10^7
  distinct words, not 10^12).
* Each merge round runs over the HISTOGRAM, not the corpus: a
  map-side weighted pair count partial, one tiny pair groupby, a
  driver-side top-1 (count desc, pair asc — deterministic ties), and
  a vectorized-per-word merge application. The histogram is
  materialized per round (bounded object), so round N+1 does not
  re-execute round N's lineage.

No SQL oracle (iterative); pytest pins the trainer to a pure-Python
reference implementation and `q_token_pair_counts` oracle-pins the
round-1 statistic.
"""

from __future__ import annotations

from typing import List, Tuple

import pyarrow as pa

_EOW = "</w>"


def _word_symbols(word: str) -> List[str]:
    if not word:
        return []
    syms = list(word)
    syms[-1] = syms[-1] + _EOW
    return syms


def _merge_word(syms: List[str], a: str, b: str) -> List[str]:
    """Replace every adjacent (a, b) with a+b, left-to-right."""
    out: List[str] = []
    i, n = 0, len(syms)
    while i < n:
        if i + 1 < n and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def word_histogram(ds, text_col: str = "text"):
    """One corpus pass → distinct-word counts (word, count)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            counts.update((t or "").split(" "))
        counts.pop("", None)
        return pa.table({
            "word": pa.array(list(counts.keys()), pa.string()),
            "count": pa.array(list(counts.values()), pa.int64()),
        })

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("word").aggregate(Sum("count", alias_name="count"))
    )


def bpe_train(ds, text_col: str = "text", n_merges: int = 20,
              min_count: int = 2) -> pa.Table:
    """Learn ``n_merges`` BPE merges; returns (rank, left, right,
    count) — count = weighted pair frequency when the merge was
    chosen. Stops early when the best pair drops below
    ``min_count``."""
    from collections import Counter

    from ray.data.aggregate import Sum

    hist = word_histogram(ds, text_col)

    def _to_syms(batch: pa.Table) -> pa.Table:
        return pa.table({
            "syms": pa.array(
                [_word_symbols(w)
                 for w in batch.column("word").to_pylist()],
                pa.list_(pa.string())),
            "count": batch.column("count"),
        })

    work = hist.map_batches(_to_syms, batch_format="pyarrow") \
        .materialize()

    merges: List[Tuple[int, str, str, int]] = []
    for rank in range(n_merges):
        def _pair_partial(batch: pa.Table) -> pa.Table:
            counts: Counter = Counter()
            for syms, c in zip(batch.column("syms").to_pylist(),
                               batch.column("count").to_pylist()):
                for i in range(len(syms) - 1):
                    counts[(syms[i], syms[i + 1])] += c
            return pa.table({
                "a": pa.array([k[0] for k in counts], pa.string()),
                "b": pa.array([k[1] for k in counts], pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            })

        top = (
            work.map_batches(_pair_partial, batch_format="pyarrow")
            .groupby(["a", "b"]).aggregate(Sum("n", alias_name="n"))
            .sort(["n", "a", "b"], descending=[True, False, False])
            .limit(1).take_all()
        )
        if not top or top[0]["n"] < min_count:
            break
        a, b, n = top[0]["a"], top[0]["b"], int(top[0]["n"])
        merges.append((rank, a, b, n))

        def _apply(batch: pa.Table, a=a, b=b) -> pa.Table:
            return pa.table({
                "syms": pa.array(
                    [_merge_word(s, a, b)
                     for s in batch.column("syms").to_pylist()],
                    pa.list_(pa.string())),
                "count": batch.column("count"),
            })

        work = work.map_batches(_apply, batch_format="pyarrow") \
            .materialize()

    return pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "count": pa.array([m[3] for m in merges], pa.int64()),
    })
