"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline over
``/root/testdata/sf0.001``; ``queries()`` exposes one Ray pipeline per
registered query (170: the SURVEY.md §2 operators plus the dedup /
similarity / text-analysis / web / storage extensions);
``oracle_sql()`` gives the DuckDB twin for each of the 164
SQL-expressible ones.

The registry is being cut down to a keep-list, written out in the
``ocr_pipeline_ray.queries`` docstring: the ``_extraction`` queries
that pin a SURVEY §2 row, plus the queries that pin the operators of
the CLI tails (``--training-data``, ``--audit``, ``--embed``).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` happens here or anywhere in the
library. Run from the repo root (or with PYTHONPATH=/root/repo) so Ray
workers can import ``ocr_pipeline_ray``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (rows >= 0, stable schema)."""
    from ocr_pipeline_ray.queries._extraction import q_extraction_flagship

    return q_extraction_flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2."""
    from ocr_pipeline_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL per query (omitted → rows-only check)."""
    from ocr_pipeline_ray.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
