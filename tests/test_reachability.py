"""Dead-code, unused-import, bench-list and CLI-closure gates.

``scripts/reachability.py`` walks the checkout's ASTs from the product
roots (every CLI flag, ``__ray_entry__.entry/queries/oracle_sql``,
``bench.py``, ``scripts/``, ``clibench/``) and from ``tests/``. Every
package def needs a product caller: code neither reaches is dead, and
code only tests reach is dead too — a reference replica or a fixture
writer lives under ``tests/``. Every module-level import of the
package is used (or marked ``# noqa: F401`` as a side effect or a
re-export), and every ``__all__`` name is taken by another module. A
query name ``bench.py --families`` lists must be a registered query.
The CLI's function-level imports reach no module beyond the CLI
closure except the two ``stages/textstats.py`` needs.
"""

import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from scripts import reachability  # noqa: E402
from scripts.reachability import audit  # noqa: E402


@pytest.fixture(scope="module")
def report():
    return audit()


def test_every_package_def_is_reached(report):
    dead = {r["module"]: r["dead_defs"] for r in report["modules"]
            if r["dead_defs"]}
    assert not dead, f"top-level defs no product root or test reaches: {dead}"
    # a module nothing loads has dead lines but may bind no name
    dead_lines = {r["module"]: r["dead"] for r in report["modules"]
                  if r["dead"]}
    assert not dead_lines, f"lines no root reaches: {dead_lines}"


def test_no_def_is_reached_only_from_tests(report):
    test_only = {r["module"]: r["test_only_defs"] for r in report["modules"]
                 if r["test_only_defs"]}
    assert not test_only, (
        f"defs only tests reach (give them a product caller, or move "
        f"them into tests/): {test_only}")
    assert report["totals"]["test_only"] == 0


def test_no_unused_module_imports(report):
    unused = {r["module"]: r["unused_imports"] for r in report["modules"]
              if r["unused_imports"]}
    assert not unused, f"module-level imports the module never uses: {unused}"


def test_no_unused_exports(report):
    unused = {r["module"]: r["unused_exports"] for r in report["modules"]
              if r["unused_exports"]}
    assert not unused, f"__all__ names no other module takes: {unused}"


def test_lines_add_up(report):
    for r in report["modules"]:
        with open(os.path.join(REPO, r["module"]), encoding="utf-8") as fh:
            assert r["total"] == len(fh.read().splitlines()), r["module"]
        assert r["product"] + r["test_only"] + r["dead"] == r["total"]


def test_family_bench_names_are_registered_queries():
    """``bench.py --families`` names (``BENCH_QUERIES`` is pinned by
    ``test_curation.test_bench_queries_exist``)."""
    import bench
    from ocr_pipeline_ray.queries import QUERIES

    listed = {name for names in bench.FAMILY_BENCH.values()
              for name in names}
    missing = sorted(listed - set(QUERIES))
    assert not missing, f"--families names with no QUERIES entry: {missing}"


def test_cli_file_closure_adds_only_textstats_imports(report):
    """The function-level imports of the CLI's modules may load only
    ``functions.segments`` and ``stages.bucketed`` beyond the CLI
    closure: ``stages/textstats.py`` imports both, and it is the only
    CLI module that imports ``stages.bucketed``."""
    extra = (set(report["cli_file_closure"]["names"])
             - set(report["cli_closure"]["names"]))
    allowed = {"ocr_pipeline_ray.functions.segments",
               "ocr_pipeline_ray.stages.bucketed"}
    assert extra <= allowed, (
        f"CLI file closure modules beyond the CLI closure: "
        f"{sorted(extra - allowed)}; only {sorted(allowed)} may be there, "
        f"as stages/textstats.py imports until the text family goes")


def test_dedup_imports_no_other_stages_module():
    """``stages/dedup.py`` (the ``--training-data`` tail's
    ``dedup_first``) loads no other ``stages`` module, through its
    module-level or function-level imports."""
    dedup = "ocr_pipeline_ray.stages.dedup"
    stages = {n for n in reachability.Graph().file_closure(dedup)
              if n.startswith("ocr_pipeline_ray.stages.")}
    assert stages == {dedup}, sorted(stages - {dedup})


# -- the audit's rules, on small checkouts of their own ---------------------


def _audit(tmp_path, monkeypatch, files):
    """``audit()`` over a checkout made of ``files`` (path -> source);
    returns its rows by module path."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    monkeypatch.setattr(reachability, "REPO", str(tmp_path))
    return {r["module"]: r for r in reachability.audit()["modules"]}


PKG_INIT = {"ocr_pipeline_ray/__init__.py": ""}
M_DEFS = (
    "import os\n"
    "import sys  # noqa: F401\n"
    "\n\n"
    "def cli_fn():\n    return helper()\n"
    "\n\n"
    "def helper():\n    return os.sep\n"
    "\n\n"
    "def tested_fn():\n    return 1\n"
    "\n\n"
    "def unused_fn():\n    return 2\n"
)


def test_audit_splits_product_test_only_and_dead(tmp_path, monkeypatch):
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": "from .m import cli_fn\n\ncli_fn()\n",
        "ocr_pipeline_ray/m.py": M_DEFS,
        "tests/test_m.py": ("from ocr_pipeline_ray.m import tested_fn\n"
                            "\n\ndef test_it():\n"
                            "    assert tested_fn() == 1\n"),
    })
    m = rows["ocr_pipeline_ray/m.py"]
    assert m["test_only_defs"] == ["tested_fn:11"]
    assert m["dead_defs"] == ["unused_fn:15"]
    assert m["unused_imports"] == []
    assert m["product"] + m["test_only"] + m["dead"] == m["total"] == 18
    assert (m["test_only"], m["dead"]) == (4, 4)


def test_registration_statement_reaches_its_function(tmp_path, monkeypatch):
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": "from .q import QUERIES\n",
        "ocr_pipeline_ray/q.py": ("QUERIES = {}\n\n\ndef q_x():\n"
                                  "    return 1\n\n\nQUERIES['x'] = q_x\n"),
    })
    q = rows["ocr_pipeline_ray/q.py"]
    assert (q["dead_defs"], q["test_only_defs"]) == ([], [])
    assert q["product"] == q["total"]


def test_function_level_import_is_followed(tmp_path, monkeypatch):
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": ("def main():\n"
                                         "    from .m import cli_fn\n"
                                         "    cli_fn()\n\n\nmain()\n"),
        "ocr_pipeline_ray/m.py": M_DEFS,
    })
    assert rows["ocr_pipeline_ray/m.py"]["dead_defs"] == [
        "tested_fn:11", "unused_fn:15"]


def test_attribute_chain_through_a_module(tmp_path, monkeypatch):
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": "from . import m\n\nm.cli_fn()\n",
        "ocr_pipeline_ray/m.py": M_DEFS,
    })
    assert rows["ocr_pipeline_ray/m.py"]["dead_defs"] == [
        "tested_fn:11", "unused_fn:15"]


def test_star_import_honours_all(tmp_path, monkeypatch):
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": ("from .api import a, b\n\n"
                                         "a()\nb()\n"),
        "ocr_pipeline_ray/api.py": "from .impl import *  # noqa: F401,F403\n",
        "ocr_pipeline_ray/impl.py": ("__all__ = ['a']\n\n\ndef a():\n"
                                     "    pass\n\n\ndef b():\n    pass\n"),
    })
    assert rows["ocr_pipeline_ray/impl.py"]["dead_defs"] == ["b:6"]


def test_a_module_only_tests_load_is_test_only(tmp_path, monkeypatch):
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": "",
        "ocr_pipeline_ray/m.py": M_DEFS,
        "tests/test_m.py": "import ocr_pipeline_ray.m\n",
    })
    m = rows["ocr_pipeline_ray/m.py"]
    # its imports run on load; none of its defs is called
    assert m["test_only"] == 2
    assert m["dead_defs"] == ["cli_fn:3", "helper:7", "tested_fn:11",
                              "unused_fn:15"]


def test_a_name_in_all_is_used(tmp_path, monkeypatch):
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": "from . import api, bare\n",
        "ocr_pipeline_ray/api.py": ("from os import sep\n\n"
                                    "__all__ = ['sep']\n"),
        "ocr_pipeline_ray/bare.py": "from os import sep\n",
    })
    assert rows["ocr_pipeline_ray/api.py"]["unused_imports"] == []
    assert rows["ocr_pipeline_ray/bare.py"]["unused_imports"] == ["sep:1"]


def test_an_export_no_other_module_takes(tmp_path, monkeypatch):
    """An ``__all__`` name is taken by name or through a ``*`` import
    whose module uses it; a ``*`` import alone takes nothing."""
    rows = _audit(tmp_path, monkeypatch, {
        **PKG_INIT,
        "ocr_pipeline_ray/__main__.py": "from . import star, named, idle\n",
        "ocr_pipeline_ray/api.py": ("__all__ = ['a', 'b', 'c']\n\n"
                                    "a = b = c = 1\nprint(c)\n"),
        "ocr_pipeline_ray/star.py": ("from .api import *  # noqa: F401,F403\n"
                                     "\nprint(a)\n"),
        "ocr_pipeline_ray/named.py": "from .api import b\n\nprint(b)\n",
        "ocr_pipeline_ray/idle.py": "from .api import *  # noqa: F401,F403\n",
    })
    assert rows["ocr_pipeline_ray/api.py"]["unused_exports"] == ["c"]
    assert rows["ocr_pipeline_ray/star.py"]["unused_exports"] == []


@pytest.mark.parametrize("source, unused", [
    ("import os\nimport sys\n\nprint(sys.argv)\n", ["os:1"]),
    ("import numpy as np\n\nzeros = np.zeros\n", []),
    ("from os import (\n    sep,  # noqa: F401\n)\n", []),
    ("from __future__ import annotations\n", []),
    ("import os.path\nimport json as j\n\nos.getcwd()\n", ["j:2"]),
    ("try:\n    import ujson as json\nexcept ImportError:\n"
     "    import json\n\n\ndef f():\n    import re\n", ["json:2", "json:4"]),
])
def test_unused_module_imports(tmp_path, source, unused):
    path = tmp_path / "mod.py"
    path.write_text(source)
    mod = reachability.Module("mod", str(path), False)
    assert reachability.unused_imports(mod) == unused


@pytest.mark.parametrize("source, names", [
    ("def f():\n    pass\n", ["f"]),
    ("x: int = 1\n", ["x"]),
    ("a, b = 1, 2\n", ["a", "b"]),
    ("@register_step('S')\nclass S:\n    pass\n", None),
    ("@app.register\ndef g():\n    pass\n", None),
    ("QUERIES['x'] = 1\n", None),
    ("__all__ = []\n", None),
])
def test_which_statements_bind_names(source, names):
    """A statement that binds names is reached through them; one that
    binds none (a registration, ``__all__``) runs on load."""
    import ast

    node = ast.parse(source).body[0]
    assert reachability._target_names(node) == names
