"""Reachability audit: which package code does a product path reach?

A static walk over the stdlib ``ast`` of every Python file in the
checkout; nothing is imported or run. The unit is a top-level
statement: a ``def``/``class`` or a name assignment, or an anonymous
statement (imports, registrations such as ``QUERIES["x"] = q_x``,
``@register_step`` classes) that runs when its module is loaded.

Product roots are every statement of ``ocr_pipeline_ray/__main__.py``
(all CLI flags), ``__ray_entry__.py`` (``entry``, ``queries`` and
``oracle_sql``: every registered query, through the registration
statements of the modules ``ocr_pipeline_ray.queries`` loads),
``bench.py``, ``scripts/`` and ``clibench/`` (not ``clibench/tests/``).
Test roots are every statement of ``tests/`` and ``clibench/tests/``.

Import statements are anonymous, so they count as reached whether or
not the module uses what they bind. The report therefore also lists,
per package module, the module-level imported names the module never
uses: a name counts as used if the module refers to it, lists it in
``__all__``, or its import statement carries ``# noqa: F401``. It
lists too the ``__all__`` names no other module takes, by name or
through a ``*`` import that uses them (unused exports).

A statement reaches the names it uses, resolved through module-level
and function-level imports, re-exports, ``*`` imports (``__all__``
when the module defines one) and ``module.attr`` chains. Loading a
module loads its parent packages and reaches its anonymous
statements. Comment and blank lines count with the statement after
them, so per module the product, test-only and dead lines add up to
the file's lines.

Usage:
    python scripts/reachability.py          # per-module table
"""

from __future__ import annotations

import ast
import os
import re
import sys
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "ocr_pipeline_ray"
CLI = PACKAGE + ".__main__"
PRODUCT_SOURCES = ("__ray_entry__.py", "bench.py", "scripts", "clibench")
TEST_SOURCES = ("tests", os.path.join("clibench", "tests"))
# names a module binds for the interpreter, not for callers
_DUNDER = re.compile(r"^__\w+__$")
# an import kept for its side effect or as a re-export
_NOQA_F401 = re.compile(r"#\s*noqa:[\w\s,]*\bF401\b")


class Stmt:
    """One top-level statement: the names it binds (none if anonymous)
    and its lines, leading comments and blank lines included."""

    def __init__(self, module: str, node: ast.stmt, names: List[str],
                 first: int, last: int):
        self.module = module
        self.node = node
        self.names = names
        self.first = first
        self.last = last

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


class Module:
    def __init__(self, name: str, path: str, is_pkg: bool):
        self.name = name
        self.path = path
        self.package = name if is_pkg else name.rpartition(".")[0]
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        self.lines = source.splitlines()
        self.total = len(self.lines)
        self.tree = ast.parse(source, filename=path)
        self.stmts: List[Stmt] = []
        self.defs: Dict[str, Stmt] = {}
        # name -> ("mod", module) | ("attr", module, attr)
        self.imports: Dict[str, tuple] = {}
        self.stars: List[str] = []
        self.all: Optional[Set[str]] = None  # a literal ``__all__``


def _module_name(rel: str) -> Tuple[str, bool]:
    parts = rel[:-3].split(os.sep)
    is_pkg = parts[-1] == "__init__"
    return ".".join(parts[:-1] if is_pkg else parts), is_pkg


def _py_files(rel: str, skip=()) -> List[str]:
    """The ``.py`` files under ``rel``, leaving out the dirs ``skip``."""
    path = os.path.join(REPO, rel)
    if os.path.isfile(path):
        return [rel]
    out = []
    for root, dirs, files in os.walk(path):
        dirs[:] = sorted(
            d for d in dirs if not d.startswith((".", "__"))
            and os.path.relpath(os.path.join(root, d), REPO) not in skip)
        out += [os.path.relpath(os.path.join(root, f), REPO)
                for f in sorted(files) if f.endswith(".py")]
    return out


def _target_names(node: ast.stmt) -> Optional[List[str]]:
    """Names a def/class/assignment binds, or None if it is anonymous
    (it runs on load: a registering decorator, a subscript target)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        for dec in node.decorator_list:
            func = dec.func if isinstance(dec, ast.Call) else dec
            if "register" in getattr(func, "attr", getattr(func, "id", "")):
                return None
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return None
    names: List[str] = []
    for t in targets:
        elts = t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]
        if not all(isinstance(e, ast.Name) for e in elts):
            return None
        names += [e.id for e in elts]
    return None if any(_DUNDER.match(n) for n in names) else names


class Graph:
    def __init__(self):
        self.modules: Dict[str, Module] = {}
        for src in (PACKAGE,) + PRODUCT_SOURCES + TEST_SOURCES:
            for rel in _py_files(src):
                name, is_pkg = _module_name(rel)
                self.modules[name] = Module(name, os.path.join(REPO, rel),
                                            is_pkg)
        for mod in self.modules.values():
            self._index(mod)

    @staticmethod
    def source(mod: Module, node: ast.ImportFrom) -> str:
        """The absolute name of the module a ``from`` import reads."""
        if not node.level:
            return node.module or ""
        base = mod.package.split(".")
        base = base[:len(base) - node.level + 1]
        return ".".join(base + ([node.module] if node.module else []))

    def _bindings(self, mod: Module, node: ast.AST
                  ) -> Tuple[Dict[str, tuple], List[str]]:
        """What an import statement binds, and the modules it loads."""
        out: Dict[str, tuple] = {}
        loads: List[str] = []
        if isinstance(node, ast.Import):
            for alias in node.names:
                loads.append(alias.name)
                if alias.asname:
                    out[alias.asname] = ("mod", alias.name)
                else:
                    top = alias.name.split(".")[0]
                    out[top] = ("mod", top)
        elif isinstance(node, ast.ImportFrom):
            src = self.source(mod, node)
            loads.append(src)
            for alias in node.names:
                sub = f"{src}.{alias.name}"
                if alias.name == "*":
                    out["*"] = ("star", src)
                elif sub in self.modules:
                    out[alias.asname or alias.name] = ("mod", sub)
                    loads.append(sub)
                else:
                    out[alias.asname or alias.name] = ("attr", src,
                                                       alias.name)
        return out, loads

    def _index(self, mod: Module) -> None:
        body = mod.tree.body
        for i, node in enumerate(body):
            first = body[i - 1].end_lineno + 1 if i else 1
            last = node.end_lineno if i < len(body) - 1 else mod.total
            names = _target_names(node)
            stmt = Stmt(mod.name, node, names or [], first, max(first, last))
            mod.stmts.append(stmt)
            for n in names or []:
                mod.defs[n] = stmt
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", "") == "__all__" for t in node.targets):
                mod.all = set(ast.literal_eval(node.value))
            if names is not None:
                continue
            # imports (also under a top-level if/try) bind module names
            for sub in ast.walk(node):
                for k, v in self._bindings(mod, sub)[0].items():
                    if v[0] == "star":
                        mod.stars.append(v[1])
                    else:
                        mod.imports[k] = v

    def resolve_attr(self, modname: str, attr: str, seen=None):
        """``module.attr`` -> a Stmt, ("mod", name), or None."""
        seen = set() if seen is None else seen
        mod = self.modules.get(modname)
        if mod is None or (modname, attr) in seen:
            return None
        seen.add((modname, attr))
        if attr in mod.defs:
            return mod.defs[attr]
        if attr in mod.imports:
            return self._follow(mod.imports[attr], seen)
        if f"{modname}.{attr}" in self.modules:
            return ("mod", f"{modname}.{attr}")
        for star in mod.stars:
            src = self.modules.get(star)
            if src is not None and (attr in src.all if src.all is not None
                                    else not attr.startswith("_")):
                hit = self.resolve_attr(star, attr, seen)
                if hit is not None:
                    return hit
        return None

    def _follow(self, binding: tuple, seen=None):
        if binding[0] == "mod":
            return binding
        return self.resolve_attr(binding[1], binding[2], seen)

    def edges(self, stmt: Stmt) -> Tuple[List[Stmt], Set[str]]:
        """Statements a statement reaches, and modules it loads."""
        mod = self.modules[stmt.module]
        local: Dict[str, tuple] = {}  # function-level imports
        loads: Set[str] = set()
        for sub in ast.walk(stmt.node):
            bound, loaded = self._bindings(mod, sub)
            loads.update(loaded)
            if sub is not stmt.node:
                local.update(bound)
        out: List[Stmt] = []

        def lookup(name: str):
            return (self._follow(local[name]) if name in local
                    else self.resolve_attr(mod.name, name))

        def add(target) -> None:
            if isinstance(target, Stmt):
                out.append(target)
            elif isinstance(target, tuple) and target[0] == "mod":
                loads.add(target[1])

        for sub in ast.walk(stmt.node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx,
                                                            ast.Store):
                add(lookup(sub.id))
            elif isinstance(sub, ast.Attribute):
                # a.b.c: follow the chain while it names modules
                attrs = []
                while isinstance(sub, ast.Attribute):
                    attrs.append(sub.attr)
                    sub = sub.value
                if not isinstance(sub, ast.Name):
                    continue
                target = lookup(sub.id)
                for attr in reversed(attrs):
                    if not (isinstance(target, tuple) and target[0] == "mod"):
                        break
                    add(target)
                    target = self.resolve_attr(target[1], attr)
                add(target)
        return out, loads

    def walk(self, roots: List[Stmt]) -> Tuple[Set[int], Set[str]]:
        """Ids of the statements reached from ``roots`` and the modules
        loaded on the way (the roots' own modules included)."""
        reached: Set[int] = set()
        loaded: Set[str] = set()
        queue = deque(roots)

        def load(name: str):
            parts = name.split(".")
            for cut in range(1, len(parts) + 1):
                head = ".".join(parts[:cut])
                if head in self.modules and head not in loaded:
                    loaded.add(head)
                    queue.extend(s for s in self.modules[head].stmts
                                 if not s.names)

        for r in roots:
            load(r.module)
        while queue:
            stmt = queue.popleft()
            if id(stmt) in reached:
                continue
            reached.add(id(stmt))
            targets, loads = self.edges(stmt)
            for name in loads:
                load(name)
            for t in targets:
                load(t.module)
                queue.append(t)
        return reached, loaded

    def file_closure(self, start: str) -> Set[str]:
        """Modules reached by following every import statement of every
        file loaded, inside functions too, whether it runs or not."""
        seen: Set[str] = set()
        queue = [start]
        while queue:
            parts = queue.pop().split(".")
            for cut in range(1, len(parts) + 1):
                head = ".".join(parts[:cut])
                mod = self.modules.get(head)
                if mod is not None and head not in seen:
                    seen.add(head)
                    for node in ast.walk(mod.tree):
                        queue += self._bindings(mod, node)[1]
        return seen

    def roots(self, sources) -> List[Stmt]:
        return [s for src in sources for rel in _py_files(src, TEST_SOURCES)
                for s in self.modules[_module_name(rel)[0]].stmts]


def _module_imports(node: ast.stmt):
    """Import statements a top-level statement runs on load (also
    under a top-level ``if``/``try``, never inside a def or class)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node
    elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from _module_imports(child)
            elif isinstance(child, ast.excepthandler):
                for sub in child.body:
                    yield from _module_imports(sub)


def unused_imports(mod: Module) -> List[str]:
    """``name:line`` of each module-level imported name the module
    never uses."""
    used = {n.id for n in ast.walk(mod.tree) if isinstance(n, ast.Name)}
    used |= mod.all or set()
    out = []
    for top in mod.tree.body:
        for node in _module_imports(top):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            span = mod.lines[node.lineno - 1:node.end_lineno]
            if any(_NOQA_F401.search(line) for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    out.append(f"{name}:{node.lineno}")
    return out


def export_uses(g: Graph) -> Dict[str, Set[str]]:
    """Per module, the names other modules take from it: by name
    (``from m import x``), or through ``from m import *`` and a use of
    ``x`` in the importing module."""
    uses: Dict[str, Set[str]] = {}
    for mod in g.modules.values():
        refs = {n.id for n in ast.walk(mod.tree) if isinstance(n, ast.Name)}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                taken = uses.setdefault(g.source(mod, node), set())
                for alias in node.names:
                    taken |= refs if alias.name == "*" else {alias.name}
    return uses


def audit() -> Dict:
    g = Graph()
    cli_roots = g.roots([os.path.join(PACKAGE, "__main__.py")])
    product, _ = g.walk(cli_roots + g.roots(PRODUCT_SOURCES))
    tests, _ = g.walk(g.roots(TEST_SOURCES))
    cli, cli_loaded = g.walk(cli_roots)
    exported = export_uses(g)

    modules = []
    for name in sorted(n for n in g.modules if n.startswith(PACKAGE)):
        mod = g.modules[name]
        row = {"module": os.path.relpath(mod.path, REPO), "total": mod.total,
               "product": 0, "test_only": 0, "dead": 0,
               "test_only_defs": [], "dead_defs": [],
               "unused_imports": unused_imports(mod),
               "unused_exports": sorted((mod.all or set())
                                        - exported.get(name, set()))}
        for s in mod.stmts:
            kind = ("product" if id(s) in product
                    else "test_only" if id(s) in tests else "dead")
            row[kind] += s.lines
            if s.names and kind != "product":
                row[kind + "_defs"] += [f"{n}:{s.first}" for n in s.names]
        modules.append(row)

    def closure(names: Set[str]) -> Dict:
        mods = sorted(n for n in names if n.startswith(PACKAGE))
        return {"modules": len(mods),
                "lines": sum(g.modules[n].total for n in mods),
                "names": mods}

    cli_reached = sum(s.lines for n in cli_loaded if n.startswith(PACKAGE)
                      for s in g.modules[n].stmts if id(s) in cli)
    return {
        "modules": modules,
        "totals": {k: sum(r[k] for r in modules)
                   for k in ("total", "product", "test_only", "dead")},
        "cli_closure": dict(closure(cli_loaded), reached_lines=cli_reached),
        "cli_file_closure": closure(g.file_closure(CLI)),
    }


def _print(report: Dict) -> None:
    print(f"{'module':44} {'total':>6} {'product':>8} {'tests':>6} "
          f"{'dead':>6}")
    for r in report["modules"]:
        print(f"{r['module']:44} {r['total']:6d} {r['product']:8d} "
              f"{r['test_only']:6d} {r['dead']:6d}")
        if r["test_only_defs"]:
            print("    test-only: " + ", ".join(r["test_only_defs"]))
        if r["dead_defs"]:
            print("    unreachable: " + ", ".join(r["dead_defs"]))
        if r["unused_imports"]:
            print("    unused imports: " + ", ".join(r["unused_imports"]))
        if r["unused_exports"]:
            print("    unused exports: " + ", ".join(r["unused_exports"]))
    t = report["totals"]
    print(f"{'TOTAL':44} {t['total']:6d} {t['product']:8d} "
          f"{t['test_only']:6d} {t['dead']:6d}")

    def short(mods):
        return " ".join(n[len(PACKAGE) + 1:] or PACKAGE for n in mods)

    clo, files = report["cli_closure"], report["cli_file_closure"]
    print(f"CLI closure (modules the code of every flag may load): "
          f"{clo['modules']} modules, {clo['lines']} lines, "
          f"{clo['reached_lines']} of them reached")
    print("  " + short(clo["names"]))
    print(f"CLI file closure (every import in those files, run or not): "
          f"{files['modules']} modules, {files['lines']} lines")
    print("  + " + short(sorted(set(files["names"]) - set(clo["names"]))))


def main() -> int:
    _print(audit())
    return 0


if __name__ == "__main__":
    sys.exit(main())
