"""Source hygiene: no module of the package imports a name it never uses,
binds a local it never reads or gives a module-level function a
parameter it never reads, no module-level private name of the package
goes unread, every name the package exports is read by one of its
modules or named in README, exact sums walk the exogenous states in one
loop, the evaluator names no reference policy, the CLI reads no
reference-table context, and importing the package loads nothing outside
the standard library."""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "abstrakt")
# __init__ imports names only to re-export them
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def unused_locals(source):
    """(function, name) pairs of the names a function binds but never reads
    (nested functions count as reading what they load); names starting
    with ``_`` and names declared global or nonlocal are exempt."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, read, shared = set(), set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else bound).add(
                    node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        found.update((fn.name, name) for name in bound - read - shared
                     if not name.startswith("_"))
    return sorted(found)


def test_detects_unused_local():
    source = ("def f(a):\n"
              "    kept, lost, _skip = a, a, a\n"
              "    def g():\n"
              "        return kept\n"
              "    return g\n")
    assert unused_locals(source) == [("f", "lost")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_locals(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_locals(fh.read()) == []


def unused_private_parameters(source):
    """(function, parameter) pairs of the parameters a module-level
    function, public or ``_private``, never reads (nested functions count
    as reading what they load); parameters starting with ``_`` and
    ``__dunder__`` functions are exempt."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or fn.name.startswith("__"):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found.extend((fn.name, p) for p in params
                     if p not in read and not p.startswith("_"))
    return found


def test_detects_unused_private_parameter():
    source = ("def _f(a, b, _c, *rest, d=1, **kw):\n"
              "    def g():\n"
              "        return a + d\n"
              "    return g\n"
              "def public(x, y):\n"
              "    return y\n"
              "def __getattr__(name):\n"
              "    return 1\n"
              "class K:\n"
              "    def _m(self, y):\n"
              "        return 1\n")
    assert unused_private_parameters(source) == [
        ("_f", "b"), ("_f", "rest"), ("_f", "kw"), ("public", "x")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_private_parameters(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_private_parameters(fh.read()) == []


def orphaned_private_names(sources):
    """Module-level ``_private`` names (functions, classes, assignments)
    that no module of ``sources`` reads besides defining them."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.extend((module, t.id) for t in targets
                               if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in read)


def test_detects_orphaned_private_name():
    sources = {"a.py": "def _used():\n    pass\n\ndef _gone():\n    pass\n"
                       "_LIMIT = 3\n",
               "b.py": "from a import _used\n_used()\n"}
    assert orphaned_private_names(sources) == [("a.py", "_LIMIT"),
                                               ("a.py", "_gone")]


def test_no_orphaned_private_names():
    sources = {}
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
                sources[module] = fh.read()
    assert orphaned_private_names(sources) == []


def unread_exports(init_source, sources, readme):
    """The names ``__init__`` re-exports that no module of ``sources``
    reads (a Name or Attribute load) and the README text does not name as
    a word."""
    exported = [alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    named = set(re.findall(r"\w+", readme))
    return [name for name in exported
            if name not in read and name not in named]


def test_detects_unread_export():
    init = "from .a import used, documented, attr, stored, gone\n"
    sources = {"b.py": "used(1)\nx.attr\nx.stored = 2\n"}
    readme = "Call `documented(...)`; not `gone_too`."
    assert unread_exports(init, sources, readme) == ["stored", "gone"]


def test_every_export_is_read_or_documented():
    """The package exports only what its own modules read or README
    documents: an export only the tests call belongs in the tests."""
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    with open(os.path.join(PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        init = fh.read()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert unread_exports(init, sources, readme) == []


def enumeration_calls(source):
    """Dotted names (Class.method, outer.inner) of the functions that call
    a method named exogenous_states or exogenous_support."""
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, name + "." + child.name if name else child.name)
                continue
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr in ("exogenous_states",
                                            "exogenous_support"):
                found.add(name)
            visit(child, name)
    visit(ast.parse(source), "")
    return sorted(found)


def test_detects_enumeration_calls():
    source = ("class M:\n"
              "    def exogenous_support(self):\n"
              "        return self.exogenous_states()\n"
              "def walk(m):\n"
              "    def inner():\n"
              "        return list(m.exogenous_support())\n"
              "    return inner, m.exogenous_support_size()\n")
    assert enumeration_calls(source) == ["M.exogenous_support", "walk.inner"]


# Every exact sum over exogenous states goes through valuation's table
# walker, _tabulate: one walk that sums each term's private noise first
# and walks the shared noise once (the joint walk is that walk with
# nothing private). The support itself pairs states with assignments;
# check_aic's witness walk must report a whole unit; verify walks, per
# intervention, the blocks its cases read, and replays every unit only
# after a failure (a local check per cluster may replace both).
ENUMERATION_LOOPS = {
    ("valuation.py", "_tabulate"),
    ("scm.py", "DiscreteScm.exogenous_support"),
    ("abstraction.py", "check_aic.first_witness"),
    ("projection.py", "verify_partial_projection"),
}


def test_one_enumeration_loop():
    found = set()
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
                found.update((module, name)
                             for name in enumeration_calls(fh.read()))
    assert sorted(found - ENUMERATION_LOOPS) == []


def identifier_lines(source, name):
    """Line numbers of the tokens of ``source`` that are the identifier
    ``name`` (strings and comments that mention it do not count)."""
    return [tok.start[0] for tok in tokenize.generate_tokens(
        io.StringIO(source).readline)
        if tok.type == tokenize.NAME and tok.string == name]


def test_detects_identifier():
    source = ("def f(fallback=None):\n"
              "    # the fallback\n"
              "    return 'fallback', x.fallback, fallbacks\n")
    assert identifier_lines(source, "fallback") == [1, 3]


def test_valuation_knows_no_reference_policy():
    """What a stochastic intervention does in a context without reference
    mass is decided where its tables are built (projection); the evaluator
    only reads the tables it is given."""
    with open(os.path.join(PACKAGE, "valuation.py"), encoding="utf-8") as fh:
        assert identifier_lines(fh.read(), "fallback") == []


def test_cli_reads_no_context():
    """A context given for a reference table is bound and checked in
    projection alone (projection._context_key), for the CLI and library
    callers alike, so the CLI names neither the shared noise members of a
    split nor a context parser."""
    with open(os.path.join(PACKAGE, "cli.py"), encoding="utf-8") as fh:
        source = fh.read()
    for name in ("rho_members", "_context_parts"):
        assert identifier_lines(source, name) == []


def test_cold_import_loads_the_standard_library_only():
    """A fresh interpreter without site packages (-S) that imports abstrakt
    and abstrakt.cli loads only standard-library modules besides the
    package, and not the OpenSSL-backed _hashlib: the package has no
    runtime dependencies."""
    src = os.path.dirname(PACKAGE)
    code = ("import sys, json; sys.path.insert(0, %r); "
            "import abstrakt, abstrakt.cli; "
            "print(json.dumps(sorted(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    outside = [m for m in loaded
               if m.split(".")[0] not in sys.stdlib_module_names
               and m.split(".")[0] not in ("abstrakt", "__main__")]
    assert outside == []
    assert "abstrakt.cli" in loaded
    assert "_hashlib" not in loaded
