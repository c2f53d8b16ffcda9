"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superalg"


def unused_imports(source: str):
    """Names a module imports but never uses; `# noqa: F401` lines are re-exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_caught():
    source = "from typing import Dict, Sequence\nimport os\nfrom . import kept  # noqa: F401\nx: Dict = {}\n"
    assert unused_imports(source) == [(1, "Sequence"), (2, "os")]


def test_every_import_in_the_package_is_used():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: bad for name, bad in found.items() if bad} == {}


# Only scalars.py imports the rational type, fractions.Fraction; everything
# else builds and recognizes rationals through scalars.rational and
# scalars.is_rational.  gmpy2 is listed so that no module brings in a second
# rational type beside it.
BACKEND_MODULES = {"fractions", "gmpy2"}


def backend_imports(source: str):
    """(line, module) of every import of a rational backend module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in BACKEND_MODULES]
    return found


def test_backend_imports_are_caught():
    source = "import os\nfrom fractions import Fraction\nimport gmpy2.mpq as q\nfrom .scalars import rational\n"
    assert backend_imports(source) == [(2, "fractions"), (3, "gmpy2.mpq")]


def test_only_scalars_imports_the_rational_backend():
    found = {
        path.name: backend_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "scalars.py"
    }
    assert {name: bad for name, bad in found.items() if bad} == {}
    assert backend_imports((SRC / "scalars.py").read_text(encoding="utf-8"))


# A module uses another module's public names only, so that, for example,
# prolong brackets through polyvf.bracket_terms, not through its helpers.
def private_imports(source: str):
    """(line, name) of every underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_imports_are_caught():
    source = (
        "from __future__ import annotations\n"
        "from .polyvf import _mono_mul, bracket_terms\n"
        "from . import _x\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [(2, "_mono_mul"), (3, "_x")]


def test_no_module_imports_a_private_name_of_another():
    found = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: bad for name, bad in found.items() if bad} == {}


# Every import sits at module level, where the import graph can be read at a
# glance; an import under a module-level try/except is module level too.
def local_imports(source: str):
    """(line, innermost function) of every import inside a function body."""
    found = {}
    # ast.walk is breadth first, so an inner function overwrites its outer one
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found[inner.lineno] = getattr(node, "name", "<lambda>")
    return sorted(found.items())


def test_local_imports_are_caught():
    source = (
        "try:\n"
        "    import tomllib\n"
        "except ImportError:\n"
        "    tomllib = None\n"
        "def f():\n"
        "    from .scalars import rational\n"
        "class A:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            import itertools\n"
    )
    assert local_imports(source) == [(6, "f"), (10, "h")]


def test_no_function_imports_inside_its_body():
    found = {
        path.name: local_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: bad for name, bad in found.items() if bad} == {}


# Every function and method in the package has a caller in src/ or perfbench/;
# code that only the tests call lives in tests/.  The exceptions are the entry
# points and checks that make up the package's API, listed by name.  References
# are matched by name, so a method counts as called when any attribute of that
# name is read.
PERFBENCH = SRC.parent.parent / "perfbench"

PUBLIC_API = {
    "abelian_negative",
    "build_ab",
    "build_gl",
    "build_hei",
    "build_q",
    "build_sl",
    "check_i_op",
    "combine_nonpositive",
    "conjugate_scalar",
    "degree_zero_derivations",
    "from_document",
    "rho_bar",
    "rho_tr",
}


# calls that look a name up at run time from a string argument
NAME_LOOKUPS = {"getattr", "setattr", "hasattr"}


def referenced_names(source: str):
    """Names a module loads, attributes it reads and the string arguments of
    its getattr, setattr, hasattr and wrap_* calls (a name looked up at run
    time, as the benchmark's wrappers look up what they wrap).  Any other
    string, an error message say, names nothing."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Call):
            func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            if func in NAME_LOOKUPS or func.startswith("wrap_"):
                names |= {a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
    return names


def uncalled_functions(package, others):
    """(module, line, name) of every function or method, dunders aside, that
    `package` ({module: source}) defines and no module of package or others
    references."""
    used = set()
    for source in [*package.values(), *others.values()]:
        used |= referenced_names(source)
    found = []
    for module, source in sorted(package.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")) and name not in used:
                found.append((module, node.lineno, name))
    return sorted(found)


def test_uncalled_functions_are_caught():
    package = {
        "a.py": (
            "def used():\n"
            "    pass\n"
            "def planted():\n"
            "    used()\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def method(self):\n"
            "        pass\n"
            "    def by_name(self):\n"
            "        pass\n"
            "    def wrapped(self):\n"
            "        pass\n"
            "def named_in_a_message():\n"
            "    pass\n"
            "def fails():\n"
            "    raise ValueError('named_in_a_message')\n"
        )
    }
    others = {
        "bench.py": (
            "import a\n"
            "a.A().method()\n"
            "a.fails()\n"
            "getattr(a.A, 'by_name')\n"
            "rec.wrap_method(a.A, 'wrapped', 'a.wrapped')\n"
        )
    }
    assert uncalled_functions(package, others) == [("a.py", 3, "planted"), ("a.py", 14, "named_in_a_message")]


def test_every_function_in_the_package_has_a_caller():
    package = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    others = {path.name: path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py")}
    found = uncalled_functions(package, others)
    assert [(module, line, name) for module, line, name in found if name not in PUBLIC_API] == []
    # an API name that gains a caller leaves the list
    assert sorted(PUBLIC_API - {name for *_, name in found}) == []


# Every PUBLIC_API name is referenced from tests/: an entry point that only the
# tests call must be tested.
TESTS = SRC.parent.parent / "tests"


def unreferenced_names(names, sources):
    """The names that none of sources references, by referenced_names, sorted."""
    used = set().union(*(referenced_names(source) for source in sources))
    return sorted(set(names) - used)


def test_unreferenced_names_are_caught():
    sources = ["from a import called, planted\ncalled()\n", "import a\nx = a.read\nprint('named_in_a_string')\n"]
    assert unreferenced_names({"called", "read", "planted", "named_in_a_string"}, sources) == [
        "named_in_a_string",
        "planted",
    ]


def test_every_public_api_name_is_referenced_from_the_tests():
    sources = [path.read_text(encoding="utf-8") for path in TESTS.glob("*.py")]
    assert unreferenced_names(PUBLIC_API, sources) == []


# Every parameter is read: an argument that nothing uses only misleads its
# callers.  Dunder methods keep the signature Python gives them.
def unused_parameters(source: str):
    """(line, function, parameter) of every parameter, dunders aside, that the
    function's body (nested functions included) never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg) if a]
        read = {
            inner.id
            for stmt in node.body
            for inner in ast.walk(stmt)
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
        }
        found += [(node.lineno, node.name, p) for p in params if p not in read]
    return found


def test_unused_parameters_are_caught():
    source = (
        "def f(a, b, *args, c=1, **kw):\n"
        "    return a + kw['x']\n"
        "def g(x):\n"
        "    x = 1\n"
        "    def inner():\n"
        "        return outer\n"
        "def h(outer):\n"
        "    return lambda: outer\n"
        "class A:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError\n"
        "    def method(self, y):\n"
        "        return y\n"
    )
    assert unused_parameters(source) == [
        (1, "f", "b"),
        (1, "f", "args"),
        (1, "f", "c"),
        (3, "g", "x"),
        (12, "method", "self"),
    ]


def test_every_parameter_in_the_package_is_read():
    found = {
        path.name: unused_parameters(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: bad for name, bad in found.items() if bad} == {}
