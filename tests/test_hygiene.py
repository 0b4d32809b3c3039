"""Repository hygiene: no unused imports, no third-party import that
``pyproject.toml`` does not declare, no private definition that the
package never uses, no public function or method that only the tests
reach, no private attribute that it writes and never reads or that it
reaches on another object, no bench tracing hook aimed at a missing
target, and a package surface that the README documents and that
suffices to rebuild ``build_problem`` by hand."""

import ast
import importlib
import importlib.metadata
import os
import re
import sys

import numpy as np
import pytest

import sgfem as sg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sgfem")
SOURCES = sorted(
    os.path.join(d, name)
    for d in (PACKAGE, os.path.join(ROOT, "tests"))
    for name in os.listdir(d) if name.endswith(".py"))


def unused_imports(source: str) -> list:
    """Names a module imports and never uses; a name listed in
    ``__all__`` counts as used."""
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
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_finds_one():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == \
        ["os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=[os.path.relpath(p, ROOT) for p in SOURCES])
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def undeclared_imports(sources: dict, declared: set,
                       first_party: set) -> list:
    """Top-level names of the absolute imports in ``sources`` (path ->
    source text) that are neither the standard library's nor in
    ``first_party`` and whose distribution is not in ``declared``
    (normalized names), as "name (path)"."""
    dists = importlib.metadata.packages_distributions()
    missing = []
    for path, source in sources.items():
        names = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        for name in sorted(names - set(sys.stdlib_module_names)
                           - first_party):
            if not {normalized(d) for d in dists.get(name, [name])} \
                    & declared:
                missing.append(f"{name} ({path})")
    return missing


def normalized(distribution: str) -> str:
    """A distribution name in its normalized form (PEP 503)."""
    return re.sub(r"[-_.]+", "-", distribution).lower()


def declared_dependencies() -> set:
    """Normalized names of the runtime and test dependencies that
    ``pyproject.toml`` declares."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = project["dependencies"] + \
        project["optional-dependencies"]["test"]
    return {normalized(re.match(r"[A-Za-z0-9._-]+", req).group())
            for req in requirements}


def test_undeclared_import_check_finds_one():
    assert undeclared_imports(
        {"a.py": "import os\nimport numpy.linalg\nimport nosuchdist\n"
                 "from . import b\nfrom mine.x import y\n"},
        {"numpy"}, {"mine"}) == ["nosuchdist (a.py)"]


def test_third_party_imports_are_declared():
    """Every third-party module that the package or its tests import
    is a declared dependency: runtime ones under ``dependencies``, the
    test tooling under the ``test`` extra."""
    sources = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.relpath(path, ROOT)] = fh.read()
    # the bench's scripts, which the tests import by name, are first party
    bench = [name for name in os.listdir(os.path.join(ROOT, "perfbench"))
             if name.endswith(".py")]
    first_party = {"sgfem"} | {
        os.path.splitext(os.path.basename(path))[0]
        for path in SOURCES + bench}
    assert undeclared_imports(sources, declared_dependencies(),
                              first_party) == []


def definitions_and_uses(sources: dict) -> tuple:
    """The functions and classes at module level, and the methods of
    module-level classes, of ``sources`` (module name -> source text),
    as (qualified name, is a class) pairs, and the names that some
    module refers to, by name, by attribute or in an import."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [(module, node) for node in tree.body]
        scopes += [(f"{module}.{cls.name}", node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for node in cls.body]
        defined += [(f"{scope}.{node.name}", isinstance(node, ast.ClassDef))
                    for scope, node in scopes
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def unreferenced_private_definitions(sources: dict) -> list:
    """Private functions and classes at module level, and private
    methods of module-level classes, that no module of ``sources``
    refers to (:func:`definitions_and_uses`)."""
    defined, used = definitions_and_uses(sources)
    names = [(name, name.rsplit(".", 1)[1]) for name, _ in defined]
    return sorted(name for name, short in names
                  if short.startswith("_") and not short.startswith("__")
                  and short not in used)


def test_unreferenced_private_check_finds_one():
    assert unreferenced_private_definitions(
        {"a": "def _f(): pass\nclass _C: pass\nx = _C\n"}) == ["a._f"]
    assert unreferenced_private_definitions(
        {"a": "def _f(): pass\n", "b": "from a import _f\n",
         "c": "class _G: pass\n", "d": "import c\nc._G()\n"}) == []
    assert unreferenced_private_definitions(
        {"a": "class C:\n    def __init__(self): self._n()\n"
              "    def _m(self): pass\n    def _n(self): pass\n"}) == \
        ["a.C._m"]


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(package_sources()) == []


def uncalled_public_functions(sources: dict, exported) -> list:
    """Public functions at module level, and public methods of
    module-level classes, of ``sources`` that neither appear in
    ``exported`` nor are referred to by any module
    (:func:`definitions_and_uses`).  A name only imported is caught by
    the unused import check."""
    defined, used = definitions_and_uses(sources)
    names = [(name, name.rsplit(".", 1)[1]) for name, is_class in defined
             if not is_class]
    return sorted(name for name, short in names
                  if not short.startswith("_")
                  and short not in used | set(exported))


# public definitions that only the tests call, each kept for its reason
TEST_ONLY_PUBLIC = {
    "krylov.pcg": "plain preconditioned CG, the oracle that flexible CG "
                  "must agree with on a fixed preconditioner",
    "fem.assemble_stiffness": "the Neumann matrix of one field, the "
                              "reference the Dirichlet family is "
                              "compared with",
    "galerkin.GalerkinOperator.block": "one block from its pair field, as "
                                       "the band fills take it: the "
                                       "reference their band layouts are "
                                       "compared with",
    "galerkin.GalerkinOperator.k_mats": "the whole family as CSR matrices, "
                                        "for the oracles and for the "
                                        "benchmark's matvec cost "
                                        "(perfbench/worker.matvec_cost)",
}


def test_uncalled_public_check_finds_one():
    assert uncalled_public_functions(
        {"a": "def f(): pass\ndef g(): pass\ndef _h(): pass\n"
              "class C:\n    def m(self): pass\n"
              "    def n(self): pass\n    def __len__(self): return 0\n",
         "b": "from a import g\nimport a\ng()\na.C().n()\n"},
        ["C"]) == ["a.C.m", "a.f"]
    assert uncalled_public_functions({"a": "def f(): pass\n"}, ["f"]) == []


def test_every_public_function_is_called_or_exported():
    """The package's public functions and methods are reached from the
    package itself or are its exports; an oracle that only the tests
    call lives in the tests, apart from the reasoned exceptions."""
    assert uncalled_public_functions(package_sources(), sg.__all__) == \
        sorted(TEST_ONLY_PUBLIC)


def write_only_private_attributes(sources: dict) -> list:
    """Private attributes (``x._name``) that a module of ``sources``
    (module name -> source text) assigns and that no module reads."""
    stored, loaded = {}, set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (not isinstance(node, ast.Attribute)
                    or not node.attr.startswith("_")
                    or node.attr.startswith("__")):
                continue
            if isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, f"{module} line {node.lineno}")
            elif isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in stored.items()
                  if name not in loaded)


def test_write_only_private_attribute_check_finds_one():
    assert write_only_private_attributes(
        {"a": "class C:\n    def __init__(self):\n"
              "        self._a = {}\n        self._b = 1\n",
         "b": "def f(c):\n    return c._b\n"}) == ["_a (a line 3)"]


def package_sources() -> dict:
    """Module name -> source text of every module of the package."""
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name[:-3]] = fh.read()
    return sources


def test_no_write_only_private_attributes():
    assert write_only_private_attributes(package_sources()) == []


def private_attributes_of_others(sources: dict) -> list:
    """Attributes with one leading underscore (``x._name``) that a module
    of ``sources`` (module name -> source text) reaches on an owner other
    than ``self`` or ``cls``, as "module line: expression"."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                found.append(f"{module} line {node.lineno}: "
                             f"{ast.unparse(node)}")
    return found


def test_private_attribute_of_others_check_finds_one():
    assert private_attributes_of_others(
        {"a": "class C:\n    @classmethod\n    def f(cls, o):\n"
              "        return cls._a, o.__len__, o.b, o._c\n"
              "    def g(self):\n        self._d = 1\n"}) == \
        ["a line 4: o._c"]


def test_no_private_attribute_of_others():
    """No package module reaches into another object's private state:
    what one object uses of another is public."""
    assert private_attributes_of_others(package_sources()) == []


def tracing_hooks() -> dict:
    """The hook tables of ``perfbench/tracing.py`` (name -> tuple of
    hooks), read from its source without running it."""
    with open(os.path.join(ROOT, "perfbench", "tracing.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTION_HOOKS", "METHOD_HOOKS")}


def unresolved_hooks(functions, methods) -> list:
    """Hook targets that are not callables: ``functions`` holds
    (module, function, span) and ``methods`` (module, class, method,
    span)."""
    targets = [(module, (name,)) for module, name, _ in functions]
    targets += [(module, (cls, name)) for module, cls, name, _ in methods]
    missing = []
    for module, path in targets:
        obj = importlib.import_module(module)
        for name in path:
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(".".join((module,) + path))
    return missing


def test_unresolved_hook_check_finds_one():
    assert unresolved_hooks(
        [("sgfem.linalg", "factorize", "a"), ("sgfem.linalg", "nope", "b")],
        [("sgfem.galerkin", "GalerkinOperator", "matvec", "c"),
         ("sgfem.galerkin", "Nope", "matvec", "d")]) == \
        ["sgfem.linalg.nope", "sgfem.galerkin.Nope.matvec"]


def test_tracing_hooks_resolve():
    """Every function and method the bench tracer patches exists, so a
    rename in the package cannot silently break a traced bench run."""
    hooks = tracing_hooks()
    assert sorted(hooks) == ["FUNCTION_HOOKS", "METHOD_HOOKS"]
    assert all(hooks.values())
    assert unresolved_hooks(hooks["FUNCTION_HOOKS"],
                            hooks["METHOD_HOOKS"]) == []


def readme_exports() -> list:
    """Backticked names of the README's export list: the bullets after
    the line saying what `sgfem` exports."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if "`sgfem` exports exactly these names" in line)
    block = []
    for line in lines[start + 1:]:
        if block and not line.strip():
            break
        block.append(line)
    return re.findall(r"`(\w+)`", "\n".join(block))


def test_readme_lists_the_exports():
    names = readme_exports()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(n for n in sg.__all__
                                   if n != "__version__")


def test_exports_rebuild_build_problem():
    N, P, n, cov_pct = 2, 2, 4, 100.0
    mesh = sg.build_mesh(n)
    g0, sigma = sg.field_parameters(1.0, cov_pct / 100.0)
    kl = sg.discrete_kl(mesh, sg.ExponentialCovariance(sigma, 0.5), N,
                        g0=g0)
    tensor = sg.build_c_tensor(N, P, 2 * P)
    coeffs = sg.gpc_coefficients(kl, tensor.iset, mesh)
    op = sg.GalerkinOperator(tensor, coeffs, mesh)
    f0 = sg.apply_dirichlet(op.k_mats[0], sg.assemble_load(mesh, 1.0),
                            mesh)[1]
    b = np.zeros(op.n_global)
    b[:op.n_dof] = f0

    ref, ref_b = sg.build_problem(N, P, n, cov_pct)
    assert np.array_equal(b, ref_b)
    every = range(len(tensor.iset))
    assert np.array_equal(op.family(every, "the test"),
                          ref.family(every, "the test"))
    for name in ("i", "j", "k", "val"):
        assert np.array_equal(getattr(op.tensor, name),
                              getattr(ref.tensor, name))
    v = np.random.default_rng(5).standard_normal(op.n_global)
    assert np.array_equal(op.matvec(v), ref.matvec(v))
    # both truncations build from the exported names as well
    for trunc in (sg.standard_truncation(N, 1),
                  sg.adaptive_truncation(
                      1.0, [np.linalg.norm(K.data) for K in op.k_mats],
                      tensor)):
        _, rep = sg.flexible_cg(
            op.matvec, sg.make_preconditioner(op, "ahgs", trunc).apply, b)
        assert rep.converged
