"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys

import petersonlab

SRC = os.path.dirname(petersonlab.__file__)


def test_no_assert_statements():
    """Mathematical checks must raise explicitly: `python -O` strips
    `assert` statements."""
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += ["%s:%d" % (os.path.relpath(path, SRC), node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src: " + ", ".join(found)


def test_no_unused_imports():
    """Every name a module imports is read somewhere in that module."""
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        found.append("%s:%d %s" % (os.path.relpath(path, SRC),
                                                   node.lineno, bound))
    assert not found, "unused imports in src: " + ", ".join(found)


def _unused_locals(tree):
    """(line, name) of each plain `name = ...` inside a function whose
    name the function never reads; `_` is exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        declared = {name for node in ast.walk(func)
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Name) and target.id != "_"
                        and target.id not in read | declared):
                    found.append((node.lineno, target.id))
    return sorted(set(found))


def test_no_unused_locals():
    """Every plain local assignment in a function is read in it."""
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += ["%s:%d %s" % (os.path.relpath(path, SRC), line, local)
                      for line, local in _unused_locals(tree)]
    assert not found, "unused locals in src: " + ", ".join(found)


EXACT_LAYERS = ("linalg", "rootdata", "liealg", "grouprep", "polytope",
                "toric")


def test_exact_layers_have_no_float_literals():
    """The exact layers decide in rationals: a float constant there is a
    tolerance or a float copy of an exact decision."""
    found = []
    for module in EXACT_LAYERS:
        path = os.path.join(SRC, module + ".py")
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s.py:%d %r" % (module, node.lineno, node.value)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, float)]
    assert not found, "float literals in exact layers: " + ", ".join(found)


INTEGER_KERNEL = ("_int_exp_apply", "_mat_vec", "Rep.apply_word",
                  "Rep._int_matrix")


def test_integer_kernel_names_no_fraction():
    """The group-element kernel runs in integers: its functions, and its
    methods named as `Class.name`, name neither Fraction nor a
    module-level Fraction constant of grouprep."""
    from fractions import Fraction
    from petersonlab import grouprep
    path = os.path.join(SRC, "grouprep.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    funcs.update(("%s.%s" % (cls.name, node.name), node)
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef))
    assert set(INTEGER_KERNEL) <= set(funcs)
    found = []
    for name in INTEGER_KERNEL:
        for node in ast.walk(funcs[name]):
            ident = getattr(node, "id", getattr(node, "attr", None))
            value = getattr(grouprep, ident, None) if ident else None
            if ident == "Fraction" or value is Fraction or isinstance(
                    value, Fraction):
                found.append("%s:%d %s" % (name, node.lineno, ident))
    assert not found, "Fraction in the integer kernel: " + ", ".join(found)


def test_no_module_imports_numpy_or_scipy():
    """Every layer, the hull oracle included, runs on the standard
    library: no module in src imports numpy or scipy."""
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    mods = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    mods = [node.module]
                else:
                    continue
                found += ["%s:%d" % (os.path.relpath(path, SRC), node.lineno)
                          for m in mods
                          if m.split(".")[0] in ("numpy", "scipy")]
    assert not found, "numpy or scipy imported in src: " + ", ".join(found)


def test_benchmark_finds_every_name_it_reads():
    """The benchmark in perfbench/ wraps package attributes by name and
    reads the suites' default types: a fresh interpreter installs its
    tracer and lists a non-empty set of units for every workload, so a
    renamed or deleted name fails here first.  -B keeps bytecode out of
    perfbench/."""
    root = os.path.dirname(os.path.dirname(SRC))
    script = ("import json, sys\n"
              "sys.path[:0] = sys.argv[1:]\n"
              "import tracing, worker, workloads\n"
              "tracing.Tracer().install()\n"
              "print(json.dumps({w: len(worker.units(w))\n"
              "                  for w in workloads.WORKLOADS}))\n")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, os.path.join(root, "perfbench"),
         os.path.dirname(SRC)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    units = json.loads(proc.stdout.splitlines()[-1])
    assert units and all(units.values()), units


def test_workspace_is_the_one_module_level_cache():
    """No module-level function in src is memoized with functools except
    `grouprep.workspace`: the Workspace registry is the one process-wide
    cache, and the values a reader needs are passed to it."""
    found = []
    for root, _, files in os.walk(SRC):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            for func in tree.body:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                for deco in func.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    attr = getattr(target, "attr", getattr(target, "id", ""))
                    where = "%s.%s" % (name[:-3], func.name)
                    if (attr in ("lru_cache", "cache")
                            and where != "grouprep.workspace"):
                        found.append(where)
    assert not found, "module-level caches in src: " + ", ".join(found)


# Functions that src defines and does not call, each for a reason
UNCALLED_IN_SRC = {
    "grouprep.GroupElement.row_apply": "perfbench/tracing.py wraps it",
    "grouprep.tnn_membership_typeA": "perfbench/tracing.py wraps it",
    "verify._default_types": "perfbench reads each suite's types with it",
    "peterson.peterson_membership": "lemma53 is to check it (ROADMAP items "
                                    "6 and 11)",
    "polytope._exact_hull_facets": "the general double description that "
                                   "tests compare the symmetric facets with",
    "polytope.weyl_orbit": "the Fraction orbit that tests hand to "
                           "_exact_hull_facets",
}


def _uncalled_functions():
    """Qualified names of the functions and methods in src that nothing in
    src refers to.  A function outside a class body is referred to by its
    bare name in its own module, by `module.name` elsewhere, or by an
    import of the name; a method, by any `.name` attribute."""
    trees = {}
    for name in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, name)) as fh:
            trees[name[:-3]] = ast.parse(fh.read(), filename=name)
    attrs, qualified, imported = set(), set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom):
                imported.update(a.name for a in node.names)
    found = []
    for module, tree in trees.items():
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        methods = {id(f): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = func.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if id(func) in methods:
                where = "%s.%s.%s" % (module, methods[id(func)], name)
                used = name in attrs or name in names
            else:
                where = "%s.%s" % (module, name)
                used = (name in names or (module, name) in qualified
                        or name in imported)
            if not used:
                found.append(where)
    return found


def test_no_unused_functions():
    """Every function or method defined in src has a caller in src,
    apart from dunders and the reasoned names of UNCALLED_IN_SRC."""
    found = _uncalled_functions()
    stale = sorted(set(UNCALLED_IN_SRC) - set(found))
    assert not stale, "called now, drop from the allowlist: %s" % stale
    extra = sorted(set(found) - set(UNCALLED_IN_SRC))
    assert not extra, "functions with no caller in src: " + ", ".join(extra)
