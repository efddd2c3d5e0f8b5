"""The library holds only what it reaches and reads.

Every name a library module imports is used in that module;
`__future__` imports are directives, not names.  `__init__.py` is its
docstring only: each name is imported from the module that defines it.

Every top-level function, class and method of the library is reached
by name from a root, and every parameter is read by its function
(`self` and `cls` aside).  The roots are what runs the package
(`cli.main`, the `@command` handlers, the `@suite` functions), what
runs on import (module-level code, dunders), what the benchmark uses,
and `LIBRARY_ONLY`.  A name `__init__` exports is no root: an export
that only tests reach is found like any other definition.  What the
benchmark uses is the names `perfbench/workloads.py` imports from
tamebox, the methods it calls on library objects (each library method
named by an attribute it calls), and the entries of `TARGETS`,
`COUNTED` and `CACHED` in `perfbench/spans.py`.  Each name it imports
and each entry must still name something in the library, or a traced
benchmark run fails on install.  The benchmark files are read here,
never imported.

The walk reaches a method by its name alone, so a method that only
tests call passes as reached when another library class defines a
method of the same name that the library calls.  `SHARED_METHOD_NAMES`
pins the method names more than one class defines, dunders aside: a
new one fails here, and whether each of its methods is reached has to
be checked by hand.

`LIBRARY_ONLY` lists the library API that no command, suite or
benchmark reaches yet.  It holds exactly what the walk needs: README's
"Library-only" paragraph names each entry, and an entry that the other
roots reach is stale.

Every constructor that makes an object without its `__init__` (by
`object.__new__`) trusts the relations of what it builds, and the
fixture in `conftest.py` wraps each one, so Tier-1 still checks
them.  The library never calls the public `TruncatedISet(...)`: that
validating constructor is for documents, and every diagram the library
builds comes from `_built` or `_derived`."""

import ast
import os
import re
from collections import Counter

import pytest

import tamebox
from conftest import TRUSTED

PACKAGE = os.path.dirname(os.path.abspath(tamebox.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")
README = os.path.join(ROOT, "README.md")

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
REGISTERING = ("command", "suite")  # decorators that enter a function

# library API with no caller in a command, a suite or the benchmark yet
LIBRARY_ONLY = (
    ("mset", "MSetMorphism.apply"),
    ("mset", "coequalize"),
)

# method names more than one library class defines, dunders aside; the
# library calls each `_built` and `_take`, and README names the two
# `compose` methods only tests call
SHARED_METHOD_NAMES = {"_built", "_take", "compose"}


def unused_imports(source):
    """The names bound by imports in the source that no expression
    reads, in order of first import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def library():
    """Every module of the package, by name."""
    return {name[:-3]: _parse(os.path.join(PACKAGE, name))
            for name in MODULES}


def _reads(nodes):
    """The names and the attribute names read anywhere in the nodes."""
    names, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attributes.add(sub.attr)
    return names, attributes


def _on_import(node):
    """The parts of a top-level statement that run on import: all of it
    but the bodies of its functions."""
    if isinstance(node, FUNCTIONS):
        return [*node.decorator_list, node.args, *filter(None, [node.returns])]
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords,
                *(part for item in node.body for part in _on_import(item))]
    return [node]


def definitions(trees):
    """(module, qualified name) -> node for every top-level function and
    class and every method."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                out[module, node.name] = node
            if isinstance(node, ast.ClassDef):
                out.update(((module, f"{node.name}.{item.name}"), item)
                           for item in node.body
                           if isinstance(item, FUNCTIONS))
    return out


def shared_method_names(trees):
    """The method names, dunders aside, that more than one library
    class defines."""
    owners = Counter(key[1].rpartition(".")[2] for key in definitions(trees)
                     if "." in key[1])
    return {name for name, n in owners.items() if n > 1
            and not (name.startswith("__") and name.endswith("__"))}


def _is_root(key, node):
    name = key[1].rpartition(".")[2]
    return (key == ("cli", "main")
            or name.startswith("__") and name.endswith("__")
            or any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                   and d.func.id in REGISTERING for d in node.decorator_list))


def unreached(trees, roots=()):
    """The definitions that nothing reaches by name, sorted.  A reached
    function reaches what its body reads.  A top-level definition is
    reached by a name or an attribute (`docs.reader`), a method by an
    attribute only."""
    names, attributes = _reads(
        part for tree in trees.values() for node in tree.body
        for part in _on_import(node))
    waiting = definitions(trees)
    grew = True
    while grew:
        grew = False
        for key, node in list(waiting.items()):
            name = key[1].rpartition(".")[2]
            if (key in roots or _is_root(key, node) or name in attributes
                    or "." not in key[1] and name in names):
                del waiting[key]
                grew = True
                if isinstance(node, FUNCTIONS):
                    more_names, more_attributes = _reads(node.body)
                    names |= more_names
                    attributes |= more_attributes
    return sorted(waiting)


def readme_library_only(text):
    """The names README's "Library-only" paragraph sets in backticks as
    single words; a dotted name (`Class.method`) is left out."""
    start = text.index("**Library-only.**")
    return set(re.findall(r"`(\w+)`", text[start:].split("\n\n", 1)[0]))


def library_only_problems(trees, entries, named):
    """What keeps the entries from being exactly the library-only roots
    README names: ("unnamed", key) for an entry whose top-level name
    README does not name, ("stale", key) for one the other roots
    reach, and ("unlisted", name) for a top-level definition README
    names that no entry lists."""
    left = set(unreached(trees, benchmark_roots(trees)))
    heads = {key[1].partition(".")[0] for key in entries}
    defined = {key[1] for key in definitions(trees) if "." not in key[1]}
    return ([("unnamed", key) for key in entries
             if key[1].partition(".")[0] not in named]
            + [("stale", key) for key in entries if key not in left]
            + [("unlisted", name)
               for name in sorted(named & defined - heads)])


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def unread_parameters(trees):
    """(module, line, function, parameter) for each parameter, `self`
    and `cls` aside, that its function or lambda never reads."""
    out = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS + (ast.Lambda,)):
                continue
            a = node.args
            params = [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      *filter(None, [a.vararg, a.kwarg])]]
            body = node.body if isinstance(node, FUNCTIONS) else [node.body]
            read = {sub.id for part in body for sub in ast.walk(part)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            out += [(module, node.lineno, getattr(node, "name", "<lambda>"), p)
                    for p in params if p not in ("self", "cls", *read)]
    return out


def trusted_constructors(trees):
    """(module, qualified name) of each definition that makes an object
    without its `__init__`, by `object.__new__`: the constructors that
    trust what they are given, sorted."""
    return sorted(key for key, node in definitions(trees).items()
                  if isinstance(node, FUNCTIONS) and any(
                      isinstance(sub, ast.Call)
                      and isinstance(sub.func, ast.Attribute)
                      and sub.func.attr == "__new__"
                      and getattr(sub.func.value, "id", None) == "object"
                      for sub in ast.walk(node)))


def public_iset_calls(trees):
    """(module, line) of each call of the public `TruncatedISet(...)`,
    by name or as a module attribute, sorted."""
    return sorted((module, sub.lineno) for module, tree in trees.items()
                  for sub in ast.walk(tree) if isinstance(sub, ast.Call)
                  and "TruncatedISet" in (getattr(sub.func, "id", None),
                                          getattr(sub.func, "attr", None)))


def benchmark_hooks(workloads, spans):
    """The (module, qualified name) pairs the benchmark needs, from the
    parsed `workloads.py` and `spans.py`: each name workloads imports
    from a tamebox module, each attribute it reads off an imported
    tamebox module, and each (module, path) entry of the span tables."""
    hooks, aliases = set(), {}
    for node in workloads.body:
        if isinstance(node, ast.ImportFrom) and node.module == "tamebox":
            aliases.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module.startswith("tamebox.")):
            module = node.module.partition(".")[2]
            hooks.update((module, alias.name) for alias in node.names)
    hooks.update((aliases[sub.value.id], sub.attr)
                 for sub in ast.walk(workloads)
                 if isinstance(sub, ast.Attribute)
                 and isinstance(sub.value, ast.Name)
                 and sub.value.id in aliases)
    for node in spans.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None)
                in ("TARGETS", "COUNTED", "CACHED")):
            hooks.update((entry.elts[0].value, entry.elts[1].value)
                         for entry in node.value.elts)
    return hooks


def benchmark_methods(trees, workloads):
    """The library methods `workloads.py` may call on library objects:
    each method whose name it calls as an attribute."""
    called = {sub.func.attr for sub in ast.walk(workloads)
              if isinstance(sub, ast.Call)
              and isinstance(sub.func, ast.Attribute)}
    return {key for key in definitions(trees)
            if "." in key[1] and key[1].rpartition(".")[2] in called}


def workloads_tree():
    return _parse(os.path.join(PERFBENCH, "workloads.py"))


def benchmark(workloads=None):
    return benchmark_hooks(workloads or workloads_tree(),
                           _parse(os.path.join(PERFBENCH, "spans.py")))


def benchmark_roots(trees, workloads=None):
    """The definitions the benchmark reaches: those its hooks name and
    the methods it calls."""
    workloads = workloads or workloads_tree()
    return (resolve(trees, benchmark(workloads))[0]
            | benchmark_methods(trees, workloads))


def _binding(trees, module, name):
    """Where `name` is defined for `module`: the (module, name) key of
    its definition, followed through `from .x import name`; True for
    any other top-level binding; None when unbound."""
    for node in trees.get(module, ast.Module(body=[])).body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)) and node.name == name:
            return module, name
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _binding(trees, node.module, alias.name)
        if isinstance(node, ast.Assign) and name in _reads(node.targets)[0]:
            return True
    return None


def resolve(trees, hooks):
    """The definitions the hooks name, and the hooks naming nothing."""
    defined = definitions(trees)
    found, missing = set(), []
    for module, path in sorted(hooks):
        head, _, method = path.partition(".")
        key = _binding(trees, module, head)
        if method and isinstance(key, tuple):
            key = (key[0], f"{key[1]}.{method}")
        if key is None or method and key not in defined:
            missing.append((module, path))
        elif key is not True:
            found.add(key)
    return found, missing


def test_finds_an_unused_import():
    source = "import os\nfrom math import comb, gcd\n\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == [(1, "os"), (2, "comb")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_init_is_its_docstring_only():
    # no second import path: each name comes from its own module
    tree = library()["__init__"]
    assert ast.get_docstring(tree)
    assert [ast.unparse(node) for node in tree.body[1:]] == []


def test_every_benchmark_hook_names_a_library_definition():
    found, missing = resolve(library(), benchmark())
    assert missing == []
    assert ("sigma", "SigmaSet.iso_type") in found


def test_every_definition_is_reached():
    trees = library()
    assert unreached(trees, benchmark_roots(trees) | set(LIBRARY_ONLY)) == []


def test_shared_method_names_are_pinned():
    assert shared_method_names(library()) == SHARED_METHOD_NAMES


def test_finds_an_added_shared_method_name():
    # a second `act` would hide behind CanonicalTameMSet.act, which the
    # library calls, however few callers it had itself
    trees = library()
    colimit = definitions(trees)["iset", "OmegaColimit"]
    colimit.body += ast.parse("def act(self, f, c):\n    return c\n").body
    assert shared_method_names(trees) == SHARED_METHOD_NAMES | {"act"}
    assert unreached(trees, benchmark_roots(trees) | set(LIBRARY_ONLY)) == []


def test_library_only_is_what_readme_names():
    named = readme_library_only(readme_text())
    assert library_only_problems(library(), LIBRARY_ONLY, named) == []


def test_every_parameter_is_read():
    assert unread_parameters(library()) == []


def test_finds_an_added_unreached_function():
    trees = library()
    trees["mset"].body += ast.parse("def _spare(x):\n    return x\n").body
    roots = benchmark_roots(trees) | set(LIBRARY_ONLY)
    assert unreached(trees, roots) == [("mset", "_spare")]


def test_finds_an_added_function_that_only_init_exports():
    # every name __init__ re-exported used to count as reached
    trees = library()
    trees["mset"].body += ast.parse("def spare(x):\n    return x\n").body
    trees["__init__"].body += ast.parse("from .mset import spare\n").body
    roots = benchmark_roots(trees) | set(LIBRARY_ONLY)
    assert unreached(trees, roots) == [("mset", "spare")]


def test_finds_a_library_only_entry_readme_does_not_name():
    named = readme_library_only(readme_text()) - {"coequalize"}
    assert library_only_problems(library(), LIBRARY_ONLY, named) == [
        ("unnamed", ("mset", "coequalize"))]


def test_finds_a_stale_library_only_entry():
    # once the library calls coequalize, the entry is not needed, nor
    # that of MSetMorphism.apply, which coequalize calls
    trees = library()
    trees["mset"].body += ast.parse("_SPARE = coequalize\n").body
    named = readme_library_only(readme_text())
    assert library_only_problems(trees, LIBRARY_ONLY, named) == [
        ("stale", ("mset", "MSetMorphism.apply")),
        ("stale", ("mset", "coequalize"))]


def test_finds_a_readme_name_no_entry_lists():
    named = readme_library_only(readme_text())
    entries = [key for key in LIBRARY_ONLY if key[1] != "coequalize"]
    assert library_only_problems(library(), entries, named) == [
        ("unlisted", "coequalize")]


def test_finds_an_added_unread_parameter():
    trees = library()
    box_pair = definitions(trees)["mset", "box_pair"]
    box_pair.args.args.append(ast.arg("spare"))
    assert unread_parameters(trees) == [
        ("mset", box_pair.lineno, "box_pair", "spare")]


def test_finds_a_benchmark_target_gone_from_the_library():
    # deleting SigmaSet.iso_type made every traced benchmark run raise
    trees = library()
    sigma_set = definitions(trees)["sigma", "SigmaSet"]
    sigma_set.body = [item for item in sigma_set.body
                      if getattr(item, "name", None) != "iso_type"]
    assert resolve(trees, benchmark())[1] == [("sigma", "SigmaSet.iso_type")]


def test_finds_a_method_only_the_benchmark_calls():
    # count_up_to is called by the benchmark's setup and by nothing in
    # the library: deleting it as unreached would break every run
    trees = library()
    method = ("mset", "CanonicalTameMSet.count_up_to")
    workloads = workloads_tree()
    assert method in benchmark_methods(trees, workloads)
    for sub in ast.walk(workloads):
        if isinstance(sub, ast.Attribute) and sub.attr == "count_up_to":
            sub.attr = "spare"
    roots = benchmark_roots(trees, workloads) | set(LIBRARY_ONLY)
    assert unreached(trees, roots) == [method]


def test_every_trusted_constructor_is_checked():
    # the conftest fixture wraps each one, so Tier-1 checks what it builds
    wrapped = sorted((cls.__module__.rpartition(".")[2],
                      f"{cls.__name__}.{name}") for cls, name, _ in TRUSTED)
    assert trusted_constructors(library()) == wrapped


def test_finds_an_added_trusted_constructor():
    trees = library()
    trees["mset"].body += ast.parse(
        "def _spare(cls):\n    return object.__new__(cls)\n").body
    assert ("mset", "_spare") in trusted_constructors(trees)


def test_library_builds_no_diagram_through_the_public_constructor():
    assert public_iset_calls(library()) == []


def test_finds_an_added_public_constructor_call():
    trees = library()
    trees["iset"].body += ast.parse(
        "def _spare(N):\n    return TruncatedISet(N, [[]], [], [[]])\n").body
    assert public_iset_calls(trees) == [("iset", 2)]
