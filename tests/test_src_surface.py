"""The library holds no test-only code: every public function and method
defined in the package is used somewhere in the package or the benchmark
outside its own ``def``, or is a library entry point kept for users.  The
definitions the tests compare against live in ``tests/reference.py``.

A use names one definition.  A module-level function is used through a bare
name in its own module that no enclosing function binds, an import of it,
or an attribute of its own module (``rx.to_dfa``).  A method is used
through any attribute of its name, since the object's class is not known,
or a string constant passed where a call takes an attribute name
(``getattr(x, "size")``, ``operator.attrgetter("a.b")``).  A same-named
method, local variable or string does not keep a module-level function
alive, and a string anywhere else (a JSON key) keeps no method alive."""

import ast
from pathlib import Path

import treepolicy

PACKAGE = Path(treepolicy.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Entry points a user of the library calls that the CLI and the benchmark
# do not: the oracle's per-form checks, the regex parser, the built-in
# policy corpus, the topology generator and writer, and the reader of the
# automaton document that ``compile`` writes.
ENTRY_POINTS = {
    "first_match", "sat_hierarchical", "sat_linear", "parse_regex",
    "corpus_documents", "generate_topology", "topology_to_json", "import_vpa",
}


def public_defs(module: str, tree: ast.Module) -> dict[tuple, str]:
    """The module's public functions, keyed ``("fn", module, name)``, and
    its classes' public methods, keyed ``("method", name)``, each mapped to
    its name; functions nested in functions are local and not counted."""
    return {key: d.name for key, d in _public_def_nodes(module, tree)}


def _public_def_nodes(module: str, tree: ast.Module) -> list[tuple[tuple, ast.AST]]:
    nodes = []
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for d in node.body if is_class else [node]:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not d.name.startswith("_"):
                nodes.append((("method", d.name) if is_class else ("fn", module, d.name), d))
    return nodes


def _module_aliases(tree: ast.Module, package: str) -> dict[str, str]:
    """The names that stand for package modules in a module: ``rx`` for
    ``from . import regex as rx``, ``compiler`` for ``from treepolicy import
    compiler``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 and not node.module
                                                 or node.module == package):
            aliases.update((a.asname or a.name, a.name) for a in node.names)
    return aliases


# The calls that take attribute names, with the position of the argument
# naming one (``None``: every argument names one)
_ATTRIBUTE_NAME_ARGUMENT = {"getattr": 1, "setattr": 1, "hasattr": 1, "delattr": 1,
                            "attrgetter": None, "methodcaller": 0}


def _attribute_names(call: ast.Call) -> list[str]:
    """The string constants a call passes as attribute names."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name not in _ATTRIBUTE_NAME_ARGUMENT:
        return []
    i = _ATTRIBUTE_NAME_ARGUMENT[name]
    args = call.args if i is None else call.args[i:i + 1]
    return [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = (*_FUNCTIONS, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds: its parameters
    and every name assigned in it, nested scopes included."""
    names = {n.id for n in ast.walk(scope)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(scope, _FUNCTIONS):
        a = scope.args
        names.update(x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                     if x)
    return names


def _uses(node: ast.AST, module: str, aliases: dict[str, str], package: str,
          local: set[str]) -> list[tuple]:
    """The definitions one node names, as ``public_defs`` keys; ``local``
    holds the names the enclosing scopes bind, which name no function."""
    if isinstance(node, ast.Name):
        return [] if node.id in local else [("fn", module, node.id)]
    if isinstance(node, ast.Attribute):
        uses = [("method", node.attr)]
        if isinstance(node.value, ast.Name) and node.value.id in aliases:
            uses.append(("fn", aliases[node.value.id], node.attr))
        return uses
    if isinstance(node, ast.ImportFrom) and node.module:
        source = node.module if node.level else node.module.removeprefix(package + ".")
        return [("fn", source, a.name) for a in node.names]
    if isinstance(node, ast.Call):
        return [("method", part) for name in _attribute_names(node) for part in name.split(".")]
    return []


def named_uses(module: str, tree: ast.Module, package: str = "treepolicy"
               ) -> tuple[set[tuple], dict[tuple, set[tuple]]]:
    """The definitions the module uses outside its public defs, and for each
    public def the definitions used inside it (for a method, inside every
    method of its name)."""
    owner_of = {id(d): key for key, d in _public_def_nodes(module, tree)}
    aliases = _module_aliases(tree, package)
    outside: set[tuple] = set()
    inside: dict[tuple, set[tuple]] = {}

    def visit(node, owner, local):
        owner = owner_of.get(id(node), owner)
        if isinstance(node, _SCOPES):
            local = local | _local_names(node)
        uses = _uses(node, module, aliases, package, local)
        (outside if owner is None else inside.setdefault(owner, set())).update(uses)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, local)

    visit(tree, None, set())
    return outside, inside


def unused_defs(package: dict[str, ast.Module], users: dict[str, ast.Module] | None = None,
                entry_points: set[str] = frozenset(), name: str = "treepolicy") -> set[str]:
    """The names of the package's public defs that nothing uses; the
    package and its users are maps from module name to syntax tree.  A use
    counts only where it sits outside every unused public def: the uses
    outside public defs, in ``users`` and of the entry points' module-level
    functions count, and so, to a fixpoint, does every use inside a def
    that is used."""
    defs = {}
    for module, tree in package.items():
        defs.update(public_defs(module, tree))
    used = {key for key in defs if key[0] == "fn" and key[2] in entry_points}
    bodies: dict[tuple, set[tuple]] = {}
    for module, tree in package.items():
        outside, inside = named_uses(module, tree, name)
        used |= outside
        for key, uses in inside.items():
            bodies.setdefault(key, set()).update(uses)
    for module, tree in (users or {}).items():
        outside, inside = named_uses(module, tree, name)
        used |= outside.union(*inside.values())
    todo = list(used)
    while todo:
        for key in bodies.get(todo.pop(), set()) - used:
            used.add(key)
            todo.append(key)
    return {defs[key] for key in defs.keys() - used}


def parse(paths) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def test_every_public_function_is_used_in_the_package_or_the_benchmark():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    unused = unused_defs(parse(sources), parse(PERFBENCH.glob("*.py")), ENTRY_POINTS)
    assert sorted(unused) == []


def test_a_test_only_function_is_caught():
    source = (
        "def build(xs):\n    return [step(x) for x in xs]\n\n"
        "def step(x):\n    return getattr(x, 'size')() + 1\n\n"
        "def depth(t):\n    return 1 + max(map(depth, t), default=0)\n\n"
        "class Word:\n    def view(self):\n        return self.view\n\n"
        "    def size(self):\n        return 0\n"
    )
    tree = ast.parse(source)
    assert set(public_defs("pkg", tree).values()) == {"build", "step", "depth", "view", "size"}
    # ``depth`` and ``view`` name themselves only inside their own defs;
    # ``step`` and ``size`` are named only inside the unused ``build``
    assert unused_defs({"pkg": tree}) == {"build", "step", "depth", "view", "size"}
    assert unused_defs({"pkg": tree}, entry_points={"build"}) == {"depth", "view"}


def test_a_function_only_unused_functions_call_is_caught():
    # ``sub_word`` and ``return_of`` are called only by test-only code
    package = ast.parse(
        "def subtrees(w):\n    return [sub_word(w, i) for i in w]\n\n"
        "def sub_word(w, i):\n    return w[return_of(w, i)]\n\n"
        "def seq_leaf(w):\n    return [return_of(w, i) for i in w]\n\n"
        "def return_of(w, i):\n    return i\n\n"
        "def plan(t):\n    return step(t)\n\n"
        "def step(t):\n    return t\n"
    )
    bench = ast.parse("from pkg.words import plan\nplan(None)\n")
    assert unused_defs({"words": package}, {"bench": bench}, name="pkg") == {
        "subtrees", "sub_word", "seq_leaf", "return_of"}
    # a use inside a used def counts
    assert unused_defs({"words": package}, {"bench": bench}, {"seq_leaf"}, "pkg") == {
        "subtrees", "sub_word"}


def test_a_same_named_method_variable_or_string_keeps_no_function_alive():
    package = {
        "words": ast.parse(
            "def children(w):\n    return list(w)\n\n"
            "def seq(w):\n    return w\n\n"
            "def subtree(w):\n    return w\n\n"
            "def first(w):\n    return w[0]\n\n"
            "def walk(w):\n    seq = [children for children in w]\n    return seq\n"),
        "mesh": ast.parse(
            "from . import words as wd\nfrom .words import subtree\n\n"
            "class Topology:\n    def children(self):\n        return self.children\n\n"
            "    def delta_call(self):\n        return {}\n\n"
            "def plan(t):\n"
            "    seq = 'seq'\n    first = t.first\n"
            "    doc = {'delta_call': []}\n"
            "    return t.children(), seq, first, wd.subtree, wd.walk, doc\n"),
    }
    bench = ast.parse("from pkg import mesh\nmesh.plan(None)\n")
    # ``children`` is a method's name and a local variable's, ``seq`` a
    # string and local variables' in both modules, ``first`` an attribute
    # of something other than its module, ``delta_call`` a JSON key
    assert unused_defs(package, {"bench": bench}, name="pkg") == {
        "children", "seq", "first", "delta_call"}


def test_an_attribute_name_string_keeps_a_method_alive():
    tree = ast.parse(
        "import operator\nfrom operator import attrgetter\n\n"
        "class Shape:\n"
        + "".join(f"    def {m}(self):\n        return 0\n\n"
                  for m in ("area", "size", "grow", "width", "height", "label"))
        + "def measure(s):\n"
        "    return (getattr(s, 'area')(), hasattr(s, 'size'), operator.methodcaller('grow'),\n"
        "            attrgetter('width.height')(s), getattr(s, 'x', 'label'))\n")
    # a default value is not an attribute name
    assert unused_defs({"shapes": tree}, entry_points={"measure"}) == {"label"}
