"""The library holds no test-only code: every public function and method
defined in the package is named somewhere in the package or the benchmark
outside its own ``def``, or is a library entry point kept for users.  The
definitions the tests compare against live in ``tests/reference.py``."""

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


def public_defs(tree: ast.Module) -> set[str]:
    """Names of the module's public functions and its classes' public
    methods; functions nested in functions are local and not counted."""
    return {d.name for d in _public_def_nodes(tree)}


def _public_def_nodes(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    nodes = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        nodes.extend(d for d in members
                     if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not d.name.startswith("_"))
    return nodes


def _names_read(node: ast.AST) -> list[str]:
    """The names one node reads: a variable, an attribute, or the parts of
    a string holding a dotted name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and all(part.isidentifier() for part in node.value.split(".")):
        return node.value.split(".")
    return []


def named_uses(tree: ast.Module) -> tuple[set[str], dict[str, set[str]]]:
    """The names the module reads outside its public defs, and for each
    public def's name the names read inside a def of that name."""
    owner_of = {id(d): d.name for d in _public_def_nodes(tree)}
    outside: set[str] = set()
    inside: dict[str, set[str]] = {}

    def visit(node, owner: str | None):
        owner = owner_of.get(id(node), owner)
        (outside if owner is None else inside.setdefault(owner, set())).update(_names_read(node))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return outside, inside


def unused_defs(package: list[ast.Module], users: list[ast.Module] = (),
                entry_points: set[str] = frozenset()) -> set[str]:
    """The package's public defs that nothing uses.  A use counts only where
    it sits outside every unused public def: the names read outside public
    defs, in ``users`` and in the entry points are used, and so, to a
    fixpoint, is every name read inside a def whose name is used."""
    used = set(entry_points)
    bodies: dict[str, set[str]] = {}
    for tree in package:
        outside, inside = named_uses(tree)
        used |= outside
        for name, names in inside.items():
            bodies.setdefault(name, set()).update(names)
    for tree in users:
        outside, inside = named_uses(tree)
        used |= outside.union(*inside.values())
    todo = list(used)
    while todo:
        for name in bodies.get(todo.pop(), set()) - used:
            used.add(name)
            todo.append(name)
    return set().union(*map(public_defs, package)) - used


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_function_is_used_in_the_package_or_the_benchmark():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    unused = unused_defs([parse(p) for p in sources], [parse(p) for p in PERFBENCH.glob("*.py")],
                         ENTRY_POINTS)
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
    assert public_defs(tree) == {"build", "step", "depth", "view", "size"}
    # ``depth`` and ``view`` name themselves only inside their own defs;
    # ``step`` and ``size`` are named only inside the unused ``build``
    assert unused_defs([tree]) == {"build", "step", "depth", "view", "size"}
    assert unused_defs([tree], entry_points={"build"}) == {"depth", "view"}


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
    bench = ast.parse("from pkg import plan\nplan(None)\n")
    assert unused_defs([package], [bench]) == {"subtrees", "sub_word", "seq_leaf", "return_of"}
    # a use inside a used def counts
    assert unused_defs([package], [bench], {"seq_leaf"}) == {"subtrees", "sub_word"}
