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
    names = set()
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        names.update(d.name for d in members
                      if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not d.name.startswith("_"))
    return names


def named_uses(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a variable, an attribute or a string
    holding a dotted name, except where it is read inside a ``def`` of the
    same name."""
    used = set()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and all(part.isidentifier() for part in node.value.split(".")):
            found = node.value.split(".")
        else:
            found = []
        used.update(name for name in found if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_function_is_used_in_the_package_or_the_benchmark():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    used = set().union(*(named_uses(parse(p)) for p in [*sources, *PERFBENCH.glob("*.py")]))
    unused = {path.name: sorted(public_defs(parse(path)) - used - ENTRY_POINTS)
              for path in sources}
    assert {name: defs for name, defs in unused.items() if defs} == {}


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
    # ``depth`` and ``view`` name themselves only inside their own defs
    assert public_defs(tree) - named_uses(tree) == {"build", "depth", "view"}
