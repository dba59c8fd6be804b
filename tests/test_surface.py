"""Surface guard: every public module-level function or class of greenlab,
and every public method or property of its classes, is reached from the
package itself, not only from tests.

A definition is reached when some module of the package refers to its name
(as a name, an attribute or an imported name) outside the definition's own
lines.  Dataclass fields are not definitions here.  UNREACHED lists the
public names that have no such reference on purpose, each with its owner
(a method as Class.method); a listed name that gains a caller must leave
the list.
"""

import ast
import pathlib

import greenlab

PACKAGE = pathlib.Path(greenlab.__file__).parent

UNREACHED = {
    "tree_martin_kernel": "ROADMAP item 20 makes it the tree oracle's kernel",
    "box_domain": "ROADMAP item 17 needs it",
    "first_moment_partial": "acceptance criterion 10's closed form",
    "truncated_coordinate_moments": "acceptance criterion 10's moments",
    "pmf_from_dict": "test fixtures build integer pmfs with it",
    "read_report": "reads a report back, for tests and users",
    "report_body": "the golden tests compare report bodies with it",
}


def _references(tree):
    """(name, line) of every name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _definitions(tree):
    """(node, label) of every public module-level function and class, and
    of every public method and property of a module-level class (private
    classes included), labelled Class.method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield sub, f"{node.name}.{sub.name}"


def unreached_names() -> set:
    trees = {p.name: ast.parse(p.read_text(), p.name)
             for p in sorted(PACKAGE.glob("*.py"))}
    refs = {mod: list(_references(tree)) for mod, tree in trees.items()}
    out = set()
    for mod, tree in trees.items():
        for node, label in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (m == mod and line in own)
                       for m, pairs in refs.items() for name, line in pairs):
                out.add(label)
    return out


def test_every_public_definition_is_reached():
    unreached = unreached_names()
    assert sorted(unreached - set(UNREACHED)) == [], "no caller in greenlab"
    assert sorted(set(UNREACHED) - unreached) == [], "reached: unlist it"
