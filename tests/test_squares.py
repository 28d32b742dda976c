"""Every route squares a value by x * x. x ** 2 calls libm's pow, which
IEEE 754 does not require to be correctly rounded, so it can differ from
x * x in the last bit, and from host to host. rates.quartic_coefficients, a
diagnostic whose values reach no output, is exempt.

For the same reason no decision takes a transcendental: the block kernels
map only math.log2 and pow (for the values that reach an output), and
neither the scheduler nor the kernels name rate_gap_at, so every pair is
decided by rates.noma_wins's + - * /. Nor does region: the oracle every
pair check reads bisects noma_wins, and only the feasibility scan and the
solver compute the gap, inline, with math.log2. No module names acos
either: a field-of-view cut compares a cosine with cos(fov), and no route
computes an angle.
"""

import ast
from pathlib import Path

import vlc_noma

EXEMPT = {("rates.py", "quartic_coefficients")}
MAPPABLE = {"math.log2", "pow"}


def _is_two(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def _is_pow(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "pow") or (
        isinstance(node, ast.Attribute) and node.attr == "pow")


def squares(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of each x ** 2, x **= 2 and pow(x, 2) whose
    base is not a constant, and of each pow mapped with a repeat(2)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exponent = node.left, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            base, exponent = node.target, node.value
        elif isinstance(node, ast.Call) and _is_pow(node.func) and len(node.args) >= 2:
            base, exponent = node.args[:2]
        elif isinstance(node, ast.Call) and any(map(_is_pow, node.args)):
            base = None
            exponent = next((a.args[0] for a in node.args if isinstance(a, ast.Call)
                             and getattr(a.func, "id", None) == "repeat" and a.args), None)
        else:
            base = exponent = None
        if _is_two(exponent) and not isinstance(base, ast.Constant):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_the_checker_finds_every_square_form():
    source = ("def f(d, xs):\n"
              "    d **= 2\n"
              "    return (d ** 2, pow(d, 2.0), math.pow(d, 2), mapped(pow, xs, repeat(2)),\n"
              "            2 ** 32, 10.0 ** 2, d ** 3, d * d, mapped(pow, xs, repeat(1.5)))\n")
    assert squares(ast.parse(source)) == [("f", 2), ("f", 3), ("f", 3), ("f", 3), ("f", 3)]


def test_the_package_squares_by_multiplication():
    package = Path(vlc_noma.__file__).parent
    found = [
        (path.name, where, line)
        for path in sorted(package.glob("*.py"))
        for where, line in squares(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, where) not in EXEMPT
    ]
    assert found == []


def mapped_functions(tree: ast.AST) -> list[tuple[str, int]]:
    """(function, line) of each mapped(fn, ...) whose fn is not in MAPPABLE."""
    return [(ast.unparse(node.args[0]), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "mapped"
            and node.args and ast.unparse(node.args[0]) not in MAPPABLE]


def gap_names(tree: ast.AST) -> list[int]:
    """Line of each import, call or other use of rate_gap_at."""
    return [node.lineno for node in ast.walk(tree)
            if getattr(node, "id", None) == "rate_gap_at"
            or getattr(node, "attr", None) == "rate_gap_at"
            or isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name == "rate_gap_at" for alias in node.names)]


def test_the_checkers_find_every_transcendental_decision():
    source = ("from .rates import noma_wins, rate_gap_at\n"
              "def f(g, r):\n"
              "    keep = (mapped(math.log2, r), mapped(pow, r, repeat(1.5)), noma_wins(g, r))\n"
              "    return (mapped(math.acos, r), mapped(rate_gap_at, g, r),\n"
              "            rates.rate_gap_at(g, r) >= 0.0, np.log2(r))\n")
    tree = ast.parse(source)
    assert sorted(mapped_functions(tree)) == [("math.acos", 4), ("rate_gap_at", 4)]
    assert sorted(gap_names(tree)) == [1, 4, 5]


def test_no_pair_or_field_of_view_decision_takes_a_transcendental():
    package = Path(vlc_noma.__file__).parent
    trees = {name: ast.parse((package / name).read_text(encoding="utf-8"))
             for name in ("batch.py", "region.py", "scheduler.py")}
    assert mapped_functions(trees["batch.py"]) == []
    assert {name: gap_names(tree) for name, tree in trees.items()} == {
        "batch.py": [], "region.py": [], "scheduler.py": []}


def arccosines(tree: ast.AST) -> list[int]:
    """Line of each import or other use of acos or arccos."""
    return [node.lineno for node in ast.walk(tree)
            if {getattr(node, key, None) for key in ("id", "attr", "name")}
            & {"acos", "arccos"}]


def test_the_checker_finds_every_arccosine():
    source = ("from math import acos\n"
              "def f(c, xs):\n"
              "    keep = (math.cos(c), c < cos_fov, np.cos(xs), acos_free(c))\n"
              "    return (math.acos(c), acos(c), np.arccos(xs),\n"
              "            mapped(math.acos, xs))\n")
    assert sorted(arccosines(ast.parse(source))) == [1, 4, 4, 4, 5]


def test_no_route_computes_an_angle():
    package = Path(vlc_noma.__file__).parent
    found = [(path.name, line) for path in sorted(package.glob("*.py"))
             for line in arccosines(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
