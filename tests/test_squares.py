"""Every route squares a value by x * x. x ** 2 calls libm's pow, which
IEEE 754 does not require to be correctly rounded, so it can differ from
x * x in the last bit, and from host to host. rates.quartic_coefficients, a
diagnostic whose values reach no output, is exempt.
"""

import ast
from pathlib import Path

import vlc_noma

EXEMPT = {("rates.py", "quartic_coefficients")}


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
