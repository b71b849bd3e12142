"""The size of the package's option and name surface, and where it walks
orbits.

A defaulted parameter is an option that callers may leave unset.  They
are counted by one rule: the positional and keyword-only defaults of
every ``def`` under ``src/horseshoe`` (lambdas excluded).  The count is
a ceiling: a change that adds an option raises ``MAX_DEFAULTS`` and
gives the reason in ``CHANGES.md``.  Public names have their own
ceiling, ``MAX_PUBLIC``, kept the same way: the top-level functions and
classes of each module whose name does not start with an underscore.

``map_core.iterates`` is the one orbit walk: no other module steps a
point by feeding ``apply`` or ``apply_inverse`` its own last result.
Products of derivatives along a walk come from the one carrier,
``map_core._scaled_products``, over the branch rows: no other module
builds a ``jacobian`` or ``jacobian_inverse`` array.

A module docstring that lists its "Numerical settings" names only
constants that the module defines, and it names every private
module-level constant assigned a number or an arithmetic expression.
"""

import ast
import importlib
import re
from pathlib import Path

import horseshoe
from horseshoe import map_core as mc

MAX_DEFAULTS = 14
MAX_PUBLIC = 120
SRC = Path(horseshoe.__file__).parent


def _defaults(tree: ast.AST) -> int:
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_defaulted_parameters_stay_within_the_ceiling():
    count = sum(_defaults(ast.parse(f.read_text())) for f in SRC.glob("*.py"))
    assert count <= MAX_DEFAULTS


def test_the_rule_counts_keyword_only_defaults_and_skips_lambdas():
    tree = ast.parse("def f(a, b=1, *c, d, e=2, **g):\n"
                     "    h = lambda x=3: x\n"
                     "    async def i(j=4): pass\n")
    assert _defaults(tree) == 3


def _public(tree: ast.Module) -> list:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def test_public_names_stay_within_the_ceiling():
    count = sum(len(_public(ast.parse(f.read_text())))
                for f in SRC.glob("*.py"))
    assert count <= MAX_PUBLIC


def test_the_public_rule_counts_top_level_definitions_only():
    tree = ast.parse("def f(): pass\n"
                     "async def g(): pass\n"
                     "class C:\n"
                     "    def method(self): pass\n"
                     "def _private(): pass\n"
                     "h = lambda: 0\n"
                     "if True:\n"
                     "    def nested(): pass\n")
    assert _public(tree) == ["f", "g", "C"]


def _hand_steps(tree: ast.AST) -> list:
    """Line numbers of ``x = apply(..., x)`` and ``x = apply_inverse(...,
    x)``, the function called by name or as an attribute."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name in ("apply", "apply_inverse") and any(
                isinstance(a, ast.Name) and a.id == node.targets[0].id
                for a in node.value.args):
            lines.append(node.lineno)
    return lines


def test_only_map_core_steps_a_point_by_hand():
    found = {f.name: _hand_steps(ast.parse(f.read_text()))
             for f in SRC.glob("*.py") if f.name != "map_core.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_hand_step_rule_sees_both_spellings():
    tree = ast.parse("p = apply(params, p)\n"
                     "q = mc.apply_inverse(params, q)\n"
                     "r = apply(params, p)\n")
    assert _hand_steps(tree) == [1, 2]


def _jacobian_calls(tree: ast.AST) -> list:
    """Line numbers of calls of ``jacobian`` or ``jacobian_inverse``, the
    function called by name or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None))
            in ("jacobian", "jacobian_inverse")]


def test_only_map_core_builds_jacobians():
    found = {f.name: _jacobian_calls(ast.parse(f.read_text()))
             for f in SRC.glob("*.py") if f.name != "map_core.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    tree = ast.parse("a = jacobian(params, p)\n"
                     "b = mc.jacobian_inverse(params, p)\n"
                     "c = jacobian\n")
    assert _jacobian_calls(tree) == [1, 2]


def test_every_exported_map_core_name_exists():
    assert [n for n in mc.__all__ if not hasattr(mc, n)] == []


def test_every_public_map_core_definition_is_exported():
    tree = ast.parse(Path(mc.__file__).read_text())
    assert [n for n in _public(tree) if n not in mc.__all__] == []


def _settings(doc: str) -> list:
    """The names in double backquotes in the paragraph of ``doc`` that
    starts at "Numerical settings", up to the next blank line."""
    start = doc.find("Numerical settings")
    if start < 0:
        return []
    paragraph = doc[start:].split("\n\n")[0]
    return re.findall(r"``(\w+)``", paragraph)


def test_every_named_numerical_setting_exists():
    modules = [importlib.import_module(f"horseshoe.{f.stem}")
               for f in SRC.glob("*.py")]
    named = {m: _settings(m.__doc__ or "") for m in modules}
    assert sum(bool(names) for names in named.values()) == 6
    missing = {m.__name__: [n for n in names if not hasattr(m, n)]
               for m, names in named.items()}
    assert {name: gone for name, gone in missing.items() if gone} == {}


def test_the_settings_rule_reads_one_paragraph():
    doc = ("Intro ``_NOT_A_SETTING``.\nNumerical settings: ``_A`` and\n"
           "``_B``.\n\nLater ``_C``.\n")
    assert _settings(doc) == ["_A", "_B"]
    assert _settings("No list here: ``_A``.") == []


def _numeric_constants(tree: ast.Module) -> list:
    """Private module-level names assigned a number or an arithmetic
    expression of numbers and names."""
    def arithmetic(node) -> bool:
        return not isinstance(node, ast.Name) and all(
            isinstance(n, (ast.BinOp, ast.UnaryOp, ast.operator,
                           ast.unaryop, ast.Name, ast.expr_context))
            or isinstance(n, ast.Constant) and type(n.value) in (int, float)
            for n in ast.walk(node))

    return [t.id for node in tree.body if isinstance(node, ast.Assign)
            and arithmetic(node.value) for t in node.targets
            if isinstance(t, ast.Name) and t.id.startswith("_")
            and not t.id.startswith("__")]


def test_every_numerical_constant_is_a_named_setting():
    unnamed = {}
    for f in SRC.glob("*.py"):
        tree = ast.parse(f.read_text())
        names = _settings(ast.get_docstring(tree) or "")
        unnamed[f.stem] = [n for n in _numeric_constants(tree)
                           if n not in names]
    assert {m: gone for m, gone in unnamed.items() if gone} == {}


def test_the_constant_rule_reads_numbers_and_arithmetic():
    tree = ast.parse("_A = 3\n_B = 2.0 ** -20\n_C = 1 << _A\n_D = -_B\n"
                     "PUBLIC = 1\n_E = _A\n_F = Fraction(2, 3)\n"
                     "_G = 'text'\n_H = True\n__version__ = 1\n"
                     "def f():\n    _I = 1\n")
    assert _numeric_constants(tree) == ["_A", "_B", "_C", "_D"]
