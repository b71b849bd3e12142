"""The size of the package's option surface.

A defaulted parameter is an option that callers may leave unset.  They
are counted by one rule: the positional and keyword-only defaults of
every ``def`` under ``src/horseshoe`` (lambdas excluded).  The count is
a ceiling: a change that adds an option raises ``MAX_DEFAULTS`` and
gives the reason in ``CHANGES.md``.
"""

import ast
from pathlib import Path

import horseshoe

MAX_DEFAULTS = 18


def _defaults(tree: ast.AST) -> int:
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_defaulted_parameters_stay_within_the_ceiling():
    src = Path(horseshoe.__file__).parent
    count = sum(_defaults(ast.parse(f.read_text())) for f in src.glob("*.py"))
    assert count <= MAX_DEFAULTS


def test_the_rule_counts_keyword_only_defaults_and_skips_lambdas():
    tree = ast.parse("def f(a, b=1, *c, d, e=2, **g):\n"
                     "    h = lambda x=3: x\n"
                     "    async def i(j=4): pass\n")
    assert _defaults(tree) == 3
