"""The README's *Library tour* block runs, and each expression it shows
gives what its comment states."""

import ast
import re
from pathlib import Path

from sumsign import Sign, Verdict, derive, is_balanced_fast, is_bipartite

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_block():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Library tour block"
    return match.group(1)


def test_library_tour_runs_as_its_comments_state():
    """Runs the block statement by statement and keeps the value of each
    bare expression, keyed by its source; every one shown is checked."""
    namespace = {}
    shown = {}
    for stmt in ast.parse(_tour_block()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown[ast.unparse(stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    derived = shown.pop("slg.signs['u', 'v']")
    assert derived is Sign.POSITIVE
    assert shown.pop("validate_aiasl(slg).ok") is True
    assert shown.pop("predicted_sign(slg, ('u', 'v'))") is derived
    assert shown.pop("is_balanced_oracle(slg)")[0] is True
    balanced, camps = shown.pop("is_balanced_fast(slg)")
    assert balanced is True and len(camps) == 2
    assert shown.pop("is_balanced_fast(out.result)") == (False, None)
    assert shown.pop("report.verdict") is Verdict.COUNTEREXAMPLE_FOUND
    # The smallest balanced labeling of a graph that is not bipartite.
    first = shown.pop("report.counterexamples[0]")
    assert is_balanced_fast(derive(first.graph, first.labeling))[0]
    assert not is_bipartite(first.graph)
    assert first.sort_key() == min(ce.sort_key() for ce in namespace["report"].counterexamples)
    assert shown == {}
