"""Every command line run ends in one place: cli._execute.

cli.py names _write_summary exactly once outside its definition, in a call
inside _execute (read with ast, so nothing is imported), so no command
writes summary.txt itself or decides an exit code for a failure the runner
maps.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "frontlab" / "cli.py"


def summary_uses(source: str) -> list:
    """(line, enclosing function, is a call) of each use of the name
    _write_summary, as a name or an attribute."""
    found = []

    def visit(node, owner, callee):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name == "_write_summary":
                found.append((child.lineno, owner, child is callee))
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else owner
            visit(child, inner, child.func if isinstance(child, ast.Call) else None)

    visit(ast.parse(source), None, None)
    return found


def test_one_summary_write_inside_execute():
    uses = summary_uses(CLI.read_text())
    assert [(owner, call) for _, owner, call in uses] == [("_execute", True)]


def test_the_guard_sees_a_second_writer():
    source = """
def _execute(command, scenario, outdir):
    code, metrics = command(scenario, outdir)
    _write_summary(outdir, scenario, metrics)

def cmd_x(scenario, outdir):
    def finish():
        cli._write_summary(outdir, scenario, {})
    write = _write_summary
    return 0, {}
"""
    assert summary_uses(source) == [(4, "_execute", True), (8, "finish", True),
                                    (9, "cmd_x", False)]
