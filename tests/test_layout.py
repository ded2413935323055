import argparse
import ast
import pathlib

import qmele
from qmele import cli

# (importing module, imported module, name): the private names a module may
# take from another; none, since the Evaluator hands the fit its eps and h
ALLOWED_PRIVATE_IMPORTS = set()


def test_no_module_imports_another_modules_private_name():
    found = set()
    for path in sorted(pathlib.Path(qmele.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    assert not found - ALLOWED_PRIVATE_IMPORTS


def _args_reads(funcs, name, seen=()):
    """The dests that module function `name` reads from args: args.<dest>,
    the names it hands _given(args, ...), and those of each module function
    it hands args to."""
    reads = set()
    for node in ast.walk(funcs[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passes_args = any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
            if node.func.id == "_given" and passes_args:
                reads |= {a.value for a in node.args if isinstance(a, ast.Constant)}
            elif passes_args and node.func.id in funcs and node.func.id not in seen:
                reads |= _args_reads(funcs, node.func.id, (*seen, name))
    return reads


def test_every_cli_flag_is_read_by_its_verb():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    verbs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = set()
    for verb, parser in verbs.choices.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        unread |= {(verb, dest) for dest in dests - _args_reads(funcs, parser.get_default("func").__name__)}
    assert not unread
