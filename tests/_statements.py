"""The statements a trace test must see run: one AST walk over the methods
of a module's classes."""

import ast
from pathlib import Path


def statement_lines(module, names, skip_raise) -> set[int]:
    """First lines of the statements in the methods that `names` lists, each
    as `Class.method`, or as `Class` for all of its methods, in `module`'s
    top-level classes, without docstrings and the raises for which
    `skip_raise(node)` is true. Every name must match a method."""
    tree = ast.parse(Path(module.__file__).read_text())
    unmatched = set(names)
    lines = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            qualname = f"{cls.name}.{method.name}"
            if cls.name not in names and qualname not in names:
                continue
            unmatched -= {cls.name, qualname}
            body = method.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            stack = list(body)
            while stack:
                stmt = stack.pop()
                if isinstance(stmt, ast.Raise) and skip_raise(stmt):
                    continue
                lines.add(stmt.lineno)
                for block in ("body", "orelse", "handlers", "finalbody"):
                    stack += getattr(stmt, block, [])
    assert not unmatched, f"{module.__name__} has no {sorted(unmatched)}"
    return lines
