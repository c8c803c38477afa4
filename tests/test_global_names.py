"""Every global name that a module of the package reads is bound on the
module or is a builtin: a name left behind by deleted code fails here at
once, not only when the line that reads it runs.  And the other way round,
every name a module imports at its top level is read in it, so that
deleting the last reader of an import deletes the import too, and every
parameter of a module-level function is read in its body."""

import ast
import builtins
import importlib
import pathlib
import symtable

import smoothcb

SRC = pathlib.Path(smoothcb.__file__).parent


def _unbound_reads(path):
    name = "smoothcb" if path.stem == "__init__" else f"smoothcb.{path.stem}"
    module = importlib.import_module(name)
    tables = [symtable.symtable(path.read_text(), str(path), "exec")]
    missing = set()
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        missing.update(
            s.get_name() for s in table.get_symbols()
            if s.is_referenced() and s.is_global()
            and not hasattr(module, s.get_name())
            and not hasattr(builtins, s.get_name()))
    return sorted(f"{path.stem}.{n}" for n in missing)


def test_every_global_read_is_bound():
    paths = sorted(p for p in SRC.glob("*.py") if p.stem != "__main__")
    assert len(paths) > 10
    assert [n for p in paths for n in _unbound_reads(p)] == []


def _unread_imports(path):
    tree = ast.parse(path.read_text())
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.stem}.{n}" for n in bound - read)


def test_every_top_level_import_is_read():
    # __init__ imports to re-export
    paths = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")
    assert len(paths) > 10
    assert [n for p in paths for n in _unread_imports(p)] == []


def _unread_parameters(path):
    unread = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.stem}.{node.name}({p})" for p in params
                   if p not in read]
    return unread


def test_every_function_parameter_is_read():
    # module-level functions only: a method may keep a parameter that its
    # protocol passes
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert [n for p in paths for n in _unread_parameters(p)] == []
