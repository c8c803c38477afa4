"""Every global name that a module of the package reads is bound on the
module or is a builtin: a name left behind by deleted code fails here at
once, not only when the line that reads it runs."""

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
