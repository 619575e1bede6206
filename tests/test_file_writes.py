import ast
from pathlib import Path

import protoforge

PACKAGE = Path(protoforge.__file__).parent
WRITE_MODE = set("wax+")


def _mode(call):
    # The mode argument of an open call, or None when it opens for reading by
    # default: the second argument of open() and io.open(), the first of any
    # other x.open() (Path.open; os.open's first is a path, so it counts).
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    func = call.func
    builtin = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id == "io")
    position = 1 if builtin else 0
    return call.args[position] if len(call.args) > position else None


def _writes(call):
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    mode = _mode(call)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(WRITE_MODE & set(mode.value))
    return True  # a mode or flags not known until run time


def _write_sites():
    # (module, top-level function) of every call that writes a file.
    sites = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _writes(call):
                    sites.add((path.stem, owner))
    return sites


def test_the_cli_writes_files_through_one_function():
    # Every file the program writes is rewritten in place by cli._write_text;
    # a truncating open, Path.write_text or write_bytes anywhere else fails.
    assert _write_sites() == {("cli", "_write_text")}


def test_the_scan_sees_each_kind_of_write():
    calls = {
        'p.write_text(s)': True, 'p.write_bytes(b)': True, 'open(p, "w")': True,
        'open(p, mode="a")': True, 'open(p, "r+")': True, 'io.open(p, "xb")': True,
        'p.open("w")': True, 'os.open(p, flags)': True, 'open(p, m)': True,
        'open(p)': False, 'open(p, "rb")': False, 'p.open()': False, 'p.read_text()': False,
    }
    assert {code: _writes(ast.parse(code).body[0].value) for code in calls} == calls
