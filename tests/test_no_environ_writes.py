"""Library code reads its environment knobs but never writes them.

Settings reach workers as explicit arguments; pool children inherit
the parent's environment unchanged.  A write to ``os.environ`` inside
``src/repro`` would leak one call's setting into every later call in
the process, so this scan rejects any.
"""

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).resolve().parent
MUTATORS = {"pop", "popitem", "setdefault", "update", "clear"}


def _is_environ(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) \
            and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _environ_writes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(
                node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and _is_environ(target.value):
                    yield node.lineno
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr in MUTATORS and _is_environ(func.value)) or (
                    func.attr in ("putenv", "unsetenv")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"):
                yield node.lineno


def test_scanner_flags_every_write_form():
    sample = ast.parse(
        "os.environ['A'] = '1'\n"
        "os.environ['A'] += '1'\n"
        "del os.environ['A']\n"
        "os.environ.pop('A')\n"
        "os.environ.setdefault('A', '1')\n"
        "os.environ.update(A='1')\n"
        "os.putenv('A', '1')\n"
        "os.environ.get('A')\n")
    assert sorted(_environ_writes(sample)) == [1, 2, 3, 4, 5, 6, 7]


def test_library_never_writes_os_environ():
    offenders = [
        f"{path.relative_to(SOURCE)}:{line}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line in _environ_writes(ast.parse(path.read_text()))
    ]
    assert offenders == []
