"""Library code never writes the environment, and reads it in one place.

Settings reach workers as explicit arguments; pool children inherit
the parent's environment unchanged.  A write to ``os.environ`` inside
``src/repro`` would leak one call's setting into every later call in
the process, so this scan rejects any.  Reads are confined to
``repro/config.py``, which validates every ``REPRO_*`` knob at once;
a reader anywhere else would be a second, unvalidated config path.
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


def _environ_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name) \
                and node.value.id == "os" \
                and node.attr in ("environ", "environb", "getenv",
                                  "getenvb"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in ("environ", "environb", "getenv",
                                       "getenvb")
                        for alias in node.names):
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


def test_scanner_flags_every_read_form():
    sample = ast.parse(
        "os.environ.get('A')\n"
        "os.environ['A']\n"
        "os.getenv('A')\n"
        "from os import environ\n"
        "from os import getenv as g\n"
        "dict(os.environ)\n"
        "os.path.join('a', 'b')\n")
    assert sorted(_environ_reads(sample)) == [1, 2, 3, 4, 5, 6]


def test_library_reads_environment_only_in_config():
    offenders = [
        f"{path.relative_to(SOURCE)}:{line}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path != SOURCE / "config.py"
        for line in _environ_reads(ast.parse(path.read_text()))
    ]
    assert offenders == []
