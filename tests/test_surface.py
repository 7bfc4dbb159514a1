"""The package's public surface against what reads it.

Every public function, class and method defined in ``src/stonetrim`` must
have a reader: code in ``src/`` that names it (a method as an attribute,
``x.name``; a function or class as a bare name or an attribute), a code
span or block of the README, or the code of ``perfbench/tracing.py`` or
``perfbench/workloads.py``, which wrap and call the library by name (read
through ``ast``, so a word in a comment or docstring reads nothing).  A
name with no reader is deleted, or it is listed in ``ALLOWED`` with the
reason it stays.

The match is by name only.  A method passes when any object in ``src/``
has an attribute of its name, so a method that shares its name with a
used one (``TypeSet.union`` with ``RingElement.union``) is not caught
here.

``perfbench/tracing.py`` looks up each name it wraps in its owner's
``__dict__``, so a deleted or inherited one breaks every traced run; the
last test checks each of them here.
"""
import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stonetrim"
READERS = ("perfbench/tracing.py", "perfbench/workloads.py")

# public names no reader names, each with the reason it stays
ALLOWED: dict[str, str] = {}


def definitions() -> dict[str, tuple[str, bool]]:
    """Every public module-level function and class, and every public
    method, keyed ``module.name`` or ``module.Class.name``, with its bare
    name and whether it is a method."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = node.name, False
            if isinstance(node, ast.ClassDef):
                out.update((f"{path.stem}.{node.name}.{sub.name}",
                            (sub.name, True))
                           for sub in node.body
                           if isinstance(sub, ast.FunctionDef)
                           and not sub.name.startswith("_"))
    return out


def source_reads() -> tuple[set[str], set[str]]:
    """The bare names and the attribute names read anywhere in src/."""
    names, attrs = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def code_reads(path: Path) -> set[str]:
    """The names, attribute names and identifier string constants
    (``SPANNED`` names the methods it wraps as strings) of one Python
    file: its code, not its comments or docstrings."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def outside_reads() -> set[str]:
    """Identifiers in the README's code spans and blocks, and the code
    reads of the benchmark files that wrap or call the library."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    out = set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))
    for path in READERS:
        out |= code_reads(ROOT / path)
    return out


def unread() -> list[str]:
    names, attrs = source_reads()
    outside = outside_reads()
    return [key for key, (name, method) in definitions().items()
            if name not in attrs and (method or name not in names)
            and name not in outside]


def test_every_public_name_has_a_reader():
    assert [key for key in unread() if key not in ALLOWED] == []


def test_every_allowed_name_is_defined_and_unread():
    defined, left = definitions(), set(unread())
    assert [key for key in ALLOWED
            if key not in defined or key not in left] == []


# the names Tracer.install patches by hand, outside SPANNED and COUNTED
HAND_PATCHED = (("skeleton", "SkeletonTree", "_build_next"),
                ("ring", "RingElement", "__init__"),
                ("ring", None, "verify_type_axioms"),
                ("backforth", None, "extend_iso"),
                ("backforth", None, "run_backforth"))


def test_every_traced_name_is_its_owners_own(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for rows in tracing.SPANNED.values() for t in rows]
    targets += tracing.COUNTED.values()
    for module, cls, attr in HAND_PATCHED:
        owner = getattr(tracing, module)
        targets.append((getattr(owner, cls) if cls else owner, attr))
    assert [f"{owner.__name__}.{attr}" for owner, attr in targets
            if attr not in owner.__dict__] == []
