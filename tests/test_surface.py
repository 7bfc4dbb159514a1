"""The package's public surface against what reads it.

Every public function, class and method defined in ``src/stonetrim`` must
have a reader: code in ``src/`` that names it (a method as an attribute,
``x.name``; a function or class as a bare name or an attribute), a code
span or block of the README, or ``perfbench/tracing.py`` or
``perfbench/workloads.py``, which wrap and call the library by name.  A
name with no reader is deleted, or it is listed in ``ALLOWED`` with the
reason it stays.

The match is by name only.  A method passes when any object in ``src/``
has an attribute of its name, so a method that shares its name with a
used one (``SubsetSpec.validate`` with ``BuildConfig.validate``,
``TypeSet.union`` with ``RingElement.union``) is not caught here.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stonetrim"
READERS = ("perfbench/tracing.py", "perfbench/workloads.py")

# public names no reader names, each with the reason it stays
ALLOWED = {
    "skeleton.SkeletonTree.node":
        "one node as a record; test_records pins SkeletonNode in seven "
        "cases, so both go in a change that may remove those tests",
}


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


def outside_reads() -> set[str]:
    """Identifiers in the README's code spans and blocks, and in the
    benchmark files that wrap or call the library."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    code += [(ROOT / path).read_text(encoding="utf-8") for path in READERS]
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


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
