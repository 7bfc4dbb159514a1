"""What a fresh interpreter loads with the package, and the package's lazy
exports."""
import importlib
import json
import os
import subprocess
import sys

import pytest

import stonetrim
from test_readme import COMMANDS

# the child imports the same stonetrim as this process, installed or not
SRC = os.path.dirname(os.path.dirname(stonetrim.__file__))

LATER_LAYERS = {"ring", "typeset", "completion", "backforth", "closure",
                "points"}

# every name `import stonetrim` exported, by the submodule that defines it,
# recorded when the package still imported all its submodules eagerly, less
# the module function ring.type_of, deleted as a wrapper of the method
EXPORTS = {
    "poset": ["DEFAULT_CHAIN_BOUND", "FOUND", "HOLDS", "HOLDS_ON_PREFIX",
              "INCONCLUSIVE", "REFUTED", "Analytics", "Extremal",
              "FoundationResult", "Poset", "PosetError", "SubsetSpec",
              "Verdict"],
    "families": ["family", "family_tags"],
    "typeset": ["TypeSet"],
    "completion": ["CompletedPoset", "CompletionElement", "CompletionError",
                   "chain_closure", "complete_finite", "complete_over",
                   "token_name"],
    "skeleton": ["BuildConfig", "BuildError", "ConfigError", "SkeletonNode",
                 "SkeletonTree", "StructureReport", "build_levels",
                 "verify_structure"],
    "ring": ["RingElement", "RingError", "is_trim_for",
             "split_by_scarce_atoms", "supertrim_split", "trim_split",
             "verify_type_axioms"],
    "points": ["PathPrefix", "PointError", "PointLabel", "ancestry",
               "label_prefix", "realize_chain"],
    "backforth": ["IsoError", "IsoRun", "MismatchWitness", "PartialIso",
                  "extend_iso", "init_iso", "lift_poset_automorphism",
                  "run_backforth"],
    "closure": ["Classification", "ClosureElement", "ClosureError",
                "RNTrace", "SymbolicSpace", "check_closure_axioms",
                "check_identities", "classify_algebra", "e_of_p",
                "render_trace_dot", "render_trace_text",
                "rieger_nishimura_run"],
}
ALL = {name for module, names in EXPORTS.items() for name in (module, *names)}


def fresh(code: str) -> dict:
    """Run code in a new interpreter that has imported argparse and json, as
    the CLI does, and return what it leaves in ``out`` together with the
    modules it loaded beyond those."""
    probe = ("import argparse, contextlib, io, json, sys\n"
             "before = set(sys.modules)\n"
             "out = {}\n"
             f"{code}\n"
             "out['loaded'] = sorted(set(sys.modules) - before)\n"
             "print(json.dumps(out))\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def layers(loaded) -> set:
    return {m.split(".", 1)[1] for m in loaded if m.startswith("stonetrim.")}


class TestImportFootprint:
    def test_import_loads_no_submodule(self):
        assert fresh("import stonetrim")["loaded"] == ["stonetrim"]

    def test_cli_loads_the_order_core_and_the_skeleton(self):
        loaded = fresh("import stonetrim, stonetrim.cli")["loaded"]
        assert "dataclasses" not in loaded and "inspect" not in loaded
        assert "fractions" not in loaded
        assert {"cli", "poset", "families", "skeleton"} <= layers(loaded)
        assert not layers(loaded) & LATER_LAYERS

    def test_analyze_loads_only_its_own_layer(self):
        out = fresh("import stonetrim.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    out['rc'] = stonetrim.cli.main(\n"
                    "        ['analyze', '--family', 'rn(2,0)'])")
        assert out["rc"] == 0
        assert layers(out["loaded"]) & LATER_LAYERS == {"completion"}
        assert "dataclasses" not in out["loaded"]

    def test_every_layer_loads_without_dataclasses(self):
        loaded = fresh("import stonetrim\n"
                       "for name in stonetrim.__all__:\n"
                       "    getattr(stonetrim, name)")["loaded"]
        assert LATER_LAYERS <= layers(loaded)
        assert "dataclasses" not in loaded and "inspect" not in loaded

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_readme_command_exits_zero_in_a_fresh_interpreter(self, argv):
        path = os.pathsep.join(filter(None, [SRC,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "stonetrim.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout


class TestExports:
    def test_all_is_what_the_package_exported(self):
        assert len(stonetrim.__all__) == len(set(stonetrim.__all__))
        assert set(stonetrim.__all__) == ALL

    def test_each_name_is_its_submodules_object(self):
        pairs = [(module, name) for module, names in EXPORTS.items()
                 for name in names]
        out = fresh("import importlib\n"
                    f"pairs = {pairs!r}\n"
                    "out['bad'] = []\n"
                    "for module, name in pairs:\n"
                    "    got = {}\n"
                    "    exec(f'from stonetrim import {name}', got)\n"
                    "    want = getattr(importlib.import_module(\n"
                    "        'stonetrim.' + module), name)\n"
                    "    if got[name] is not want:\n"
                    "        out['bad'].append(name)")
        assert out["bad"] == []
        for module, name in pairs:
            assert getattr(stonetrim, name) is getattr(
                importlib.import_module(f"stonetrim.{module}"), name)

    def test_submodules_after_a_bare_import(self):
        out = fresh("import stonetrim\n"
                    "out['ring'] = stonetrim.ring.__name__\n"
                    "from stonetrim import backforth\n"
                    "out['backforth'] = backforth.__name__")
        assert out["ring"] == "stonetrim.ring"
        assert out["backforth"] == "stonetrim.backforth"
        assert {"ring", "backforth"} <= layers(out["loaded"])

    def test_dir_lists_every_export(self):
        assert ALL <= set(dir(stonetrim))
        assert "__version__" in dir(stonetrim)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nosuch"):
            stonetrim.nosuch
        assert not hasattr(stonetrim, "nosuch")
        with pytest.raises(ImportError):
            exec("from stonetrim import nosuch", {})

    def test_star_import_gives_all(self):
        got = {}
        exec("from stonetrim import *", got)
        assert set(got) - {"__builtins__"} == set(stonetrim.__all__)
