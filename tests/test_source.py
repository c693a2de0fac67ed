"""Source hygiene checks that need no tool beyond the standard library."""

from __future__ import annotations

import ast
import dataclasses
import pathlib

from agentgauge.config import _TABLE
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import MachineConfig
from agentgauge.measure import EnsembleSpec
from agentgauge.valuation import ValuationParams

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "agentgauge"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as `line N: name`.

    `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from json import dumps, loads\n"
              "print(os.sep, loads)\n")
    assert unused_imports(source) == ["line 4: dumps", "line 3: regex"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def unread_names(sources: dict[str, str]) -> list[str]:
    """Top-level functions, classes and constants no source reads, as `module: name`.

    A name counts as read when any source loads it or imports it by name, so
    re-exports count; dunder names are exempt.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            found += [f"{module}: {name}" for name in names
                      if not name.startswith("__") and name not in read]
    return found


def test_unread_names_are_found():
    sources = {
        "a": "__all__ = []\nLIMIT = 3\n_SPARE: int = 4\ndef used(): return LIMIT\n"
             "def spare(): pass\nclass Kept: pass\n",
        "b": "from .a import Kept, used\nprint(used())\n",
    }
    assert unread_names(sources) == ["a: _SPARE", "a: spare"]


def test_every_top_level_name_is_read_by_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_names(sources) == []


# Top-level names kept for readers outside the package, each with its reader.
SERVES_READERS_OUTSIDE = {
    # acceptance 2 checks the closed-form harmonic value of the worked example
    "harmonic_value",
}


def test_every_public_name_serves_the_package():
    # a name only tests read belongs in tests/; a re-export in __init__.py is
    # not a read, and the benchmark's harness counts as a reader
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "bench").glob("*.py")
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    found = [entry for entry in unread_names(sources) if entry.startswith("src/")]
    assert [e for e in found if e.partition(": ")[2] not in SERVES_READERS_OUTSIDE] == []


def private_imports(sources: dict[str, str]) -> list[str]:
    """`_`-prefixed names a module imports from a package module, as `module: name`.

    A package module is one a relative or an `agentgauge` import names;
    dunder names such as `__version__` are exempt.
    """
    found = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").partition(".")[0] == "agentgauge"):
                found += [f"{module}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_private_imports_are_found():
    sources = {
        "a": "from .b import _helper, shared\nfrom . import __version__\n"
             "from os import _exit\n",
        "b": "def f():\n    from agentgauge.a import _TABLE\n    return _TABLE\n",
    }
    assert private_imports(sources) == ["a: _helper", "b: _TABLE"]


def test_no_module_imports_a_private_name_of_another():
    # a private name is its module's own; a second module that needs it
    # needs a public name, or the work moved to where the name lives
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert private_imports(sources) == []


def class_wrappers(sources: dict[str, str]) -> list[str]:
    """Top-level functions whose body, after a docstring, only returns a call
    of a class some source defines, as `module: name`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, ast.Call)
                    and isinstance(body[0].value.func, ast.Name)
                    and body[0].value.func.id in classes):
                found.append(f"{module}: {node.name}")
    return found


def test_class_wrappers_are_found():
    sources = {
        "a": "class Env:\n    pass\n"
             "def make_env(n):\n    \"\"\"A wrapper.\"\"\"\n    return Env(n)\n"
             "def checked_env(n):\n    if n < 0:\n        raise ValueError(n)\n"
             "    return Env(n)\n"
             "def total(xs):\n    return sum(xs)\n",
        "b": "from .a import Env\ndef bare_env():\n    return Env(0)\n",
    }
    assert class_wrappers(sources) == ["a: make_env", "b: bare_env"]


def test_no_function_only_returns_a_package_class():
    # a caller builds the class itself; a second spelling of its constructor
    # is one more public name that says nothing new
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert class_wrappers(sources) == []


def _attribute_loads(node: ast.AST, skip: set) -> set[str]:
    """Attribute names loaded under `node`, outside the subtrees in `skip`."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if child in skip:
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            found.add(child.attr)
        found |= _attribute_loads(child, skip)
    return found


def unread_slots(sources: dict[str, str]) -> list[str]:
    """`__slots__` entries no source reads, as `module: Class.slot`.

    A read is an attribute load in any source outside the class's own
    `__init__` and `clone`, which only set the slots up.  The target of an
    augmented assignment such as `x.total += n` is a store, not a read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in sorted(trees.items()):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            slots = next((ast.literal_eval(node.value) for node in cls.body
                          if isinstance(node, ast.Assign)
                          and any(getattr(t, "id", None) == "__slots__" for t in node.targets)),
                         ())
            if not slots:
                continue
            skip = {node for node in cls.body if isinstance(node, ast.FunctionDef)
                    and node.name in ("__init__", "clone")}
            read = set().union(*(_attribute_loads(t, skip) for t in trees.values()))
            found += [f"{module}: {cls.name}.{slot}" for slot in slots if slot not in read]
    return found


def test_unread_slots_are_found():
    sources = {
        "a": "class Proc:\n"
             "    __slots__ = ('kept', 'counted', 'copied')\n"
             "    def __init__(self):\n"
             "        self.kept = self.counted = self.copied = 0\n"
             "    def clone(self):\n"
             "        other = Proc()\n"
             "        other.copied = self.copied\n"
             "        return other\n"
             "    def step(self):\n"
             "        self.counted += 1\n",
        "b": "def show(proc):\n    return proc.kept\n",
    }
    assert unread_slots(sources) == ["a: Proc.counted", "a: Proc.copied"]


def test_every_slot_is_read_outside_its_setup():
    # a slot only tests read is state the program keeps for nothing; the
    # benchmark's tracer reads some slots, so bench/ counts as a reader
    paths = list(PACKAGE.glob("*.py")) + list((ROOT / "bench").glob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    assert unread_slots(sources) == []


def test_only_the_cli_names_a_process_pool():
    # each command owns at most one pool, made in cli.py and passed down
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name.rpartition(".")[2] for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        if "ProcessPoolExecutor" in names:
            found.append(path.name)
    assert found == ["cli.py"]


def test_only_seeding_decodes_bulk_random_outputs():
    # the lockstep's environment bits and the batch policies' draws share one
    # bulk decode of CPython's 32-bit outputs, seeding.Ahead
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "getrandbits(32" in path.read_text(encoding="utf-8")]
    assert found == ["seeding.py"]


def stream_namers(sources: dict[str, str]) -> list[str]:
    """`module.function` of each `derive_seed` call that can name an episode
    stream: its first label is "agent", "env" or not a constant."""
    found = []

    def visit(module: str, node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and len(child.args) > 1
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == "derive_seed"
                    and getattr(child.args[1], "value", "agent") in ("agent", "env")):
                found.append(f"{module}.{where}")
            visit(module, child, getattr(child, "name", where))

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return found


def test_stream_namers_are_found():
    source = ("def stream(role):\n    return derive_seed(0, role, 'a')\n"
              "class Policy:\n    def make(self):\n        seeding.derive_seed(0, 'env', 1)\n"
              "def batch():\n    return derive_seed(0, 'batch', 'a')\n"
              "seed = derive_seed(1, 'agent')\n")
    assert stream_namers({"m": source}) == ["m.stream", "m.make", "m.<module>"]


def test_only_one_helper_names_the_episode_streams():
    # every per-episode agent and environment stream comes from
    # valuation._stream, so a change of their seeds changes one function
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert stream_namers(sources) == ["valuation._stream"]


def test_no_module_imports_jsonschema():
    # reports are checked by validate_report; the schema file is the tests' oracle
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module}
        if any(module.partition(".")[0] == "jsonschema" for module in modules):
            found.append(path.name)
    assert found == []


def unset_fields(classes: dict[str, type], table: dict, sources: list[str]) -> list[str]:
    """Dataclass fields no config key fills and no call passes, as `Class.field`.

    `classes` maps each config section to its dataclass, and `table` maps
    each key to its (section, field, parser), like `config._TABLE`.  A call
    passes a field by keyword when it calls the class, or `replace` on it.
    """
    filled = {(section, name) for section, name, _ in table.values()}
    passed = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed |= {(callee, kw.arg) for kw in node.keywords}
    return [f"{cls.__name__}.{f.name}" for section, cls in classes.items()
            for f in dataclasses.fields(cls)
            if (section, f.name) not in filled
            and (cls.__name__, f.name) not in passed and ("replace", f.name) not in passed]


def test_unset_fields_are_found():
    @dataclasses.dataclass
    class Spec:
        keyed: int = 0
        built: int = 0
        replaced: int = 0
        spare: int = 0

    sources = ["Spec(built=1)\ndataclasses.replace(spec, replaced=2)\nother(spare=3)\n"]
    table = {"spec.keyed": ("spec", "keyed", int)}
    assert unset_fields({"spec": Spec}, table, sources) == ["Spec.spare"]


def test_every_setting_is_set_by_the_package():
    # a field that only tests set is a switch the program never turns
    classes = {"space": SpaceConfig, "machine": MachineConfig,
               "ensemble": EnsembleSpec, "valuation": ValuationParams}
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert unset_fields(classes, _TABLE, sources) == []
