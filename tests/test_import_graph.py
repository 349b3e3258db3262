"""Import cost follows use: what a ``repro`` process loads.

Each case runs in a fresh interpreter and reads ``sys.modules`` — a
deterministic count, no wall clock.  The rule under test (DESIGN.md
section 5, "Import cost follows use"): ``import repro.cli`` loads the
front only, a command loads what it runs, and numpy is loaded by the
first component too big for a scalar plan or the first text dataset.

``tests/cli_parser.json`` is the parser's user-visible surface as dumped
from the commit before the CLI was split; regenerate it only when the
command line is *meant* to change::

    PYTHONPATH=src:. python -m tests.test_import_graph
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parent.parent
PARSER_DUMP = Path(__file__).with_name("cli_parser.json")

_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import repro.cli
else:
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv)
        except SystemExit as exit:
            assert not exit.code, exit.code
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(argv):
    """``sys.modules`` of a fresh interpreter after ``import repro.cli``
    (``argv`` None) or after ``repro <argv>`` ran to a clean exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_SANITIZE", None)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def _loaded(modules, *prefixes):
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_importing_the_cli_loads_the_front_only():
    modules = _modules_after(None)
    assert "numpy" not in modules
    assert len(_loaded(modules, "repro")) <= 8, _loaded(modules, "repro")


COMMANDS = ("run", "stream", "lint", "fuzz", "compare", "fig7", "fig8",
            "headline", "lineage")


@pytest.mark.parametrize("argv", [[]] + [[command] for command in COMMANDS])
def test_help_builds_no_cluster_import_graph(argv):
    modules = _modules_after(argv + ["--help"])
    assert _loaded(modules, "repro.network", "repro.cluster", "numpy") == []


@pytest.mark.parametrize(
    "argv, denied",
    [
        (
            ["run", "sort", "--scheme", "spark"],
            ["repro.failures.campaign", "repro.failures.minimize",
             "repro.failures.grammar", "repro.analysis.engine",
             "repro.experiments.figures"],
        ),
        (
            ["run", "sort", "--scheme", "spark", "--chaos", "crash:us-east-1-w0@5"],
            ["repro.failures.campaign", "repro.failures.grammar"],
        ),
        (
            ["lint", "src/repro/simulation"],
            ["repro.network", "repro.scheduler", "repro.cluster", "numpy"],
        ),
        (
            ["stream", "--arrival", "poisson:60:20", "--scheme", "spark"],
            ["numpy", "repro.failures.campaign", "repro.analysis.engine"],
        ),
        (["fuzz", "--schedules", "5"], ["numpy", "repro.analysis.engine"]),
    ],
    ids=["run", "run-plain-chaos", "lint", "stream", "fuzz"],
)
def test_a_command_loads_what_it_runs(argv, denied):
    assert _loaded(_modules_after(argv), *denied) == []


def test_random_chaos_is_what_loads_the_fuzz_grammar():
    modules = _modules_after(
        ["run", "sort", "--scheme", "spark", "--chaos", "random:1@3"]
    )
    assert "repro.failures.grammar" in modules
    assert _loaded(modules, "repro.failures.campaign") == []


# ----------------------------------------------------------------------
# The parser and the static name registry
# ----------------------------------------------------------------------
def describe_parser(parser: argparse.ArgumentParser) -> dict:
    """The user-visible surface of a parser as plain data: sub-commands,
    option strings, defaults, choices, help text."""
    actions = []
    commands = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            summaries = {c.dest: c.help for c in action._choices_actions}
            for name, sub in action.choices.items():
                commands[name] = describe_parser(sub)
                commands[name]["summary"] = summaries.get(name)
            continue
        described = {
            "options": action.option_strings or [action.dest],
            "action": type(action).__name__,
            "nargs": action.nargs,
            "const": action.const,
            "default": action.default,
            "type": getattr(action.type, "__name__", None),
            "choices": None if action.choices is None else list(action.choices),
            "required": action.required or None,
            "metavar": action.metavar,
            "help": action.help,
        }
        actions.append({k: v for k, v in described.items() if v is not None})
    return {
        "prog": parser.prog,
        "description": parser.description,
        "actions": actions,
        "commands": commands,
    }


def test_parser_surface_is_the_checked_in_one():
    described = describe_parser(cli.build_parser())
    assert tuple(described["commands"]) == COMMANDS
    assert described == json.loads(PARSER_DUMP.read_text(encoding="utf-8"))


def test_static_name_registry_equals_the_live_registries():
    from repro.experiments.schemes import all_schemes
    from repro.shuffle.backends import backend_names
    from repro.workloads import all_workloads

    assert list(cli.WORKLOADS) == [w.name.lower() for w in all_workloads()]
    assert list(cli.SCHEMES) == [s.value.lower() for s in all_schemes()]
    assert list(cli.BACKENDS) == list(backend_names())


# ----------------------------------------------------------------------
# Lazy package exports
# ----------------------------------------------------------------------
PACKAGES = ("", "analysis", "cluster", "core", "experiments", "failures",
            "metrics", "network", "rdd", "scheduler", "shuffle", "simulation",
            "storage", "workloads")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_to_its_defining_module(package):
    import importlib

    module = importlib.import_module(f"repro.{package}".rstrip("."))
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        # Resolved once: the second read is a plain attribute.
        assert vars(module)[name] is value
    with pytest.raises(AttributeError):
        module.no_such_name


_DIR_PROBE = """
import importlib, json, sys
packages = [("repro." + name).rstrip(".") for name in json.loads(sys.argv[1])]
modules = [importlib.import_module(package) for package in packages]
before = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
missing = {
    module.__name__: sorted(set(module.__all__) - set(dir(module)))
    for module in modules
}
after = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
print(json.dumps([missing, before, after]))
"""


def test_dir_lists_every_export_before_it_resolves():
    """``dir()`` (tab-completion, ``help()``) shows each lazy package's
    whole export table in a fresh interpreter, and listing it imports
    no defining module."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _DIR_PROBE, json.dumps(PACKAGES)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
        check=True,
    )
    missing, before, after = json.loads(done.stdout)
    assert missing == {name: [] for name in missing}
    assert len(missing) == len(PACKAGES)
    assert before == after == sorted(("repro." + p).rstrip(".") for p in PACKAGES)


_PATCH_PROBE = """
import importlib, json, pkgutil, types
import repro

patched = []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.endswith(".__main__"):
        continue
    module = importlib.import_module(info.name)
    for cls in vars(module).values():
        if not (isinstance(cls, type) and cls.__module__ == info.name):
            continue
        for attr, value in vars(cls).items():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__.split(".")[0] == "repro"
                and not value.__qualname__.startswith(cls.__qualname__ + ".")
            ):
                patched.append(f"{cls.__qualname__}.{attr}: {value.__qualname__}")
print(json.dumps(sorted(patched)))
"""


def test_no_class_is_patched_from_outside_its_body():
    """Every plain function from ``repro`` that a ``repro`` class holds
    was written in its body, so what a class can do does not depend on
    which other modules were imported (what the standard library adds —
    dataclass pickling, enum plumbing — is not ours to check).  A fresh
    interpreter imports every module first, so every import-time patch
    has run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _PATCH_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
        check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_a_lazily_exported_module_does_not_dodge_the_linter(tmp_path):
    """The linter walks files, not imports: a module nothing imports
    until an export table's name is read is linted like any other."""
    from repro.analysis.engine import lint_paths, load_config

    package = tmp_path / "repro" / "lazypkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro import lazy_exports\n"
        "__getattr__, __dir__, __all__ = lazy_exports(\n"
        "    __name__, {'repro.lazypkg.clock': ('now',)})\n"
    )
    (package / "clock.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n"
    )
    findings = lint_paths([tmp_path], load_config(ROOT / "pyproject.toml"))
    assert [(f.rule, Path(f.path).name) for f in findings] == [
        ("DET002", "clock.py")
    ]


# ----------------------------------------------------------------------
# Reach: every module under src/repro is one a command or example runs
# ----------------------------------------------------------------------
# Modules outside the static import closure of the commands and the
# examples, and why each stays in src/repro.
UNREACHED_MODULES = {
    "repro.core.analysis": "gains a reader in ROADMAP item 10",
}


def _module_files(src: Path) -> dict:
    """Dotted module name -> file, for every module of ``src/repro``."""
    files = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _runtime_nodes(tree: ast.AST):
    """Every node of ``tree`` except the bodies of ``if TYPE_CHECKING:``
    blocks, which import nothing at run time."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            pending.extend(node.orelse)
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))


def _lazy_table(tree: ast.AST) -> dict:
    """Exported name -> defining module, from a package ``__init__``'s
    ``lazy_exports(__name__, {...})`` call (empty if it has none)."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and len(node.args) == 2
        ):
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items() for name in names}
    return {}


def unreached_modules(src: Path, scripts) -> set:
    """The modules of ``src/repro`` outside the static import closure of
    ``repro.cli``, ``repro.__main__``, every ``repro.experiments.commands``
    module and the ``scripts``.  Imports inside functions count (commands
    import the simulator at dispatch); ``from <lazy package> import Name``
    reaches the one module the package's export table maps ``Name`` to."""
    files = _module_files(src)
    trees = {
        name: ast.parse(path.read_text(encoding="utf-8"))
        for name, path in files.items()
    }
    lazy = {name: _lazy_table(tree) for name, tree in trees.items()}
    reached = set()
    pending = [
        (None, ast.parse(Path(script).read_text(encoding="utf-8")))
        for script in scripts
    ]

    def reach(name):
        # Importing a module runs every package __init__ above it.
        while name in files and name not in reached:
            reached.add(name)
            pending.append((name, trees[name]))
            name = name.rpartition(".")[0]

    for name in files:
        if name in ("repro.cli", "repro.__main__") or name.startswith(
            "repro.experiments.commands"
        ):
            reach(name)
    while pending:
        importer, tree = pending.pop()
        for node in _runtime_nodes(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reach(alias.name)
            elif isinstance(node, ast.ImportFrom):
                assert not node.level, f"{importer}: relative import"
                base = node.module
                reach(base)
                for alias in node.names:
                    if f"{base}.{alias.name}" in files:
                        reach(f"{base}.{alias.name}")
                    elif alias.name in lazy.get(base, {}):
                        reach(lazy[base][alias.name])
    return set(files) - reached


def test_every_module_is_reached_by_a_command_or_an_example():
    """``src/repro`` holds what a command or an example runs: a module
    outside their import closure is deleted, moved to the code that uses
    it, or pinned above with a reason."""
    unreached = unreached_modules(
        ROOT / "src", sorted((ROOT / "examples").glob("*.py"))
    )
    pinned = set(UNREACHED_MODULES)
    assert all(UNREACHED_MODULES.values())
    assert sorted(unreached - pinned) == [], "reached by no command or example"
    assert sorted(pinned - unreached) == [], "reached now: unpin"


def test_the_reach_gate_sees_orphans_and_unread_lazy_entries(tmp_path):
    """A module nothing imports, and one only a lazy-export entry names
    that nobody reads, are both outside the closure; the entry that is
    read, the package above it and the command are inside."""
    package = tmp_path / "repro" / "lazypkg"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tmp_path / "repro" / "cli.py").write_text(
        "def main():\n    from repro.lazypkg import used\n    return used\n"
    )
    (tmp_path / "repro" / "orphan.py").write_text("ORPHAN = 1\n")
    (package / "__init__.py").write_text(
        "from repro import lazy_exports\n"
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
        "    'repro.lazypkg.used': ('used',),\n"
        "    'repro.lazypkg.unread': ('unread',),\n"
        "})\n"
    )
    (package / "used.py").write_text("used = 1\n")
    (package / "unread.py").write_text("unread = 2\n")
    assert unreached_modules(tmp_path, []) == {
        "repro.orphan", "repro.lazypkg.unread"
    }
    script = tmp_path / "example.py"
    script.write_text("import repro.orphan\n")
    assert unreached_modules(tmp_path, [script]) == {"repro.lazypkg.unread"}


if __name__ == "__main__":  # regenerate the parser dump
    PARSER_DUMP.write_text(
        json.dumps(describe_parser(cli.build_parser()), indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {PARSER_DUMP}")
