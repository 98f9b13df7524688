"""Module-state lint: no process-wide mutable state beyond a fixed list.

Scans ``src/repro`` for module-level names that a function either
rebinds through ``global`` or mutates in place (a mutating method call,
an item assignment or an item deletion). Building a table once while
the module is imported does not count; only mutation at run time does.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "reverse", "setdefault", "sort",
    "update",
})

#: Every name allowed to change at run time, with its reason.
ALLOWED = {
    # The seed override; goes with one explicit run context once the
    # benchmark's workloads stop calling set_default_seed.
    "sim.rng._SEED_OVERRIDE": "process-wide seed override",
    # The recording() stack the benchmark's workloads open.
    "telemetry.hub._SESSIONS": "live recording sessions",
    # Memos of pure functions of their keys: a hit returns what a miss
    # would have computed, so they cannot leak state between runs.
    "crypto.backend._gcm_cache": "GCM cipher memo",
    "crypto.backend._availability": "backend import probe memo",
    "crypto.backend._np": "numpy import memo",
    "crypto.backend._NP_TABLES": "numpy GF table memo",
    "crypto.handshake._keypair_cache": "DH key-pair memo",
    "crypto.handshake._secret_cache": "DH shared-secret memo",
}


def _module_names(tree):
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        )
        for target in targets:
            names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _mutated(node, names):
    """Module-level names ``node`` rebinds or mutates."""
    if isinstance(node, ast.Global):
        return set(node.names)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
            and isinstance(node.func.value, ast.Name)):
        return {node.func.value.id} & names
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    return {
        t.value.id for t in targets
        if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
    } & names


def mutable_module_state(root: Path):
    """``module.name`` for every module-level name mutated at run time."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = _module_names(tree)
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(func):
                    found.update(f"{module}.{name}" for name in _mutated(node, names))
    return found


def test_only_the_allowed_module_state_changes_at_run_time():
    assert mutable_module_state(SRC) == set(ALLOWED)


def test_lint_flags_global_rebinding_and_container_mutation(tmp_path):
    (tmp_path / "mod.py").write_text(
        "_TABLE = [1]\n"
        "while len(_TABLE) < 3:\n"
        "    _TABLE.append(0)\n"  # import-time build: allowed
        "_STACK = []\n_MEMO = {}\n_FLAG = None\n"
        "def push(x):\n    _STACK.append(x)\n"
        "def memo(k):\n    _MEMO[k] = 1\n"
        "def flip():\n    global _FLAG\n    _FLAG = 1\n"
        "def local():\n    seen = []\n    seen.append(1)\n"
    )
    assert mutable_module_state(tmp_path) == {"mod._STACK", "mod._MEMO", "mod._FLAG"}
