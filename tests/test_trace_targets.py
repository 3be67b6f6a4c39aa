"""The benchmark's trace mode names library attributes that still exist.

``e2ebench/layers.py`` wraps library callables by name
(``tracer.wrap(Owner, "attr", ...)``) and reads stats counters by name
(``scheduler.generator.stats.refills``). A rename in the library would
only show when ``e2ebench/run.py --trace 1`` runs. These tests parse
that file with ``ast`` -- nothing under ``e2ebench/`` is imported -- and
check every such name against the library.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.serving import (
    GatewayStats,
    GeneratorStats,
    PrefixCacheStats,
    SchedulerStats,
    SemanticCache,
    SemanticCacheStats,
)
from repro.sql.cluster import ClusterDatabase, ClusterStats
from repro.tokenizers.base import Tokenizer

LAYERS = Path(__file__).resolve().parents[1] / "e2ebench" / "layers.py"

#: owners that ``instrument`` takes from the workload's state, by the
#: class the workloads put there
STATE_OWNERS = {
    "tokenizer": Tokenizer,
    "cache": SemanticCache,
    "cluster": ClusterDatabase,
}

#: the stats class behind each receiver whose ``.stats`` layers.py reads;
#: ``args[0]`` inside a wrap's hook is an instance of the wrapped owner
STATS_OF = {
    "BatchScheduler": SchedulerStats,
    "PrefixCache": PrefixCacheStats,
    "scheduler.generator": GeneratorStats,
    "gateway": GatewayStats,
    "cache": SemanticCacheStats,
    "cluster": ClusterStats,
}


@pytest.fixture(scope="module")
def tree():
    return ast.parse(LAYERS.read_text(), filename=str(LAYERS))


def _imports(tree):
    """Local name -> object for every module-level ``repro`` import."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = alias.asname or alias.name
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound[name] = getattr(module, alias.name)
    return bound


def _is_wrap(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer"
    )


def _wraps(node, loops=None):
    """Yield ``(owner names, attr, call)`` for each ``tracer.wrap`` call.

    A loop variable over a tuple of names stands for each of them.
    """
    loops = dict(loops or {})
    if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
        names = getattr(node.iter, "elts", [])
        if names and all(isinstance(elt, ast.Name) for elt in names):
            loops[node.target.id] = [elt.id for elt in names]
    if _is_wrap(node):
        owner, attr = node.args[0], node.args[1]
        assert isinstance(owner, ast.Name), ast.unparse(node)
        assert isinstance(attr, ast.Constant), ast.unparse(node)
        yield loops.get(owner.id, [owner.id]), attr.value, node
    for child in ast.iter_child_nodes(node):
        yield from _wraps(child, loops)


def _own_nodes(scope):
    """The nodes of a function or lambda, without those of nested ones."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _stats_reads(scope, args_owner):
    """Yield ``(receiver, attr)`` for each ``<receiver>.stats.<attr>`` in ``scope``.

    ``stats = <receiver>.stats`` aliases are followed, and ``args[0]``
    becomes ``args_owner``, the owner of the wrap whose hook ``scope`` is.
    """
    nodes = list(_own_nodes(scope))
    aliases = {}
    for node in nodes:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "stats"
        ):
            aliases[node.targets[0].id] = ast.unparse(node.value.value)
    for node in nodes:
        if not isinstance(node, ast.Attribute):
            continue
        inner = node.value
        if isinstance(inner, ast.Attribute) and inner.attr == "stats":
            receiver = ast.unparse(inner.value)
        elif isinstance(inner, ast.Name) and inner.id in aliases:
            receiver = aliases[inner.id]
        else:
            continue
        if receiver == "args[0]":
            receiver = args_owner
        yield receiver, node.attr


def _all_stats_reads(tree):
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    hooked = {}  # id(scope) -> the wrapped owner's name
    for owners, _, call in _wraps(tree):
        for keyword in call.keywords:
            hook = keyword.value
            scope = functions.get(hook.id) if isinstance(hook, ast.Name) else hook
            if scope is not None:
                hooked[id(scope)] = owners[0]
    reads = set()
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
            reads.update(_stats_reads(scope, hooked.get(id(scope))))
    return reads


def test_every_wrapped_attribute_exists(tree):
    imports = _imports(tree)
    checked = 0
    for owners, attr, call in _wraps(tree):
        for name in owners:
            owner = imports.get(name, STATE_OWNERS.get(name))
            assert owner is not None, f"unknown wrap owner in {ast.unparse(call)}"
            assert hasattr(owner, attr), f"{name}.{attr} is gone: {ast.unparse(call)}"
            checked += 1
    assert checked >= 20


def test_every_stats_counter_read_exists(tree):
    reads = _all_stats_reads(tree)
    assert {
        ("BatchScheduler", "peak_batch"),
        ("scheduler.generator", "generated_tokens"),
        ("scheduler.generator", "refills"),
        ("cluster", "modeled_parallel_speedup"),
    } <= reads
    for receiver, attr in sorted(reads, key=str):
        assert receiver in STATS_OF, f"no stats class known for {receiver}.stats"
        stats = STATS_OF[receiver]()
        assert hasattr(stats, attr), f"{receiver}.stats.{attr} is gone"
