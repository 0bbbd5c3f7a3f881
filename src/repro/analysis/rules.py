"""Pluggable AST rules for the determinism linter.

Each rule walks one parsed module and yields :class:`Finding` records.
The rule set encodes the determinism contract of the simulation stack
(see DESIGN.md):

* ``DET001`` — stochastic code must draw from
  :class:`repro.sim.rng.RngRegistry` streams, never the global
  ``random`` module (only ``sim/rng.py`` may touch it);
* ``DET002`` — simulation code must use ``Simulator.now``, never the
  wall clock (``time.time``/``time.monotonic``, argless
  ``datetime.now``/``today``); CLI and monitoring code is exempt;
* ``DET003`` — never iterate a ``set`` when the iteration order feeds
  event scheduling: set order is hash-seed dependent.  Wrap in
  ``sorted(...)`` first;
* ``DET004`` — no mutable default arguments or shared mutable class
  attributes: hidden cross-instance state breaks paired replays;
* ``DET005`` — never bind the name ``random``: shadowing the module
  hides direct-call hazards from review and from DET001.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity

__all__ = [
    "DETERMINISM_RULES",
    "DirectRandomRule",
    "ModuleContext",
    "MutableDefaultRule",
    "RandomShadowRule",
    "Rule",
    "SetOrderRule",
    "WallClockRule",
]


@dataclass
class ModuleContext:
    """One parsed module plus the policy decisions that apply to it."""

    path: str  # display path (as passed to the linter)
    tree: ast.Module
    lines: Sequence[str]
    is_rng_module: bool = False  # the one module allowed to import random
    wallclock_exempt: bool = False  # CLI / monitor code may read the clock


class Rule:
    """Base class: subclasses define ``rule_id`` and ``check``."""

    rule_id: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            file=ctx.path,
            line=getattr(node, "lineno", 0),
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
        )


def _random_module_aliases(tree: ast.Module) -> Set[str]:
    """Names under which the ``random`` module is imported."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    aliases.add(alias.asname or "random")
    return aliases


def _from_random_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> original name for ``from random import ...``."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


class DirectRandomRule(Rule):
    """DET001: global ``random`` module used outside ``sim/rng.py``."""

    rule_id = "DET001"
    description = "stochastic code must use RngRegistry streams, not the random module"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_rng_module:
            return
        module_aliases = _random_module_aliases(ctx.tree)
        from_imports = _from_random_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            ctx,
                            node,
                            "import of the global random module; draw from an "
                            "RngRegistry stream instead",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                imported = ", ".join(a.name for a in node.names)
                yield self.finding(
                    ctx,
                    node,
                    f"from random import {imported}; draw from an RngRegistry "
                    "stream instead",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_aliases
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"direct call random.{func.attr}(); unseeded global state "
                        "breaks replay — use an RngRegistry stream",
                    )
                elif isinstance(func, ast.Name) and func.id in from_imports:
                    yield self.finding(
                        ctx,
                        node,
                        f"call to random.{from_imports[func.id]} imported from the "
                        "random module; use an RngRegistry stream",
                    )


# Wall-clock callables on the ``time`` module.
_TIME_FUNCS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
}
# Argless constructors on datetime/date objects.
_DATETIME_FUNCS = {"now", "today", "utcnow"}
_DATETIME_BASES = {"datetime", "date"}


class WallClockRule(Rule):
    """DET002: wall-clock reads inside simulation code."""

    rule_id = "DET002"
    description = "simulation code must use Simulator.now, never the wall clock"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.wallclock_exempt:
            return
        time_aliases: Set[str] = set()
        bare_time_funcs: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _TIME_FUNCS:
                        bare_time_funcs[alias.asname or alias.name] = alias.name
                        yield self.finding(
                            ctx,
                            node,
                            f"from time import {alias.name}; thread simulated "
                            "time (Simulator.now) instead",
                        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
                and func.attr in _TIME_FUNCS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read time.{func.attr}(); use Simulator.now",
                )
            elif isinstance(func, ast.Name) and func.id in bare_time_funcs:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read {func.id}() (time.{bare_time_funcs[func.id]}); "
                    "use Simulator.now",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _DATETIME_FUNCS
                and not node.args
                and not node.keywords
                and self._is_datetime_base(func.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"argless datetime {func.attr}() reads the wall clock; "
                    "derive timestamps from simulated time",
                )

    @staticmethod
    def _is_datetime_base(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _DATETIME_BASES
        if isinstance(node, ast.Attribute):
            return node.attr in _DATETIME_BASES
        return False


# Calls that (transitively) schedule events on the kernel: if reached
# from inside a set iteration, the schedule order inherits hash order.
_SCHEDULING_CALLS = {
    "arm",
    "call_at",
    "call_in",
    "defer",
    "defer_at",
    "expire_at",
    "fail",
    "invoke",
    "process",
    "put",
    "request",
    "schedule",
    "step_in_place",
    "submit",
    "succeed",
    "timeout",
}
_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "MutableSet"}


def _is_set_annotation(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in _SET_ANNOTATIONS
    if isinstance(target, ast.Attribute):
        return target.attr in _SET_ANNOTATIONS
    return False


def _is_set_literalish(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


def _schedules_events(nodes: Sequence[ast.stmt]) -> bool:
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                name = None
                if isinstance(func, ast.Attribute):
                    name = func.attr
                elif isinstance(func, ast.Name):
                    name = func.id
                if name in _SCHEDULING_CALLS:
                    return True
    return False


@dataclass
class _SetBindings:
    """Names known (syntactically) to hold sets, per scope."""

    local: Set[str] = field(default_factory=set)
    attrs: Set[str] = field(default_factory=set)  # self.<attr> with Set annotation

    def covers(self, node: ast.expr) -> bool:
        if _is_set_literalish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.local
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.attrs
        return False


class SetOrderRule(Rule):
    """DET003: iteration over a set feeds event scheduling."""

    rule_id = "DET003"
    description = "set iteration order is hash-dependent; sort before scheduling"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        set_attrs: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and _is_set_annotation(stmt.annotation)
                    ):
                        set_attrs.add(stmt.target.id)
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bindings = _SetBindings(attrs=set_attrs)
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and _is_set_literalish(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bindings.local.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if _is_set_annotation(node.annotation) or (
                        node.value is not None and _is_set_literalish(node.value)
                    ):
                        bindings.local.add(node.target.id)
            for node in ast.walk(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if bindings.covers(node.iter) and _schedules_events(node.body):
                        yield self.finding(
                            ctx,
                            node,
                            "iteration over a set feeds event scheduling; wrap the "
                            "set in sorted(...) so replay order is stable",
                        )
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                    if any(
                        bindings.covers(gen.iter) for gen in node.generators
                    ) and _schedules_events([ast.Expr(value=node.elt)]):
                        yield self.finding(
                            ctx,
                            node,
                            "comprehension over a set schedules events; wrap the "
                            "set in sorted(...) so replay order is stable",
                        )


_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _MUTABLE_CALLS
        if isinstance(func, ast.Attribute):
            return func.attr in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    """DET004: mutable defaults in signatures and class bodies."""

    rule_id = "DET004"
    description = "mutable defaults share state across calls/instances"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_literal(default):
                        yield self.finding(
                            ctx,
                            default,
                            "mutable default argument is shared across calls; "
                            "use None (or dataclasses.field(default_factory=...))",
                        )
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    value = None
                    if isinstance(stmt, ast.Assign):
                        value = stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        value = stmt.value
                    if value is not None and _is_mutable_literal(value):
                        yield self.finding(
                            ctx,
                            value,
                            "mutable class attribute is shared across instances; "
                            "use dataclasses.field(default_factory=...)",
                        )


class RandomShadowRule(Rule):
    """DET005: binding the name ``random`` hides direct-call hazards."""

    rule_id = "DET005"
    description = "never rebind the name 'random'"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_rng_module:
            return
        message = (
            "binding the name 'random' shadows the stdlib module and hides "
            "direct-call hazards; name the stream explicitly (e.g. 'rand')"
        )
        # Methods live in the class namespace, not any calling scope, so
        # a ``def random(self)`` (e.g. a Protocol mirroring the
        # ``random.Random`` API) can never shadow the module.
        methods = {
            stmt
            for klass in ast.walk(ctx.tree)
            if isinstance(klass, ast.ClassDef)
            for stmt in klass.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in self._names_in_target(target):
                        if name == "random":
                            yield self.finding(ctx, node, message)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                for name in self._names_in_target(node.target):
                    if name == "random":
                        yield self.finding(ctx, node, message)
            elif isinstance(node, ast.NamedExpr):
                if isinstance(node.target, ast.Name) and node.target.id == "random":
                    yield self.finding(ctx, node, message)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name in self._names_in_target(node.target):
                    if name == "random":
                        yield self.finding(ctx, node, message)
            elif isinstance(node, ast.comprehension):
                for name in self._names_in_target(node.target):
                    if name == "random":
                        yield self.finding(ctx, node.target, message)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                all_args = (
                    args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                )
                for arg in all_args:
                    if arg.arg == "random":
                        yield self.finding(ctx, arg, message)
                if node.name == "random" and node not in methods:
                    yield self.finding(ctx, node, message)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname == "random" and getattr(
                        node, "module", None
                    ) != "random" and alias.name != "random":
                        yield self.finding(ctx, node, message)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    for name in self._names_in_target(node.optional_vars):
                        if name == "random":
                            yield self.finding(ctx, node.optional_vars, message)

    @staticmethod
    def _names_in_target(target: ast.expr) -> Iterator[str]:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id


DETERMINISM_RULES: Tuple[Rule, ...] = (
    DirectRandomRule(),
    WallClockRule(),
    SetOrderRule(),
    MutableDefaultRule(),
    RandomShadowRule(),
)
