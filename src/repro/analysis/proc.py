"""Sim-process protocol lint: generator discipline for kernel processes.

Simulation processes are plain generators driven by the kernel; the
protocol they must follow (hold no resource across an unprotected
yield, never block the interpreter, never swallow
:class:`repro.sim.Interrupt`) is invisible to the type system.  This
module detects *sim generators* syntactically — a function whose own
body yields and that either declares an ``Event``-ish return type or
yields calls to the kernel's event factories (``timeout``, ``request``,
``put``, ...) — and then enforces the protocol on them:

* ``PROC001`` — a ``.request()`` acquire whose matching ``.release()``
  is missing, or is separated from the acquire by a yield without a
  ``try/finally`` guarding it: the process can be interrupted at any
  yield, leaking the slot forever;
* ``PROC002`` — wall-clock blocking calls (``time.sleep``, file or
  socket I/O, subprocess spawns) inside a sim generator: they stall
  the real interpreter, not simulated time;
* ``PROC003`` — a nested function registered as an event callback that
  mutates enclosing shared state: the mutation lands at an
  unpredictable point in the event order (warning);
* ``PROC004`` — a broad ``except``/``except Exception`` in a sim
  generator with no bare ``raise`` and no dedicated ``Interrupt``
  handler: :class:`repro.sim.Interrupt` derives from ``Exception``, so
  the handler silently swallows kernel interrupts.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import ModuleContext, Rule

__all__ = [
    "PROC_RULES",
    "ProcBlockingCallRule",
    "ProcBroadExceptRule",
    "ProcCallbackMutationRule",
    "ProcLeakedAcquireRule",
    "is_sim_generator",
]

#: Kernel event-factory method names: yielding a call to one of these
#: marks the enclosing generator as a sim process.
_EVENT_FACTORIES = {
    "timeout",
    "request",
    "process",
    "put",
    "get",
    "call",
    "submit",
    "all_of",
    "any_of",
}

#: Return-annotation substrings that mark a sim process.
_EVENT_ANNOTATIONS = {"Event", "ProcessGen", "SimGenerator"}


def _own_nodes(func: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested scopes."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _call_attr_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        if isinstance(node.func, ast.Name):
            return node.func.id
    return None


def is_sim_generator(func: ast.FunctionDef) -> bool:
    """True when ``func`` is (syntactically) a kernel-driven process."""
    yields: List[ast.expr] = []
    for node in _own_nodes(func):
        if isinstance(node, ast.Yield) and node.value is not None:
            yields.append(node.value)
        elif isinstance(node, ast.YieldFrom):
            yields.append(node.value)
    if not yields:
        return False
    returns = func.returns
    if returns is not None:
        rendered = ast.unparse(returns)
        if any(marker in rendered for marker in _EVENT_ANNOTATIONS):
            return True
    for value in yields:
        name = _call_attr_name(value)
        if name in _EVENT_FACTORIES:
            return True
    return False


def _sim_generators(tree: ast.Module) -> List[ast.FunctionDef]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and is_sim_generator(node)
    ]


class _ProcRule(Rule):
    """Base: dispatches per detected sim generator."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in _sim_generators(ctx.tree):
            yield from self.check_generator(ctx, func)

    def check_generator(
        self, ctx: ModuleContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        raise NotImplementedError


def _receiver_repr(node: ast.expr) -> Optional[str]:
    """Stable textual key for an acquire/release receiver expression."""
    if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
        try:
            return ast.unparse(node)
        except ValueError:  # pragma: no cover - unparse of synthetic nodes
            return None
    return None


class ProcLeakedAcquireRule(_ProcRule):
    """PROC001: resource acquired but not released on every path."""

    rule_id = "PROC001"
    description = "every .request() needs a .release() guarded by try/finally"

    def check_generator(
        self, ctx: ModuleContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        # Gather, in source order: acquires, releases (with their
        # position inside any finally block), and yields.
        acquires: List[Tuple[int, str, ast.AST]] = []
        releases: List[Tuple[int, str, bool]] = []
        yield_lines: List[int] = []
        finally_spans = self._finally_spans(func)
        for node in _own_nodes(func):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yield_lines.append(node.lineno)
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            receiver = _receiver_repr(node.func.value)
            if receiver is None:
                continue
            if node.func.attr == "request":
                acquires.append((node.lineno, receiver, node))
            elif node.func.attr == "release":
                in_finally = any(
                    start <= node.lineno <= end for start, end in finally_spans
                )
                releases.append((node.lineno, receiver, in_finally))
        for line, receiver, node in acquires:
            matching = [r for r in releases if r[1] == receiver and r[0] >= line]
            if not matching:
                yield self.finding(
                    ctx,
                    node,
                    f"{receiver}.request() is never released; an interrupt "
                    "leaks the slot forever",
                )
                continue
            release_line, _, in_finally = min(matching)
            crossed = [y for y in yield_lines if line < y < release_line]
            if crossed and not in_finally:
                yield self.finding(
                    ctx,
                    node,
                    f"{receiver}.request() is held across a yield at line "
                    f"{crossed[0]} but released outside try/finally; an "
                    "interrupt at the yield leaks the slot",
                )

    @staticmethod
    def _finally_spans(func: ast.FunctionDef) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        for node in _own_nodes(func):
            if isinstance(node, (ast.Try,)) and node.finalbody:
                first = node.finalbody[0]
                last = node.finalbody[-1]
                spans.append(
                    (first.lineno, getattr(last, "end_lineno", last.lineno))
                )
        return spans


#: Attribute calls that block the interpreter regardless of receiver.
_BLOCKING_ATTRS = {
    "sleep": "blocks the interpreter; yield sim.timeout(...) instead",
    "read_text": "file I/O inside a sim process; do it before sim.run()",
    "write_text": "file I/O inside a sim process; do it after sim.run()",
    "read_bytes": "file I/O inside a sim process; do it before sim.run()",
    "write_bytes": "file I/O inside a sim process; do it after sim.run()",
}

#: Module receivers whose every call is considered blocking.
_BLOCKING_MODULES = {"subprocess", "socket", "requests", "urllib", "shutil"}

#: os.<attr> calls that spawn or block.
_BLOCKING_OS_ATTRS = {"system", "popen", "wait", "waitpid"}

#: Bare names that block.
_BLOCKING_NAMES = {
    "open": "file I/O inside a sim process; stage data before sim.run()",
    "input": "console input blocks the interpreter",
}


class ProcBlockingCallRule(_ProcRule):
    """PROC002: wall-clock/blocking calls inside sim generators."""

    rule_id = "PROC002"
    description = "sim processes must not block the interpreter"

    def check_generator(
        self, ctx: ModuleContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in _own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                reason = _BLOCKING_NAMES.get(callee.id)
                if reason is not None:
                    yield self.finding(
                        ctx, node, f"{callee.id}() in a sim process: {reason}"
                    )
                continue
            if not isinstance(callee, ast.Attribute):
                continue
            receiver = callee.value
            receiver_name = receiver.id if isinstance(receiver, ast.Name) else None
            if callee.attr in _BLOCKING_ATTRS and receiver_name != "self":
                yield self.finding(
                    ctx,
                    node,
                    f".{callee.attr}() in a sim process: "
                    f"{_BLOCKING_ATTRS[callee.attr]}",
                )
            elif receiver_name in _BLOCKING_MODULES:
                yield self.finding(
                    ctx,
                    node,
                    f"{receiver_name}.{callee.attr}() in a sim process blocks "
                    "the interpreter; move real I/O outside the simulation",
                )
            elif receiver_name == "os" and callee.attr in _BLOCKING_OS_ATTRS:
                yield self.finding(
                    ctx,
                    node,
                    f"os.{callee.attr}() in a sim process blocks the "
                    "interpreter; move real I/O outside the simulation",
                )


#: Callback-registration shapes: <x>.callbacks.append(fn),
#: <x>.add_callback(fn), sim.call_at(t, fn) / sim.call_in(dt, fn) /
#: sim.defer(dt, fn) / sim.defer_at(t, fn) /
#: rpc_timeouts.expire_at(address, request_id).
_REGISTER_ATTRS = {"add_callback"}
_SCHEDULE_ATTRS = {"call_at", "call_in", "defer", "defer_at", "expire_at"}

#: Mutating method names on enclosing-scope containers.
_MUTATING_METHODS = {
    "append",
    "extend",
    "add",
    "update",
    "pop",
    "popleft",
    "clear",
    "remove",
    "insert",
    "setdefault",
}


def _callback_argument(node: ast.Call) -> Optional[str]:
    """Name of the function handed to a callback-registration call."""
    func = node.func
    candidates: List[ast.expr] = []
    if isinstance(func, ast.Attribute):
        if func.attr == "append" and isinstance(func.value, ast.Attribute):
            if func.value.attr == "callbacks" and node.args:
                candidates.append(node.args[0])
        elif func.attr in _REGISTER_ATTRS and node.args:
            candidates.append(node.args[0])
        elif func.attr in _SCHEDULE_ATTRS and len(node.args) >= 2:
            candidates.append(node.args[1])
    for candidate in candidates:
        if isinstance(candidate, ast.Name):
            return candidate.id
    return None


def _mutated_enclosing_names(
    nested: ast.FunctionDef, enclosing_locals: Set[str]
) -> List[str]:
    """Enclosing-scope names the nested callback mutates."""
    own_locals: Set[str] = {
        arg.arg
        for arg in (
            nested.args.posonlyargs + nested.args.args + nested.args.kwonlyargs
        )
    }
    nonlocals: Set[str] = set()
    mutated: List[str] = []
    for node in _own_nodes(nested):
        if isinstance(node, ast.Nonlocal):
            nonlocals.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        own_locals.add(name_node.id)
    for node in _own_nodes(nested):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    mutated.append(f"self.{target.attr}")
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    name = target.value.id
                    if name in enclosing_locals and name not in own_locals:
                        mutated.append(name)
                elif isinstance(target, ast.Name) and target.id in nonlocals:
                    mutated.append(target.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATING_METHODS and isinstance(
                node.func.value, ast.Name
            ):
                name = node.func.value.id
                if name in enclosing_locals and name not in own_locals:
                    mutated.append(name)
    return mutated


class ProcCallbackMutationRule(_ProcRule):
    """PROC003: event callbacks mutating shared state after yield."""

    rule_id = "PROC003"
    description = "event callbacks should not mutate enclosing shared state"
    severity = Severity.WARNING

    def check_generator(
        self, ctx: ModuleContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        nested: dict[str, ast.FunctionDef] = {}
        enclosing_locals: Set[str] = {
            arg.arg
            for arg in (
                func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            )
        }
        for node in _own_nodes(func):
            if isinstance(node, ast.FunctionDef):
                nested[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        enclosing_locals.add(target.id)
        if not nested:
            return
        for node in _own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            callback_name = _callback_argument(node)
            if callback_name is None or callback_name not in nested:
                continue
            mutated = _mutated_enclosing_names(
                nested[callback_name], enclosing_locals
            )
            if mutated:
                listed = ", ".join(sorted(set(mutated)))
                yield self.finding(
                    ctx,
                    node,
                    f"callback {callback_name!r} mutates shared state "
                    f"({listed}) at an unpredictable point in event order; "
                    "communicate through an Event or Store instead",
                )


def _is_broad_exception(node: Optional[ast.expr]) -> bool:
    if node is None:
        return True  # bare except
    if isinstance(node, ast.Name):
        return node.id in {"Exception", "BaseException"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"Exception", "BaseException"}
    if isinstance(node, ast.Tuple):
        return any(_is_broad_exception(elt) for elt in node.elts)
    return False


def _names_interrupt(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "Interrupt":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "Interrupt":
            return True
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                return True
            if handler.name is not None:
                exc = node.exc
                if isinstance(exc, ast.Name) and exc.id == handler.name:
                    return True
                # ``raise Wrapped(...) from exc`` keeps the interrupt
                # visible on the chain but still swallows it for the
                # kernel; only a true re-raise counts.
    return False


class ProcBroadExceptRule(_ProcRule):
    """PROC004: broad except may swallow kernel Interrupts."""

    rule_id = "PROC004"
    description = "broad except in a sim process swallows Interrupt"

    def check_generator(
        self, ctx: ModuleContext, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in _own_nodes(func):
            if not isinstance(node, ast.Try):
                continue
            handled_interrupt = any(
                _names_interrupt(handler.type) for handler in node.handlers
            )
            for handler in node.handlers:
                if not _is_broad_exception(handler.type):
                    continue
                if _names_interrupt(handler.type):
                    continue
                if handled_interrupt or _reraises(handler):
                    continue
                yield self.finding(
                    ctx,
                    handler,
                    "broad except in a sim process swallows Interrupt "
                    "(it derives from Exception); re-raise Interrupt first "
                    "or narrow the handler",
                )


PROC_RULES: Tuple[Rule, ...] = (
    ProcLeakedAcquireRule(),
    ProcBlockingCallRule(),
    ProcCallbackMutationRule(),
    ProcBroadExceptRule(),
)
