"""The RPR rule implementations (stdlib ``ast`` only).

Each rule encodes one domain invariant of the repro codebase; the
catalog with rationale and examples lives in docs/STATIC_ANALYSIS.md.
Scoping is by repo-relative POSIX path so the same rule objects serve
both the CLI walk and the fixture tests (which pass virtual paths).
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass

from .core import Violation

_KINDS = ("SPARSE", "DENSE")

#: Methods that mutate the receiver in place (RPR003's mutation set,
#: beyond plain attribute rebinding).
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "move_to_end", "sort",
        "reverse", "appendleft", "extendleft",
    }
)

#: The multiply keywords removed in 2.0 in favour of ``MultiplyOptions``
#: fields, plus ``return_report``.
_LEGACY_KEYWORDS = frozenset(
    {
        "memory_limit_bytes", "dynamic_conversion", "use_estimation",
        "resilience", "observer", "workers", "return_report",
    }
)

#: Entry points whose legacy keywords were removed (RPR004 callees).
_LEGACY_ENTRY_POINTS = frozenset(
    {"atmult", "parallel_atmult", "multiply", "multiply_chain", "evaluate"}
)


def _in_src(path: str) -> bool:
    return path.startswith("src/repro/") or "/src/repro/" in path


def _name_chain(node: ast.AST) -> str:
    """Dotted name of a Name/Attribute chain, or '' when not one."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _violation(code: str, message: str, path: str, node: ast.AST) -> Violation:
    return Violation(
        code,
        message,
        path,
        getattr(node, "lineno", 0),
        getattr(node, "col_offset", 0),
    )


# ---------------------------------------------------------------------------
# RPR001: kernel-registry completeness
# ---------------------------------------------------------------------------


@dataclass
class KernelRegistryRule:
    """Every (A, B, C) storage-kind combination has a registered kernel.

    Applies to files that *define* the registry (a ``register_kernel``
    function or a ``*KERNELS`` dict) — callers that merely re-register a
    subset (e.g. the reference-kernel context manager) are out of scope.
    A ``register_kernel`` call whose kind argument is the loop variable
    of an enclosing ``for var in StorageKind:`` counts for both kinds.
    """

    code: str = "RPR001"
    summary: str = "kernel registry covers all (sparse|dense)^3 combinations"

    def applies(self, path: str) -> bool:
        return path.endswith(".py")

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        anchor = self._registry_anchor(tree)
        if anchor is None:
            return []
        covered: set[tuple[str, str, str]] = set()
        for call, loop_vars in _walk_with_kind_loops(tree):
            if not (
                isinstance(call.func, ast.Name)
                and call.func.id == "register_kernel"
            ) or len(call.args) < 4:
                continue
            kind_sets = [
                _kind_candidates(arg, loop_vars) for arg in call.args[:3]
            ]
            if any(not kinds for kinds in kind_sets):
                continue  # unresolvable argument: cannot prove anything
            covered.update(itertools.product(*kind_sets))
        missing = [
            combo
            for combo in itertools.product(_KINDS, _KINDS, _KINDS)
            if combo not in covered
        ]
        if not missing:
            return []
        names = ", ".join("x".join(combo).lower() for combo in missing)
        return [
            _violation(
                self.code,
                f"kernel registry is missing {len(missing)} of 8 "
                f"(A, B, C) combinations: {names}",
                path,
                anchor,
            )
        ]

    @staticmethod
    def _registry_anchor(tree: ast.Module) -> ast.AST | None:
        """The node that marks this file as the canonical registry."""
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "register_kernel"
            ):
                return node
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.endswith(
                        "KERNELS"
                    ):
                        return node
        return None


def _walk_with_kind_loops(
    tree: ast.AST,
) -> list[tuple[ast.Call, dict[str, tuple[str, ...]]]]:
    """All Call nodes, each with the StorageKind loop vars in scope."""
    found: list[tuple[ast.Call, dict[str, tuple[str, ...]]]] = []

    def visit(node: ast.AST, loops: dict[str, tuple[str, ...]]) -> None:
        if isinstance(node, ast.For):
            inner = dict(loops)
            if (
                isinstance(node.target, ast.Name)
                and _name_chain(node.iter).split(".")[-1] == "StorageKind"
            ):
                inner[node.target.id] = _KINDS
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        if isinstance(node, ast.Call):
            found.append((node, loops))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return found


def _kind_candidates(
    node: ast.AST, loop_vars: dict[str, tuple[str, ...]]
) -> tuple[str, ...]:
    """Storage kinds a registration argument can denote ('' = unknown)."""
    chain = _name_chain(node)
    if chain.split(".")[-1] in _KINDS and "StorageKind" in chain:
        return (chain.split(".")[-1],)
    if isinstance(node, ast.Name) and node.id in loop_vars:
        return loop_vars[node.id]
    return ()


# ---------------------------------------------------------------------------
# RPR002: plan determinism
# ---------------------------------------------------------------------------

_RPR002_SCOPE = (
    "engine/plan.py",
    "engine/fingerprint.py",
    "engine/cache.py",
    "density/",
)


@dataclass
class DeterminismRule:
    """No nondeterministic value may leak into plan/fingerprint content.

    Plans are cached under structure+setup keys; anything the planning
    modules compute must be a pure function of that key.  Wall-clock
    reads, ambient RNG state, ``id()``-keyed lookups and set-iteration
    order all violate that.
    """

    code: str = "RPR002"
    summary: str = "plan/fingerprint/density modules stay deterministic"

    def applies(self, path: str) -> bool:
        return any(part in path for part in _RPR002_SCOPE)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        random_names = _ambient_random_imports(tree)
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                violations.extend(
                    self._check_call(node, random_names, path)
                )
            elif isinstance(node, (ast.Dict, ast.DictComp)):
                violations.extend(self._check_dict_keys(node, path))
            elif isinstance(node, ast.Subscript):
                if _is_id_call(node.slice):
                    violations.append(
                        _violation(
                            self.code,
                            "id()-keyed subscript: object identity is not "
                            "stable across processes; key on structural "
                            "coordinates instead",
                            path,
                            node,
                        )
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if _is_bare_set_expr(iterable):
                    violations.append(
                        _violation(
                            self.code,
                            "iteration over a set has no deterministic "
                            "order; wrap in sorted(...)",
                            path,
                            iterable,
                        )
                    )
        return violations

    def _check_call(
        self, node: ast.Call, random_names: set[str], path: str
    ) -> list[Violation]:
        chain = _name_chain(node.func)
        out: list[Violation] = []
        if chain in {"time.time", "time.time_ns"}:
            out.append(
                _violation(
                    self.code,
                    f"{chain}() reads the wall clock; plan content must be "
                    "a pure function of the plan key",
                    path,
                    node,
                )
            )
        head = chain.split(".")[0]
        if head == "random" or chain in random_names:
            out.append(
                _violation(
                    self.code,
                    f"{chain}() draws from ambient RNG state; pass an "
                    "explicitly seeded generator instead",
                    path,
                    node,
                )
            )
        parts = chain.split(".")
        if (
            len(parts) >= 3
            and parts[0] in {"np", "numpy"}
            and parts[1] == "random"
            and parts[2] != "default_rng"
        ):
            out.append(
                _violation(
                    self.code,
                    f"{chain}() uses numpy's global RNG; use "
                    "np.random.default_rng(seed) instead",
                    path,
                    node,
                )
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"get", "setdefault", "pop"}
            and node.args
            and _is_id_call(node.args[0])
        ):
            out.append(
                _violation(
                    self.code,
                    "id()-keyed lookup: object identity is not stable "
                    "across processes; key on structural coordinates "
                    "instead",
                    path,
                    node,
                )
            )
        if _is_bare_set_expr_consumer(node):
            out.append(
                _violation(
                    self.code,
                    "materializing a set in arbitrary order; wrap in "
                    "sorted(...)",
                    path,
                    node,
                )
            )
        return out

    def _check_dict_keys(
        self, node: ast.Dict | ast.DictComp, path: str
    ) -> list[Violation]:
        keys = node.keys if isinstance(node, ast.Dict) else [node.key]
        return [
            _violation(
                self.code,
                "id()-keyed dict: object identity is not stable across "
                "processes; key on structural coordinates instead",
                path,
                key,
            )
            for key in keys
            if key is not None and _is_id_call(key)
        ]


def _ambient_random_imports(tree: ast.Module) -> set[str]:
    """Names bound by ``from random import ...`` (ambient RNG draws)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _is_bare_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _is_bare_set_expr_consumer(node: ast.Call) -> bool:
    """``list(set(..))`` / ``tuple(set(..))`` / ``enumerate(set(..))``."""
    return (
        isinstance(node.func, ast.Name)
        and node.func.id in {"list", "tuple", "enumerate", "iter"}
        and len(node.args) >= 1
        and _is_bare_set_expr(node.args[0])
    )


# ---------------------------------------------------------------------------
# RPR003: locking discipline
# ---------------------------------------------------------------------------


@dataclass
class LockDisciplineRule:
    """Lock-owning classes mutate their shared state only under the lock.

    A class "owns a lock" when ``__init__`` assigns ``self.<name>`` from
    an expression containing ``threading.Lock()`` / ``threading.RLock()``.
    Every other method that rebinds, subscript-assigns or calls a
    mutating method on an ``__init__``-assigned attribute must do so
    inside ``with self.<lock>``.  Helper methods whose name ends in
    ``_locked`` are exempt by convention: they document that the caller
    already holds the lock.
    """

    code: str = "RPR003"
    summary: str = "lock-owning classes mutate shared state under the lock"

    def applies(self, path: str) -> bool:
        return path.endswith(".py")

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                violations.extend(self._check_class(node, path))
        return violations

    def _check_class(self, cls: ast.ClassDef, path: str) -> list[Violation]:
        init = next(
            (
                item
                for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return []
        lock_attrs = _lock_attributes(init)
        if not lock_attrs:
            return []
        state_attrs = _init_assigned_attributes(init) - lock_attrs
        violations: list[Violation] = []
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__" or item.name.endswith("_locked"):
                continue
            violations.extend(
                _violation(
                    self.code,
                    f"{cls.name}.{item.name} mutates self.{attr} outside "
                    f"'with self.{sorted(lock_attrs)[0]}' although "
                    f"{cls.name} owns a lock (move under the lock, or "
                    "rename the helper *_locked if the caller holds it)",
                    path,
                    mutation,
                )
                for attr, mutation in _unguarded_mutations(
                    item, state_attrs, lock_attrs
                )
            )
        return violations


def _lock_attributes(init: ast.FunctionDef) -> set[str]:
    locks: set[str] = set()
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        creates_lock = any(
            isinstance(sub, ast.Call)
            and _name_chain(sub.func).split(".")[-1] in {"Lock", "RLock"}
            for sub in ast.walk(node.value)
        )
        if not creates_lock:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                locks.add(target.attr)
    return locks


def _init_assigned_attributes(init: ast.FunctionDef) -> set[str]:
    attrs: set[str] = set()
    for node in ast.walk(init):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attrs.add(target.attr)
    return attrs


def _self_attr(node: ast.AST, attrs: set[str]) -> str | None:
    """The attribute name when ``node`` is ``self.<attr in attrs>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in attrs
    ):
        return node.attr
    return None


def _unguarded_mutations(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    state_attrs: set[str],
    lock_attrs: set[str],
) -> list[tuple[str, ast.AST]]:
    """(attr, node) pairs mutated outside any ``with self.<lock>``."""
    found: list[tuple[str, ast.AST]] = []

    def guarded_by_lock(with_node: ast.With | ast.AsyncWith) -> bool:
        return any(
            _self_attr(item.context_expr, lock_attrs) is not None
            for item in with_node.items
        )

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = guarded or guarded_by_lock(node)
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node is not func
        ):
            # Nested function: conservatively inherit the current guard.
            for child in ast.iter_child_nodes(node):
                visit(child, guarded)
            return
        if not guarded:
            mutated = _mutated_attr(node, state_attrs)
            if mutated is not None:
                found.append((mutated, node))
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(func, False)
    return found


def _mutated_attr(node: ast.AST, state_attrs: set[str]) -> str | None:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            direct = _self_attr(target, state_attrs)
            if direct is not None:
                return direct
            if isinstance(target, ast.Subscript):
                via_subscript = _self_attr(target.value, state_attrs)
                if via_subscript is not None:
                    return via_subscript
    if isinstance(node, ast.Delete):
        for target in node.targets:
            direct = _self_attr(target, state_attrs)
            if direct is not None:
                return direct
            if isinstance(target, ast.Subscript):
                via_subscript = _self_attr(target.value, state_attrs)
                if via_subscript is not None:
                    return via_subscript
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATOR_METHODS
    ):
        return _self_attr(node.func.value, state_attrs)
    return None


# ---------------------------------------------------------------------------
# RPR004: no internal use of the removed legacy kwargs
# ---------------------------------------------------------------------------


@dataclass
class LegacyKeywordRule:
    """Inside src/repro, multiply entry points take ``options=`` only.

    The loose keyword surface was removed in 2.0; this rule keeps
    internal call sites from bringing back the sprawl
    ``MultiplyOptions`` replaced.
    """

    code: str = "RPR004"
    summary: str = "internal multiply calls use MultiplyOptions, not legacy kwargs"

    def applies(self, path: str) -> bool:
        return _in_src(path)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _name_chain(node.func).split(".")[-1]
            if callee not in _LEGACY_ENTRY_POINTS:
                continue
            for keyword in node.keywords:
                if keyword.arg in _LEGACY_KEYWORDS:
                    violations.append(
                        _violation(
                            self.code,
                            f"{callee}({keyword.arg}=...) uses a deprecated "
                            "legacy keyword inside src/repro; pass "
                            f"options=MultiplyOptions({keyword.arg}=...) "
                            "instead",
                            path,
                            keyword.value,
                        )
                    )
        return violations


# ---------------------------------------------------------------------------
# RPR005: observability coverage of tile-pair loops
# ---------------------------------------------------------------------------

_RPR005_SCOPE = ("kernels/", "engine/executor.py")
_LOOP_MARKERS = ("pair", "tile", "product")


@dataclass
class SpanCoverageRule:
    """Public kernel/executor functions looping over tile pairs open spans.

    The observability layer's value depends on the hot loops being
    covered: a public function in the kernel/executor layer that
    iterates pairs, tiles or products without any span leaves a hole in
    every trace.  Detection is name-based: a ``for`` loop whose iterable
    mentions pair/tile/product identifiers requires a ``with`` on a
    ``*span*`` callable somewhere in the function.
    """

    code: str = "RPR005"
    summary: str = "public tile-pair loops are covered by a span"

    def applies(self, path: str) -> bool:
        return any(part in path for part in _RPR005_SCOPE)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        violations: list[Violation] = []
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            loop = _first_tile_loop(node)
            if loop is None:
                continue
            if _opens_span(node):
                continue
            violations.append(
                _violation(
                    self.code,
                    f"public function {node.name} loops over tile "
                    "pairs/products without opening a span; wrap the loop "
                    "in tracer.span(...)/maybe_span(...)",
                    path,
                    loop,
                )
            )
        return violations


def _first_tile_loop(func: ast.AST) -> ast.AST | None:
    for node in ast.walk(func):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        identifiers = {
            part.lower()
            for sub in ast.walk(node.iter)
            for part in _identifier_parts(sub)
        }
        if any(
            marker in identifier
            for identifier in identifiers
            for marker in _LOOP_MARKERS
        ):
            return node
    return None


def _identifier_parts(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _opens_span(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                callee = _name_chain(expr.func).split(".")[-1]
                if "span" in callee.lower():
                    return True
    return False


# ---------------------------------------------------------------------------
# RPR006: annotation completeness (the mypy --strict AST proxy)
# ---------------------------------------------------------------------------


@dataclass
class AnnotationRule:
    """Every function in src/repro is fully annotated.

    ``mypy --strict`` enforces this and much more, but it cannot run in
    every environment this repo builds in; this rule is the dependency-
    free floor so un-annotated code never lands even where mypy is
    unavailable.  ``self``/``cls`` receivers and ``**kwargs`` under a
    ``# type: ignore``-free decorator chain follow mypy's rules: every
    parameter and the return type must carry an annotation.
    """

    code: str = "RPR006"
    summary: str = "functions in src/repro are fully annotated"
    require_return: bool = True

    def applies(self, path: str) -> bool:
        return _in_src(path)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        violations: list[Violation] = []

        def visit(node: ast.AST, *, in_class: bool) -> None:
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    visit(child, in_class=True)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                violations.extend(
                    self._check_function(node, path, in_class=in_class)
                )
                for child in node.body:
                    visit(child, in_class=False)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, in_class=in_class)

        for node in tree.body:
            visit(node, in_class=False)
        return violations

    def _check_function(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        path: str,
        *,
        in_class: bool,
    ) -> list[Violation]:
        if _is_overload(func):
            return []
        missing: list[str] = []
        args = func.args
        positional = args.posonlyargs + args.args
        for index, arg in enumerate(positional):
            if in_class and index == 0 and arg.arg in {"self", "cls"}:
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(
            arg.arg for arg in args.kwonlyargs if arg.annotation is None
        )
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        out: list[Violation] = []
        if missing:
            out.append(
                _violation(
                    self.code,
                    f"{func.name}() is missing parameter annotations: "
                    + ", ".join(missing),
                    path,
                    func,
                )
            )
        if self.require_return and func.returns is None:
            out.append(
                _violation(
                    self.code,
                    f"{func.name}() is missing a return annotation "
                    "(use -> None for procedures)",
                    path,
                    func,
                )
            )
        return out


def _is_overload(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        _name_chain(decorator).split(".")[-1] == "overload"
        for decorator in func.decorator_list
    )


# ---------------------------------------------------------------------------
# RPR007: atomic writes to final paths
# ---------------------------------------------------------------------------

#: Mode characters that make an ``open(...)`` call a write.
_WRITE_MODE_CHARS = frozenset("wax+")


@dataclass
class AtomicWriteRule:
    """File-writing code in src/repro goes through the atomic helper.

    A crash between ``open(path, "w")`` and the final flush leaves a
    truncated file at the *final* path — exactly the failure mode the
    durability layer exists to rule out.  Inside src/repro every write
    to a real path must use :func:`repro.ioutil.atomic_write` (temp
    file + fsync + rename); the helper module itself is the one place
    allowed to open files for writing.  Reads are unrestricted, and a
    call whose mode is not a string literal is skipped (cannot prove a
    write).
    """

    code: str = "RPR007"
    summary: str = "writes under src/repro use ioutil.atomic_write"

    def applies(self, path: str) -> bool:
        return _in_src(path) and not path.endswith("repro/ioutil.py")

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "write_text",
                "write_bytes",
            }:
                violations.append(
                    _violation(
                        self.code,
                        f".{node.func.attr}(...) writes to the final path "
                        f"non-atomically; use repro.ioutil.atomic_"
                        f"{node.func.attr} instead",
                        path,
                        node,
                    )
                )
                continue
            mode = self._open_mode(node)
            if mode is None:
                continue
            if _WRITE_MODE_CHARS.intersection(mode):
                callee = _name_chain(node.func) or "open"
                violations.append(
                    _violation(
                        self.code,
                        f"{callee}(..., {mode!r}) opens the final path for "
                        "writing; a crash mid-write leaves it truncated — "
                        "use repro.ioutil.atomic_write instead",
                        path,
                        node,
                    )
                )
        return violations

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        """The literal mode of an ``open``-like call, or ``None``.

        Covers the builtin ``open(file, mode)`` and ``<expr>.open(mode)``
        (``Path.open``).  Returns ``None`` for non-open calls and for
        calls whose mode is not a string literal.
        """
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode_index = 1
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "open":
            mode_index = 0
        else:
            return None
        mode_node: ast.expr | None = None
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode_node = keyword.value
        if mode_node is None and len(node.args) > mode_index:
            mode_node = node.args[mode_index]
        if mode_node is None:
            return "r"  # open() defaults to read mode
        if isinstance(mode_node, ast.Constant) and isinstance(
            mode_node.value, str
        ):
            return mode_node.value
        return None  # dynamic mode: cannot prove a write


# ---------------------------------------------------------------------------
# RPR008: process management stays inside the supervisor
# ---------------------------------------------------------------------------

#: The one module allowed to import ``multiprocessing``.
_RPR008_ALLOWED = "resilience/supervisor.py"


@dataclass
class ProcessBoundaryRule:
    """Only ``resilience/supervisor.py`` may use ``multiprocessing``.

    The supervised shard executor owns every process-lifecycle concern:
    start method selection, queue plumbing, heartbeat liveness, crash
    detection and reassignment.  A second ad-hoc ``multiprocessing``
    call site would fork workers that no supervisor watches — exactly
    the unrecoverable hang class the supervisor exists to rule out.
    Detected: any ``import multiprocessing``/``from multiprocessing
    import ...`` (including submodules) and any use of
    ``ProcessPoolExecutor``, outside the allowed module.
    """

    code: str = "RPR008"
    summary: str = "multiprocessing is used only by resilience/supervisor.py"

    def applies(self, path: str) -> bool:
        return _in_src(path) and not path.endswith(_RPR008_ALLOWED)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        violations.append(self._flag(alias.name, path, node))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    violations.append(self._flag(module, path, node))
                elif module.startswith("concurrent.futures"):
                    for alias in node.names:
                        if alias.name == "ProcessPoolExecutor":
                            violations.append(
                                self._flag("ProcessPoolExecutor", path, node)
                            )
            elif isinstance(node, ast.Attribute):
                if (
                    node.attr == "ProcessPoolExecutor"
                    and _name_chain(node).startswith("concurrent.futures.")
                ):
                    violations.append(
                        self._flag("ProcessPoolExecutor", path, node)
                    )
        return violations

    def _flag(self, what: str, path: str, node: ast.AST) -> Violation:
        return _violation(
            self.code,
            f"{what} used outside resilience/supervisor.py; worker "
            "processes must be spawned through the supervised shard "
            "executor so crashes are detected and pairs reassigned",
            path,
            node,
        )


# ---------------------------------------------------------------------------

ALL_RULES: tuple[object, ...] = (
    KernelRegistryRule(),
    DeterminismRule(),
    LockDisciplineRule(),
    LegacyKeywordRule(),
    SpanCoverageRule(),
    AnnotationRule(),
    AtomicWriteRule(),
    ProcessBoundaryRule(),
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
