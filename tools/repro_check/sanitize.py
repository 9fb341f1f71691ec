"""Runtime lock-order sanitizer: dynamic evidence for RPR009's graph.

Enabled with ``REPRO_SANITIZE=1``, :func:`install` monkeypatches the
``threading.Lock`` / ``threading.RLock`` factories so every lock
*created by project code* is wrapped in a recorder.  The wrapper keys
each lock by its creation site (``src/repro/engine/cache.py:116``) —
the same (path, line) identity the static index's
:class:`~tools.repro_check.graph.LockInfo` carries — and records, per
thread, the order in which locks are actually acquired during the test
suite.

After the run, :func:`verify` cross-checks the observed graph:

* an **inversion** — both ``A -> B`` and ``B -> A`` observed — is a
  latent deadlock and fails the run;
* an observed edge the static RPR009 graph does not know about is
  reported as a **staleness warning**: the static model is conservative
  by refusal, so unknown edges are expected where calls do not resolve,
  but the list is printed so drift stays visible.

Locks created outside ``src/repro`` (pytest internals, stdlib pools,
test helpers) pass through unwrapped, so overhead and noise stay
negligible.  The patch must be installed before ``repro`` is imported,
or locks created at import time escape it.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

#: Path fragment marking frames that belong to project code.
_PROJECT_FRAGMENT = "src/repro/"


@dataclass
class LockOrderRecorder:
    """Observed lock-order edges, collected across all threads."""

    #: (held_key, acquired_key) -> first witness description
    edges: dict[tuple[str, str], str] = field(default_factory=dict)
    #: creation-site keys of every lock the recorder wrapped
    lock_keys: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._guard = _REAL_LOCK()
        self._held = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def on_create(self, key: str) -> None:
        with self._guard:
            self.lock_keys.add(key)

    def on_acquire(self, key: str) -> None:
        stack = self._stack()
        held = [k for k in stack if k != key]
        if held:
            witness = f"{threading.current_thread().name}: {' -> '.join(stack + [key])}"
            with self._guard:
                for holder in held:
                    self.edges.setdefault((holder, key), witness)
        stack.append(key)

    def on_release(self, key: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == key:
                del stack[index]
                return

    def inversions(self) -> list[tuple[str, str, str, str]]:
        """Edge pairs observed in both directions: (a, b, witness_ab, witness_ba)."""
        found: list[tuple[str, str, str, str]] = []
        with self._guard:
            for (a, b), witness in sorted(self.edges.items()):
                if a < b and (b, a) in self.edges:
                    found.append((a, b, witness, self.edges[(b, a)]))
        return found

    def edge_keys(self) -> set[tuple[str, str]]:
        with self._guard:
            return set(self.edges)


class SanitizedLock:
    """A lock proxy that reports acquire/release to a recorder.

    ``threading.Lock()`` returns an unsubclassable ``_thread.lock``, so
    sanitization wraps instead of inheriting; everything the recorder
    does not need is delegated to the real lock.
    """

    def __init__(
        self, real: Any, key: str, recorder: LockOrderRecorder
    ) -> None:
        self._real = real
        self._key = key
        self._recorder = recorder
        recorder.on_create(key)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            self._recorder.on_acquire(self._key)
        return acquired

    def release(self) -> None:
        self._recorder.on_release(self._key)
        self._real.release()

    def locked(self) -> bool:
        return bool(self._real.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)

    def __repr__(self) -> str:
        return f"<SanitizedLock {self._key} wrapping {self._real!r}>"


#: The active global recorder while installed (None otherwise).
_ACTIVE_RECORDER: LockOrderRecorder | None = None


def _creation_site() -> str | None:
    """``path:line`` of the project code creating a lock, if any.

    Only the factory's *direct* caller counts: a lock the stdlib
    creates on a project's behalf (``ThreadPoolExecutor``'s queue
    internals, say) is not a project lock and has no static
    :class:`~tools.repro_check.graph.LockInfo` to match.  The key uses
    the same repo-relative POSIX path the static index uses.
    """
    frame = sys._getframe(2)
    if frame is None:
        return None
    filename = Path(frame.f_code.co_filename).as_posix()
    marker = filename.find(_PROJECT_FRAGMENT)
    if marker == -1:
        return None
    return f"{filename[marker:]}:{frame.f_lineno}"


def _sanitizing_factory(real_factory: Any) -> Any:
    def factory() -> Any:
        real = real_factory()
        recorder = _ACTIVE_RECORDER
        if recorder is None:
            return real
        key = _creation_site()
        if key is None:
            return real
        return SanitizedLock(real, key, recorder)

    return factory


def install(recorder: LockOrderRecorder | None = None) -> LockOrderRecorder:
    """Patch the threading lock factories; returns the active recorder."""
    global _ACTIVE_RECORDER
    if _ACTIVE_RECORDER is not None:
        return _ACTIVE_RECORDER
    _ACTIVE_RECORDER = recorder if recorder is not None else LockOrderRecorder()
    threading.Lock = _sanitizing_factory(_REAL_LOCK)  # type: ignore[misc]
    threading.RLock = _sanitizing_factory(_REAL_RLOCK)  # type: ignore[misc]
    return _ACTIVE_RECORDER


def uninstall() -> None:
    """Restore the real factories (already-wrapped locks keep working)."""
    global _ACTIVE_RECORDER
    _ACTIVE_RECORDER = None
    threading.Lock = _REAL_LOCK  # type: ignore[misc]
    threading.RLock = _REAL_RLOCK  # type: ignore[misc]


def active_recorder() -> LockOrderRecorder | None:
    return _ACTIVE_RECORDER


# ---------------------------------------------------------------------------
# cross-check against the static RPR009 graph
# ---------------------------------------------------------------------------


def _repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


def static_edge_keys(root: Path | None = None) -> set[tuple[str, str]]:
    """RPR009's lock-order edges as (creation-site, creation-site) keys."""
    from .core import iter_python_files
    from .flow import lock_order_edges, summarize_project
    from .graph import ProjectIndex

    root = root if root is not None else _repo_root()
    files = iter_python_files([root / "src" / "repro"])
    index = ProjectIndex.from_files(files, base=root)
    summaries = summarize_project(index)
    locks = index.all_locks()
    site = {
        lock_id: f"{info.path}:{info.line}" for lock_id, info in locks.items()
    }
    return {
        (site[edge.held], site[edge.acquired])
        for edge in lock_order_edges(summaries, locks)
        if edge.held in site and edge.acquired in site
    }


@dataclass
class SanitizeReport:
    """Outcome of one sanitized run."""

    observed_edges: int
    inversions: list[tuple[str, str, str, str]]
    unknown_edges: list[tuple[str, str]]

    def summary(self) -> str:
        lines = [
            f"repro-sanitize: {self.observed_edges} lock-order edge(s) "
            f"observed, {len(self.inversions)} inversion(s), "
            f"{len(self.unknown_edges)} edge(s) unknown to the static graph"
        ]
        for a, b, witness_ab, witness_ba in self.inversions:
            lines.append(f"  INVERSION {a} <-> {b}")
            lines.append(f"    {witness_ab}")
            lines.append(f"    {witness_ba}")
        for a, b in self.unknown_edges:
            lines.append(f"  stale/unknown edge {a} -> {b}")
        return "\n".join(lines)


def check(
    recorder: LockOrderRecorder | None = None,
    *,
    static_edges: set[tuple[str, str]] | None = None,
) -> SanitizeReport:
    """Compare the observed graph with the static one (no side effects)."""
    recorder = recorder if recorder is not None else _ACTIVE_RECORDER
    if recorder is None:
        return SanitizeReport(0, [], [])
    if static_edges is None:
        static_edges = static_edge_keys()
    observed = recorder.edge_keys()
    unknown = sorted(edge for edge in observed if edge not in static_edges)
    return SanitizeReport(len(observed), recorder.inversions(), unknown)


def verify(recorder: LockOrderRecorder | None = None) -> SanitizeReport:
    """Like :func:`check`, but raises on observed inversions."""
    report = check(recorder)
    if report.inversions:
        raise AssertionError(report.summary())
    return report
