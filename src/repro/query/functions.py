"""Registry of built-in scalar/boolean functions for queries.

The paper's example uses the "system-provided Boolean function
coverage(camera_id, location)". Function implementations need engine
context (the device registry, geometry), so the engine registers them
as closures; this module provides the registry plumbing plus the
context-free built-ins.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import BindingError, QueryError, RegistrationError
from repro.geometry import Point

#: Function implementation: positional evaluated-argument call.
FunctionImpl = Callable[..., Any]


class FunctionRegistry:
    """Named functions callable from query expressions."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionImpl] = {}
        self._arity: Dict[str, Optional[int]] = {}
        self._stable: Set[str] = set()

    def register(self, name: str, implementation: FunctionImpl,
                 arity: Optional[int] = None, *,
                 stable: bool = False) -> None:
        """Register a function; ``arity=None`` means variadic.

        ``stable=True`` is the implementer's promise that a call's
        result is fixed by its arguments and the static state of the
        registered devices (static rows and mount geometry) — never by
        time, sensor readings or head positions. Only predicates made
        of stable functions have their candidate sets cached across
        polls; the default keeps an unknown function evaluated afresh
        for every event.
        """
        if not name.isidentifier():
            raise RegistrationError(
                f"function name {name!r} is not an identifier")
        if name in self._functions:
            raise RegistrationError(f"function {name!r} already registered")
        self._functions[name] = implementation
        self._arity[name] = arity
        if stable:
            self._stable.add(name)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def is_stable(self, name: str) -> bool:
        """Whether ``name`` was registered as stable over static state."""
        return name in self._stable

    def call(self, name: str, args: List[Any]) -> Any:
        """Invoke a registered function on evaluated arguments."""
        if name not in self._functions:
            raise BindingError(f"unknown function {name!r}")
        arity = self._arity[name]
        if arity is not None and len(args) != arity:
            raise QueryError(
                f"function {name!r} takes {arity} argument(s), "
                f"got {len(args)}"
            )
        return self._functions[name](*args)


def distance(a: Any, b: Any) -> float:
    """Euclidean distance between two locations, in metres."""
    return Point(a.x, a.y).distance_to(Point(b.x, b.y))


def install_standard_functions(registry: FunctionRegistry) -> None:
    """Register the context-free standard functions."""
    registry.register("distance", distance, arity=2, stable=True)
    registry.register("abs", lambda value: abs(value), arity=1, stable=True)
    registry.register("min", lambda *values: min(values), stable=True)
    registry.register("max", lambda *values: max(values), stable=True)
