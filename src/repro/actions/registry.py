"""Action registry and the user-defined action library.

``CREATE ACTION`` names an executable by a library path (the prototype
loaded DLLs). Here the :class:`ActionLibrary` maps those paths to
Python callables the application pre-registered — the same two-step
flow (compile/register the code, then ``CREATE ACTION`` it) without
dynamic linking.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import BindingError, RegistrationError
from repro.actions.action import ActionDefinition, ActionImplementation


class ActionLibrary:
    """Maps library paths (``lib/users/sendphoto.dll``) to callables."""

    def __init__(self) -> None:
        self._implementations: Dict[str, ActionImplementation] = {}

    def install(self, path: str, implementation: ActionImplementation) -> None:
        """Register an executable under a library path."""
        if not path:
            raise RegistrationError("library path must be non-empty")
        if path in self._implementations:
            raise RegistrationError(
                f"library path {path!r} already has an implementation"
            )
        self._implementations[path] = implementation

    def resolve(self, path: str) -> ActionImplementation:
        """Look up the executable for a path, raising if absent."""
        try:
            return self._implementations[path]
        except KeyError:
            raise BindingError(
                f"no implementation installed for library path {path!r}; "
                f"install the code before CREATE ACTION references it"
            ) from None

    def __contains__(self, path: str) -> bool:
        return path in self._implementations


class ActionRegistry:
    """All actions known to the engine, built-in and user-defined."""

    def __init__(self) -> None:
        self._actions: Dict[str, ActionDefinition] = {}
        self.library = ActionLibrary()

    def register(self, definition: ActionDefinition) -> None:
        """Register an action definition (the ``CREATE ACTION`` effect)."""
        if definition.name in self._actions:
            raise RegistrationError(
                f"action {definition.name!r} is already registered"
            )
        self._actions[definition.name] = definition

    def get(self, name: str) -> ActionDefinition:
        """Look up an action, raising :class:`BindingError` if unknown."""
        try:
            return self._actions[name]
        except KeyError:
            raise BindingError(f"unknown action {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._actions

    def __len__(self) -> int:
        return len(self._actions)

