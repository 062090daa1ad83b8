"""Name → class tables for the pluggable components specs refer to by name.

Attacks, aggregators, assignment schemes and compressors each declare
their name once, as a class attribute (``attack_name = "alie"``); a
:class:`Registry` is built from the classes themselves, so a name cannot
drift from its class and no class can be listed twice.
"""

from __future__ import annotations

from typing import Any, Generic, Iterable, TypeVar

from repro.exceptions import ConfigurationError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Subclasses of ``base`` keyed by their ``name_attr`` attribute.

    Names are matched case-insensitively.  A class that does not subclass
    ``base``, or whose name is already taken, is refused with a
    :class:`~repro.exceptions.ConfigurationError`.
    """

    def __init__(
        self, what: str, base: type[T], name_attr: str, classes: Iterable[type[T]] = ()
    ) -> None:
        self.what = what
        self.base = base
        self.name_attr = name_attr
        self._classes: dict[str, type[T]] = {}
        for cls in classes:
            self.register(cls)

    def register(self, cls: type[T]) -> None:
        """Add ``cls`` under the name it declares."""
        if not (isinstance(cls, type) and issubclass(cls, self.base)):
            raise ConfigurationError(
                f"{cls!r} does not subclass {self.base.__name__} and cannot be registered"
            )
        name = getattr(cls, self.name_attr)
        key = name.lower()
        if key in self._classes:
            raise ConfigurationError(
                f"{self.what} {name!r} is already registered "
                f"(as {self._classes[key].__name__})"
            )
        self._classes[key] = cls

    def get(self, name: str) -> type[T]:
        """The class registered under ``name`` (case-insensitive)."""
        cls = self._classes.get(name.lower()) if isinstance(name, str) else None
        if cls is None:
            raise ConfigurationError(
                f"unknown {self.what} {name!r}; available: {self.names()}"
            )
        return cls

    def create(self, name: str, **kwargs: Any) -> T:
        """Instantiate the class registered under ``name`` with ``kwargs``."""
        return self.get(name)(**kwargs)

    def names(self) -> list[str]:
        """Sorted registered names."""
        return sorted(self._classes)
