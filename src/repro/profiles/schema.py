"""Device catalog schema: the attributes of a virtual device table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ProfileError

#: Attribute value types supported by the declarative interface.
SUPPORTED_TYPES = ("float", "int", "str", "bool")


@dataclass(frozen=True)
class AttributeSpec:
    """One column of a virtual device table.

    ``sensory`` attributes (sensor readings, camera zoom level, battery
    voltage) are acquired live from the device by the scan operator;
    non-sensory attributes (locations, IP addresses, phone numbers) are
    served from static catalog data (paper Section 3.2).
    """

    name: str
    type_name: str
    sensory: bool
    unit: str = ""
    description: str = ""
    #: Name of the built-in acquisition method for sensory attributes.
    acquisition_method: str = ""

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ProfileError(f"attribute name {self.name!r} is not an identifier")
        if self.type_name not in SUPPORTED_TYPES:
            raise ProfileError(
                f"attribute {self.name!r} has unsupported type {self.type_name!r}; "
                f"expected one of {SUPPORTED_TYPES}"
            )
        if self.sensory and not self.acquisition_method:
            raise ProfileError(
                f"sensory attribute {self.name!r} needs an acquisition_method"
            )

    @property
    def python_type(self) -> type:
        """The Python type used for values of this attribute."""
        return {"float": float, "int": int, "str": str, "bool": bool}[self.type_name]


@dataclass
class DeviceCatalog:
    """The catalog profile of one device type (e.g. ``sensor``, ``camera``).

    The catalog doubles as the schema of the device type's virtual
    relational table: its attribute list is the table's column list.
    """

    device_type: str
    model: str = ""
    description: str = ""
    attributes: List[AttributeSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.device_type.isidentifier():
            raise ProfileError(
                f"device type {self.device_type!r} is not an identifier"
            )
        # Name -> spec; ``attributes`` is not mutated after construction.
        self._by_name: Dict[str, AttributeSpec] = {}
        for attr in self.attributes:
            if attr.name in self._by_name:
                raise ProfileError(
                    f"duplicate attribute {attr.name!r} in catalog "
                    f"{self.device_type!r}"
                )
            self._by_name[attr.name] = attr

    def attribute(self, name: str) -> AttributeSpec:
        """Look up an attribute by name, raising on unknown names."""
        attr = self._by_name.get(name)
        if attr is None:
            raise ProfileError(
                f"device type {self.device_type!r} has no attribute {name!r}"
            )
        return attr

    def has_attribute(self, name: str) -> bool:
        """Whether the catalog defines ``name``."""
        return name in self._by_name

    @property
    def sensory_attributes(self) -> List[AttributeSpec]:
        """Attributes acquired live from the device."""
        return [attr for attr in self.attributes if attr.sensory]

    @property
    def non_sensory_attributes(self) -> List[AttributeSpec]:
        """Attributes served from static data."""
        return [attr for attr in self.attributes if not attr.sensory]
