"""The zoned neutral-atom architecture.

The spatial model follows Sec. IV-A of the paper: space is discretised into
*interaction sites* arranged on a grid with ``Xmax + 1`` columns and
``Ymax + 1`` rows.  Each interaction site has one static SLM trap at its
centre (offset ``(0, 0)``) and potential AOD traps at horizontal/vertical
offsets up to ``Hmax`` / ``Vmax``.  Mobile qubits are carried by ``Cmax + 1``
AOD columns and ``Rmax + 1`` AOD rows whose relative order must be preserved.
Rows are grouped into zones; CZ gates can only happen inside the entangling
zone, and qubits parked in storage zones are shielded from the Rydberg beam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.arch.operations import DEFAULT_OPERATION_PARAMETERS, OperationParameters
from repro.arch.zones import Zone, ZoneKind


@dataclass(frozen=True, order=True)
class Position:
    """A discrete trap position: interaction site (x, y) plus offsets (h, v)."""

    x: int
    y: int
    h: int = 0
    v: int = 0

    @property
    def is_site_center(self) -> bool:
        """True when the position is the SLM trap at the site centre."""
        return self.h == 0 and self.v == 0


@dataclass(frozen=True)
class ZonedArchitecture:
    """A zoned neutral-atom architecture instance.

    Parameters use the paper's notation: ``x_max``/``y_max`` are the maximum
    site coordinates (inclusive), ``h_max``/``v_max`` the maximum AOD offsets
    within a site, ``c_max``/``r_max`` the maximum AOD column/row indices,
    ``interaction_radius`` the offset distance below which two qubits at the
    same site interact during a Rydberg beam (``r`` in constraint C3).
    """

    name: str
    x_max: int
    y_max: int
    h_max: int
    v_max: int
    c_max: int
    r_max: int
    interaction_radius: int
    zones: tuple[Zone, ...]
    parameters: OperationParameters = field(default=DEFAULT_OPERATION_PARAMETERS)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.x_max < 0 or self.y_max < 0:
            raise ValueError("architecture extents must be non-negative")
        if self.h_max < 0 or self.v_max < 0:
            raise ValueError("AOD offsets must be non-negative")
        if self.c_max < 0 or self.r_max < 0:
            raise ValueError("AOD line counts must be non-negative")
        if self.interaction_radius <= 0:
            raise ValueError("interaction radius must be positive")
        if not self.zones:
            raise ValueError("an architecture needs at least one zone")
        covered_rows: set[int] = set()
        for zone in self.zones:
            if zone.y_max > self.y_max:
                raise ValueError(f"zone {zone} exceeds the architecture rows")
            overlap = covered_rows.intersection(range(zone.y_min, zone.y_max + 1))
            if overlap:
                raise ValueError(f"zones overlap on rows {sorted(overlap)}")
            covered_rows.update(range(zone.y_min, zone.y_max + 1))
        if covered_rows != set(range(self.y_max + 1)):
            missing = sorted(set(range(self.y_max + 1)) - covered_rows)
            raise ValueError(f"rows {missing} are not assigned to any zone")
        if not any(zone.kind is ZoneKind.ENTANGLING for zone in self.zones):
            raise ValueError("an architecture needs an entangling zone")

    # ------------------------------------------------------------------ #
    # Zone queries
    # ------------------------------------------------------------------ #
    @property
    def entangling_zone(self) -> Zone:
        """The (single) entangling zone."""
        entangling = [z for z in self.zones if z.kind is ZoneKind.ENTANGLING]
        return entangling[0]

    @property
    def storage_zones(self) -> tuple[Zone, ...]:
        """All storage zones (possibly empty)."""
        return tuple(z for z in self.zones if z.kind is ZoneKind.STORAGE)

    @property
    def has_storage(self) -> bool:
        """True when at least one storage zone exists."""
        return bool(self.storage_zones)

    @property
    def entangling_rows(self) -> tuple[int, int]:
        """(Emin, Emax): the inclusive row bounds of the entangling zone."""
        zone = self.entangling_zone
        return (zone.y_min, zone.y_max)

    def zone_of_row(self, y: int) -> Zone:
        """The zone containing row *y*."""
        for zone in self.zones:
            if zone.contains_row(y):
                return zone
        raise ValueError(f"row {y} outside the architecture")

    def in_entangling_zone(self, y: int) -> bool:
        """True when row *y* belongs to the entangling zone."""
        e_min, e_max = self.entangling_rows
        return e_min <= y <= e_max

    def storage_rows(self) -> list[int]:
        """All rows belonging to storage zones (sorted)."""
        rows: list[int] = []
        for zone in self.storage_zones:
            rows.extend(range(zone.y_min, zone.y_max + 1))
        return sorted(rows)

    # ------------------------------------------------------------------ #
    # Capacity queries
    # ------------------------------------------------------------------ #
    @property
    def num_sites(self) -> int:
        """Number of interaction sites."""
        return (self.x_max + 1) * (self.y_max + 1)

    @property
    def num_aod_columns(self) -> int:
        """Number of AOD columns available."""
        return self.c_max + 1

    @property
    def num_aod_rows(self) -> int:
        """Number of AOD rows available."""
        return self.r_max + 1

    def offsets(self) -> list[tuple[int, int]]:
        """All (h, v) offsets available within an interaction site."""
        return [
            (h, v)
            for h in range(-self.h_max, self.h_max + 1)
            for v in range(-self.v_max, self.v_max + 1)
        ]

    def contains(self, position: Position) -> bool:
        """True when *position* lies within the architecture bounds."""
        return (
            0 <= position.x <= self.x_max
            and 0 <= position.y <= self.y_max
            and abs(position.h) <= self.h_max
            and abs(position.v) <= self.v_max
        )

    def sites(self) -> Iterable[tuple[int, int]]:
        """Iterate over all interaction-site coordinates."""
        for y in range(self.y_max + 1):
            for x in range(self.x_max + 1):
                yield (x, y)

    def sites_in_zone(self, kind: ZoneKind) -> list[tuple[int, int]]:
        """All site coordinates lying in zones of the given kind."""
        rows = {
            y
            for zone in self.zones
            if zone.kind is kind
            for y in range(zone.y_min, zone.y_max + 1)
        }
        return [(x, y) for (x, y) in self.sites() if y in rows]

    # ------------------------------------------------------------------ #
    # Physical geometry
    # ------------------------------------------------------------------ #
    def physical_coordinates_um(self, position: Position) -> tuple[float, float]:
        """Map a discrete position to physical (x, y) coordinates in µm.

        Interaction sites are ``site_spacing_um`` apart, traps within a site
        ``intra_site_spacing_um`` apart, and crossing a zone boundary adds
        enough extra space that sites in different zones are at least
        ``zone_separation_um`` apart.
        """
        params = self.parameters
        x_um = position.x * params.site_spacing_um + position.h * params.intra_site_spacing_um
        zone_gap_extra = max(params.zone_separation_um - params.site_spacing_um, 0.0)
        boundaries_below = 0
        for zone in self.zones:
            # A boundary exists above the zone if the zone does not end at
            # the top row; count boundaries strictly below the position row.
            if zone.y_max < position.y:
                boundaries_below += 1
        y_um = (
            position.y * params.site_spacing_um
            + boundaries_below * zone_gap_extra
            + position.v * params.intra_site_spacing_um
        )
        return (x_um, y_um)

    def distance_um(self, source: Position, target: Position) -> float:
        """Euclidean distance in µm between two discrete positions."""
        sx, sy = self.physical_coordinates_um(source)
        tx, ty = self.physical_coordinates_um(target)
        return float(((sx - tx) ** 2 + (sy - ty) ** 2) ** 0.5)

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Human-readable multi-line description (used by the CLI)."""
        lines = [
            f"architecture {self.name!r}:",
            f"  sites: {self.x_max + 1} x {self.y_max + 1}",
            f"  AOD: {self.num_aod_columns} columns, {self.num_aod_rows} rows",
            f"  offsets: |h| <= {self.h_max}, |v| <= {self.v_max}",
            f"  interaction radius: {self.interaction_radius}",
        ]
        for zone in self.zones:
            lines.append(f"  zone: {zone}")
        return "\n".join(lines)
