"""Geography environment: states, cities, rivers and places.

The model is loaded from a JSONL file with one entity per line, discriminated
by ``"kind"``, its fields declared in ``_SCHEMAS``::

    {"kind": "state", "name": str, "abbreviation": str, "capital": city name,
     "area": km2, "population": int, "density": people per km2,
     "high_point": place name, "low_point": place name, "next_to": [state name, ...]}
    {"kind": "city", "name": str, "state": state abbreviation, "population": int}
    {"kind": "river", "name": str, "length": km, "traverses": [state name, ...]}
    {"kind": "place", "name": str, "state": state abbreviation, "elevation": m,
     "place_kind": "mountain" | "lake" | "point" | "other"}
    {"kind": "country", "name": "usa", "area": km2, "population": int}

All names are lowercase; references are by lowercase name (cities and places
additionally by their state's abbreviation).  Units are normalized on ingest:
area km2, length km, elevation m.  The loader verifies every cross-reference
and the model invariants (symmetric borders, density within 1% of
population/area, one capital per state, each state's high point having the
maximum elevation among that state's places).  A missing field, or one of the
wrong kind, is a ``DataFormatError`` naming the line and the field.

A city is "major" above ``MAJOR_CITY_MIN_POPULATION`` (the classical 150,000
convention); a river is "major" above ``MAJOR_RIVER_MIN_LENGTH_KM``.  Both are
module constants so alternative conventions can be configured.

``size`` is the type-dependent magnitude used by superlatives: area for states
and the country, population for cities, length for rivers.
"""

from __future__ import annotations

from .errors import DataFormatError, MrExecError
from .outcomes import denotation_of
from .readonly import ReadOnlyList
from .resources import INTEGER, NUMBER, STRING, STRINGS, Schema, read_jsonl

MAJOR_CITY_MIN_POPULATION = 150_000
MAJOR_RIVER_MIN_LENGTH_KM = 750.0
DENSITY_RELATIVE_TOLERANCE = 0.01


class City:
    __slots__ = ("name", "population", "state")

    def __init__(self, name: str, population: int, state: State = None):
        self.name, self.population = name, population
        self.state = state  # resolved by the loader

    @property
    def is_major(self) -> bool:
        return self.population > MAJOR_CITY_MIN_POPULATION

    @property
    def size(self) -> int:
        return self.population

    def __repr__(self):
        return f"<city {self.name}, {self.state.abbreviation}>"


class Place:
    __slots__ = ("name", "elevation", "kind", "state")

    def __init__(self, name: str, elevation: float, kind: str, state: State = None):
        self.name, self.elevation, self.kind, self.state = name, elevation, kind, state

    def __repr__(self):
        return f"<place {self.name}>"


class River:
    __slots__ = ("name", "length", "traverses")

    def __init__(self, name: str, length: float):
        self.name, self.length = name, length
        self.traverses = []  # the loader fills it

    @property
    def is_major(self) -> bool:
        return self.length > MAJOR_RIVER_MIN_LENGTH_KM

    @property
    def size(self) -> float:
        return self.length

    def __repr__(self):
        return f"<river {self.name}>"


class State:
    __slots__ = ("name", "abbreviation", "area", "population", "density", "capital",
                 "high_point", "low_point", "next_to", "rivers", "cities")

    def __init__(self, name: str, abbreviation: str, area: float, population: int,
                 density: float):
        self.name, self.abbreviation, self.area = name, abbreviation, area
        self.population, self.density = population, density
        self.capital = self.high_point = self.low_point = None  # references the loader fills
        self.next_to, self.rivers, self.cities = [], [], []

    @property
    def size(self) -> float:
        return self.area

    def __repr__(self):
        return f"<state {self.name}>"


class Country:
    __slots__ = ("name", "area", "population")

    def __init__(self, name: str, area: float, population: int):
        self.name, self.area, self.population = name, area, population

    @property
    def size(self) -> float:
        return self.area

    def __repr__(self):
        return f"<country {self.name}>"


class GeoModel:  # no __repr__: shown by its class name, not as the whole world
    __slots__ = ("states", "cities", "rivers", "places", "country")

    def __init__(self, states: list[State], cities: list[City], rivers: list[River],
                 places: list[Place], country: Country):
        self.states, self.cities, self.rivers = states, cities, rivers
        self.places, self.country = places, country

    def find_state(self, name: str) -> State | None:
        return next(iter(_named(self.states, name)), None)

    def find_city(self, name: str):
        """Single city, or a list when several share the name, or None."""
        matches = _named(self.cities, name)
        if not matches:
            return None
        return matches[0] if len(matches) == 1 else matches

    def find_river(self, name: str) -> River | None:
        return next(iter(_named(self.rivers, name)), None)

    def find_place(self, name: str) -> Place | None:
        return next(iter(_named(self.places, name)), None)


def _named(items, name: str) -> list:
    """The items called ``name``, in any case; a name that is not a string is a type-mismatch."""
    if not isinstance(name, str):
        raise MrExecError("type-mismatch", "a geo lookup expects a name string")
    name = name.lower()
    return [item for item in items if item.name == name]


# entity type -> its kind, the first half of an entity reference
ENTITY_KINDS = {State: "state", City: "city", River: "river", Place: "place", Country: "country"}


def entity_ref(entity) -> tuple[str, str]:
    """Canonical (kind, name) pair; cities are qualified by state abbreviation."""
    if isinstance(entity, City):
        return ("city", f"{entity.name}, {entity.state.abbreviation}")
    return (ENTITY_KINDS[type(entity)], entity.name)


_KIND = Schema(("kind", STRING))
_SCHEMAS = {
    "state": Schema(("name", STRING), ("abbreviation", STRING), ("area", NUMBER),
                    ("population", INTEGER), ("density", NUMBER), ("capital", STRING),
                    ("high_point", STRING), ("low_point", STRING), ("next_to", STRINGS)),
    "city": Schema(("name", STRING), ("state", STRING), ("population", INTEGER)),
    "place": Schema(("name", STRING), ("state", STRING), ("elevation", NUMBER),
                    ("place_kind", STRING)),
    "river": Schema(("name", STRING), ("length", NUMBER), ("traverses", STRINGS)),
    "country": Schema(("name", STRING), ("area", NUMBER), ("population", INTEGER)),
}


def load_geobase(path, data=None) -> GeoModel:
    """Load and fully validate a geography model (see module docstring) from the file at
    ``path``, or from its bytes ``data`` when given."""
    lines = {kind: [] for kind in _SCHEMAS}
    for lineno, record in read_jsonl(path, data):
        (kind,) = _KIND.read(record, path, lineno)
        if kind not in lines:
            raise DataFormatError(f"{path}: line {lineno}: unknown kind {kind!r}")
        lines[kind].append((lineno, record))
    raw = {kind: [schema.read(record, path, lineno) for lineno, record in lines[kind]]
           for kind, schema in _SCHEMAS.items()}

    states: dict[str, State] = {}
    by_abbr: dict[str, State] = {}
    references = []
    for name, abbreviation, area, population, density, *refs in raw["state"]:
        state = State(name=name.lower(), abbreviation=abbreviation.lower(), area=area,
                      population=population, density=density)
        if state.name in states:
            raise DataFormatError(f"{path}: duplicate state {state.name!r}")
        states[state.name] = state
        by_abbr[state.abbreviation] = state
        references.append((state, *refs))

    cities: list[City] = []
    for name, abbr, population in raw["city"]:
        state = by_abbr.get(abbr.lower())
        if state is None:
            raise DataFormatError(
                f"{path}: city {name!r} references unknown state {abbr.lower()!r}")
        city = City(name=name.lower(), population=population, state=state)
        state.cities.append(city)
        cities.append(city)

    places: list[Place] = []
    for name, abbr, elevation, kind in raw["place"]:
        state = by_abbr.get(abbr.lower())
        if state is None:
            raise DataFormatError(
                f"{path}: place {name!r} references unknown state {abbr.lower()!r}")
        place = Place(name=name.lower(), elevation=elevation, kind=kind, state=state)
        if place.kind not in ("mountain", "lake", "point", "other"):
            raise DataFormatError(f"{path}: place {place.name!r} has bad kind {place.kind!r}")
        places.append(place)

    rivers: list[River] = []
    for name, length, traverses in raw["river"]:
        river = River(name=name.lower(), length=length)
        if not traverses:
            raise DataFormatError(f"{path}: river {river.name!r} traverses no states")
        if river.length <= 0:
            raise DataFormatError(f"{path}: river {river.name!r} has non-positive length")
        for state_name in traverses:
            state = states.get(state_name.lower())
            if state is None:
                raise DataFormatError(
                    f"{path}: river {river.name!r} references unknown state {state_name!r}")
            river.traverses.append(state)
            state.rivers.append(river)
        river.traverses = ReadOnlyList(river.traverses)
        rivers.append(river)

    if len(raw["country"]) != 1:
        raise DataFormatError(f"{path}: expected exactly one country record")
    name, area, population = raw["country"][0]
    country = Country(name=name.lower(), area=area, population=population)

    # second pass: state-level references
    for state, capital_name, high_point, low_point, next_to in references:
        capital = [c for c in state.cities if c.name == capital_name.lower()]
        if len(capital) != 1:
            raise DataFormatError(
                f"{path}: state {state.name!r} needs exactly one capital city "
                f"named {capital_name!r} within it, found {len(capital)}")
        state.capital = capital[0]
        state.high_point = _state_place(path, places, state, high_point)
        state.low_point = _state_place(path, places, state, low_point)
        for neighbor in next_to:
            if neighbor.lower() not in states:
                raise DataFormatError(f"{path}: state {state.name!r} borders unknown {neighbor!r}")
            state.next_to.append(states[neighbor.lower()])
        state.next_to = ReadOnlyList(state.next_to)
        state.rivers = ReadOnlyList(state.rivers)
        state.cities = ReadOnlyList(state.cities)

    model = GeoModel(states=ReadOnlyList(states.values()), cities=ReadOnlyList(cities),
                     rivers=ReadOnlyList(rivers), places=ReadOnlyList(places), country=country)
    _validate(model, path)
    return model


def _state_place(path, places, state, name: str) -> Place:
    name = name.lower()
    matches = [p for p in places if p.name == name and p.state is state]
    if len(matches) != 1:
        raise DataFormatError(f"{path}: state {state.name!r}: no place {name!r} in that state")
    return matches[0]


def _validate(model: GeoModel, path) -> None:
    for state in model.states:
        if state.area > 0:
            implied = state.population / state.area
            if abs(state.density - implied) > DENSITY_RELATIVE_TOLERANCE * implied:
                raise DataFormatError(
                    f"{path}: state {state.name!r} density {state.density} is not within "
                    f"1% of population/area ({implied:.4f})"
                )
        for neighbor in state.next_to:
            if state not in neighbor.next_to:
                raise DataFormatError(
                    f"{path}: borders not symmetric: {state.name!r} -> {neighbor.name!r}"
                )
        own_places = [p for p in model.places if p.state is state]
        if own_places:
            top = max(p.elevation for p in own_places)
            if state.high_point.elevation != top:
                raise DataFormatError(
                    f"{path}: state {state.name!r} high point is not its highest place"
                )


# what a pymr program sees of a geography model; the fields are laid out in semkit.pymr
PYMR = (
    lambda model: {"geo_model": model},
    (GeoModel, *ENTITY_KINDS),
    (),
    lambda value, binding: denotation_of(value, tuple(ENTITY_KINDS), entity_ref),
)
