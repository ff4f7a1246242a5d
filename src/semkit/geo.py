"""Geography environment: states, cities, rivers and places.

The model is loaded from a JSONL file with one entity per line, discriminated
by ``"kind"``::

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
wrong type, is a ``DataFormatError`` naming the line and the field.

A city is "major" above ``MAJOR_CITY_MIN_POPULATION`` (the classical 150,000
convention); a river is "major" above ``MAJOR_RIVER_MIN_LENGTH_KM``.  Both are
module constants so alternative conventions can be configured.

``size`` is the type-dependent magnitude used by superlatives: area for states
and the country, population for cities, length for rivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DataFormatError
from .readonly import ReadOnlyList
from .resources import read_jsonl

MAJOR_CITY_MIN_POPULATION = 150_000
MAJOR_RIVER_MIN_LENGTH_KM = 750.0
DENSITY_RELATIVE_TOLERANCE = 0.01


@dataclass(eq=False)
class City:
    name: str
    population: int
    state: "State" = None  # resolved by the loader

    @property
    def is_major(self) -> bool:
        return self.population > MAJOR_CITY_MIN_POPULATION

    @property
    def size(self) -> int:
        return self.population

    def __repr__(self):
        return f"<city {self.name}, {self.state.abbreviation}>"


@dataclass(eq=False)
class Place:
    name: str
    elevation: float
    kind: str
    state: "State" = None

    def __repr__(self):
        return f"<place {self.name}>"


@dataclass(eq=False)
class River:
    name: str
    length: float
    traverses: list["State"] = field(default_factory=list)

    @property
    def is_major(self) -> bool:
        return self.length > MAJOR_RIVER_MIN_LENGTH_KM

    @property
    def size(self) -> float:
        return self.length

    def __repr__(self):
        return f"<river {self.name}>"


@dataclass(eq=False)
class State:
    name: str
    abbreviation: str
    area: float
    population: int
    density: float
    capital: City = None
    high_point: Place = None
    low_point: Place = None
    next_to: list["State"] = field(default_factory=list)
    rivers: list[River] = field(default_factory=list)
    cities: list[City] = field(default_factory=list)

    @property
    def size(self) -> float:
        return self.area

    def __repr__(self):
        return f"<state {self.name}>"


@dataclass(eq=False)
class Country:
    name: str
    area: float
    population: int

    @property
    def size(self) -> float:
        return self.area

    def __repr__(self):
        return f"<country {self.name}>"


@dataclass(eq=False)
class GeoModel:
    states: list[State]
    cities: list[City]
    rivers: list[River]
    places: list[Place]
    country: Country

    def find_state(self, name: str) -> State | None:
        return _find_unique(self.states, name)

    def find_city(self, name: str):
        """Single city, or a list when several share the name, or None."""
        matches = [c for c in self.cities if c.name == name.lower()]
        if not matches:
            return None
        return matches[0] if len(matches) == 1 else matches

    def find_river(self, name: str) -> River | None:
        return _find_unique(self.rivers, name)

    def find_place(self, name: str) -> Place | None:
        return _find_unique(self.places, name)


def _find_unique(items, name: str):
    name = name.lower()
    for item in items:
        if item.name == name:
            return item
    return None


def find_entity(model: GeoModel, kind: str, name: str):
    """Case-insensitive exact-name lookup; None when absent.

    Cities may be ambiguous (several states can share a city name); in that
    case all matches are returned and callers disambiguate by state.
    """
    if kind == "state":
        return model.find_state(name)
    if kind == "city":
        return model.find_city(name)
    if kind == "river":
        return model.find_river(name)
    if kind == "place":
        return model.find_place(name)
    raise ValueError(f"unknown entity kind {kind!r}")


def load_geobase(path) -> GeoModel:
    """Load and fully validate a geography model (see module docstring)."""
    raw = {"state": [], "city": [], "river": [], "place": [], "country": []}
    for lineno, record in read_jsonl(path):
        if not isinstance(record, dict):
            raise DataFormatError(f"{path}: line {lineno}: expected a JSON object")
        kind = record.get("kind")
        if kind not in raw:
            raise DataFormatError(f"{path}: line {lineno}: unknown kind {kind!r}")
        record["_lineno"] = lineno
        raw[kind].append(record)

    states: dict[str, State] = {}
    by_abbr: dict[str, State] = {}
    for rec in raw["state"]:
        state = State(
            name=_text(rec, "name", path).lower(),
            abbreviation=_text(rec, "abbreviation", path).lower(),
            area=_number(rec, "area", path),
            population=_number(rec, "population", path, int),
            density=_number(rec, "density", path),
        )
        if state.name in states:
            raise DataFormatError(f"{path}: duplicate state {state.name!r}")
        states[state.name] = state
        by_abbr[state.abbreviation] = state

    cities: list[City] = []
    for rec in raw["city"]:
        abbr = _text(rec, "state", path).lower()
        if abbr not in by_abbr:
            raise DataFormatError(f"{path}: city {rec.get('name')!r} references unknown state {abbr!r}")
        city = City(name=_text(rec, "name", path).lower(),
                    population=_number(rec, "population", path, int))
        city.state = by_abbr[abbr]
        city.state.cities.append(city)
        cities.append(city)

    places: list[Place] = []
    for rec in raw["place"]:
        abbr = _text(rec, "state", path).lower()
        if abbr not in by_abbr:
            raise DataFormatError(f"{path}: place {rec.get('name')!r} references unknown state {abbr!r}")
        place = Place(
            name=_text(rec, "name", path).lower(),
            elevation=_number(rec, "elevation", path),
            kind=_req(rec, "place_kind", path),
        )
        if place.kind not in ("mountain", "lake", "point", "other"):
            raise DataFormatError(f"{path}: place {place.name!r} has bad kind {place.kind!r}")
        place.state = by_abbr[abbr]
        places.append(place)

    rivers: list[River] = []
    for rec in raw["river"]:
        river = River(name=_text(rec, "name", path).lower(), length=_number(rec, "length", path))
        traverses = _names(rec, "traverses", path)
        if not traverses:
            raise DataFormatError(f"{path}: river {river.name!r} traverses no states")
        if river.length <= 0:
            raise DataFormatError(f"{path}: river {river.name!r} has non-positive length")
        for state_name in traverses:
            if state_name.lower() not in states:
                raise DataFormatError(
                    f"{path}: river {river.name!r} references unknown state {state_name!r}"
                )
            state = states[state_name.lower()]
            river.traverses.append(state)
            state.rivers.append(river)
        rivers.append(river)

    if len(raw["country"]) != 1:
        raise DataFormatError(f"{path}: expected exactly one country record")
    crec = raw["country"][0]
    country = Country(
        name=_text(crec, "name", path).lower(),
        area=_number(crec, "area", path),
        population=_number(crec, "population", path, int),
    )

    # second pass: state-level references
    for rec in raw["state"]:
        state = states[rec["name"].lower()]
        capital_name = _text(rec, "capital", path)
        capital = [c for c in state.cities if c.name == capital_name.lower()]
        if len(capital) != 1:
            raise DataFormatError(
                f"{path}: state {state.name!r} needs exactly one capital city "
                f"named {capital_name!r} within it, found {len(capital)}"
            )
        state.capital = capital[0]
        state.high_point = _state_place(path, places, state, rec, "high_point")
        state.low_point = _state_place(path, places, state, rec, "low_point")
        for neighbor in _names(rec, "next_to", path):
            if neighbor.lower() not in states:
                raise DataFormatError(f"{path}: state {state.name!r} borders unknown {neighbor!r}")
            state.next_to.append(states[neighbor.lower()])

    for state in states.values():
        state.next_to = ReadOnlyList(state.next_to)
        state.rivers = ReadOnlyList(state.rivers)
        state.cities = ReadOnlyList(state.cities)
    for river in rivers:
        river.traverses = ReadOnlyList(river.traverses)
    model = GeoModel(states=ReadOnlyList(states.values()), cities=ReadOnlyList(cities),
                     rivers=ReadOnlyList(rivers), places=ReadOnlyList(places), country=country)
    _validate(model, path)
    return model


def _state_place(path, places, state, rec, key) -> Place:
    name = _text(rec, key, path).lower()
    matches = [p for p in places if p.name == name and p.state is state]
    if len(matches) != 1:
        raise DataFormatError(f"{path}: state {state.name!r}: no place {name!r} in that state")
    return matches[0]


def _req(record: dict, key: str, path):
    if key not in record:
        raise DataFormatError(f"{path}: line {record.get('_lineno', '?')}: missing field {key!r}")
    return record[key]


def _text(record: dict, key: str, path) -> str:
    value = _req(record, key, path)
    if not isinstance(value, str):
        raise DataFormatError(f"{path}: line {record.get('_lineno', '?')}: field {key!r} "
                              f"is not a string: {value!r}")
    return value


def _names(record: dict, key: str, path) -> list[str]:
    value = _req(record, key, path)
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise DataFormatError(f"{path}: line {record.get('_lineno', '?')}: field {key!r} "
                              f"is not a list of strings: {value!r}")
    return value


def _number(record: dict, key: str, path, convert=float):
    value = _req(record, key, path)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise DataFormatError(f"{path}: line {record.get('_lineno', '?')}: field {key!r} "
                              f"is not a number: {value!r}") from None


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
