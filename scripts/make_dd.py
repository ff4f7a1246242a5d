#!/usr/bin/env python3
"""Regenerate the bundled domain-description sources under src/semkit/data/dd/.

The restricted-Python DDs must declare exactly the names a program can reach in
the bundled world (``semkit.pymr.binding_names``, read off the classes the
sandbox exposes); this script asserts that, in both directions, before writing
anything.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semkit.execute import load_environment
from semkit.prompts import dd_names
from semkit.pymr import binding_names
from semkit.resources import DATA_DIR, environment_path


def cls(name, doc=None):
    d = {"kind": "class", "name": name}
    if doc:
        d["doc"] = doc
    return d


def attr(parent, name, type_=None, doc=None):
    d = {"kind": "attribute", "parent": parent, "name": name}
    if type_:
        d["type"] = type_
    if doc:
        d["doc"] = doc
    return d


def method(parent, name, params=(), returns=None, doc=None):
    d = {"kind": "method", "parent": parent, "name": name,
         "params": [{"name": n, "type": t} for n, t in params]}
    if returns:
        d["returns"] = returns
    if doc:
        d["doc"] = doc
    return d


def const(name, type_=None):
    d = {"kind": "constant", "name": name}
    if type_:
        d["type"] = type_
    return d


def enum(parent, name):
    return {"kind": "enum-member", "parent": parent, "name": name}


def op(name, signature=None, doc=None):
    d = {"kind": "operator", "name": name}
    if signature:
        d["signature"] = signature
    if doc:
        d["doc"] = doc
    return d


GEO_PYMR = [
    cls("State"),
    attr("State", "name", "str"), attr("State", "abbreviation", "str"),
    attr("State", "capital", "City"), attr("State", "area", "float"),
    attr("State", "population", "int"), attr("State", "density", "float"),
    attr("State", "high_point", "Place"), attr("State", "low_point", "Place"),
    attr("State", "next_to", "List[State]"), attr("State", "rivers", "List[River]"),
    attr("State", "cities", "List[City]"), attr("State", "size", "float"),
    cls("City"),
    attr("City", "name", "str"), attr("City", "state", "State"),
    attr("City", "population", "int"), attr("City", "is_major", "bool"),
    attr("City", "size", "int"),
    cls("River"),
    attr("River", "name", "str"), attr("River", "length", "float"),
    attr("River", "traverses", "List[State]"), attr("River", "is_major", "bool"),
    attr("River", "size", "float"),
    cls("Place"),
    attr("Place", "name", "str"), attr("Place", "elevation", "float"),
    attr("Place", "state", "State"), attr("Place", "kind", "str"),
    cls("Country"),
    attr("Country", "name", "str"), attr("Country", "area", "float"),
    attr("Country", "population", "int"), attr("Country", "size", "float"),
    cls("GeoModel"),
    attr("GeoModel", "states", "List[State]"), attr("GeoModel", "cities", "List[City]"),
    attr("GeoModel", "rivers", "List[River]"), attr("GeoModel", "places", "List[Place]"),
    attr("GeoModel", "country", "Country"),
    method("GeoModel", "find_state", [("name", "str")], "State"),
    method("GeoModel", "find_city", [("name", "str")], "City"),
    method("GeoModel", "find_river", [("name", "str")], "River"),
    method("GeoModel", "find_place", [("name", "str")], "Place"),
    const("geo_model", "GeoModel"),
]

SOCIAL_PYMR = [
    cls("EducationRecord"),
    attr("EducationRecord", "institution", "str"),
    attr("EducationRecord", "start_date", "int"), attr("EducationRecord", "end_date", "int"),
    cls("EmploymentRecord"),
    attr("EmploymentRecord", "employer", "str"), attr("EmploymentRecord", "job_title", "str"),
    attr("EmploymentRecord", "start_date", "int"), attr("EmploymentRecord", "end_date", "int"),
    cls("Person"),
    attr("Person", "id", "str"), attr("Person", "name", "str"),
    attr("Person", "gender", "str"), attr("Person", "birthdate", "int"),
    attr("Person", "birthplace", "str"), attr("Person", "height", "int"),
    attr("Person", "relationship_status", "str"), attr("Person", "is_student", "bool"),
    attr("Person", "friends", "List[Person]"),
    attr("Person", "education", "List[EducationRecord]"),
    attr("Person", "employment", "List[EmploymentRecord]"),
    cls("Gender"),
    enum("Gender", "male"), enum("Gender", "female"),
    cls("SocialApi"),
    attr("SocialApi", "people", "List[Person]"),
    method("SocialApi", "find_person_by_id", [("person_id", "str")], "Person"),
    const("api", "SocialApi"),
]

CAL_PYMR = [
    cls("Person"),
    attr("Person", "name", "str"),
    method("Person", "find_manager_of", [], "Person"),
    method("Person", "find_team_of", [], "List[Person]"),
    cls("DateTimeClause"),
    method("DateTimeClause", "get_next_dow", [("day_of_week", "str")], "DateTimeClause"),
    method("DateTimeClause", "date_by_mdy",
           [("month", "int"), ("day", "int"), ("year", "int")], "DateTimeClause"),
    method("DateTimeClause", "time_by_hm", [("hour", "int"), ("am_or_pm", "str")],
           "DateTimeClause"),
    cls("DateTimeValues"),
    enum("DateTimeValues", "Today"), enum("DateTimeValues", "Tomorrow"),
    cls("Event"),
    attr("Event", "subject", "str"), attr("Event", "starts_at", "List[DateTimeClause]"),
    attr("Event", "ends_at", "List[DateTimeClause]"), attr("Event", "location", "str"),
    attr("Event", "attendees", "List[Person]"),
    attr("Event", "attendees_to_avoid", "List[Person]"),
    attr("Event", "duration", "int"),
    cls("CalendarApi"),
    method("CalendarApi", "find_person", [("name", "str")], "Person"),
    method("CalendarApi", "get_current_user", [], "Person"),
    method("CalendarApi", "add_event", [("event", "Event")]),
    const("api", "CalendarApi"),
]

GEO_FUNQL = [
    op("answer", "answer(x)", "wraps the result to output"),
    op("all", "all", "every entity"),
    op("state", "state(entities)", "keep the states"),
    op("city", "city(entities)", "keep the cities"),
    op("river", "river(entities)", "keep the rivers"),
    op("place", "place(entities)", "keep the places"),
    op("mountain", "mountain(entities)", "keep places that are mountains"),
    op("lake", "lake(entities)", "keep places that are lakes"),
    op("capital", "capital(entities)", "keep capital cities"),
    op("major", "major(entities)", "keep major cities and major rivers"),
    op("stateid", "stateid('name')", "the named state"),
    op("cityid", "cityid('name', 'st')", "the named city, '_' matches any state"),
    op("riverid", "riverid('name')", "the named river"),
    op("placeid", "placeid('name')", "the named place"),
    op("countryid", "countryid('usa')", "the country"),
    op("loc_1", "loc_1(x)", "where x is located"),
    op("loc_2", "loc_2(x)", "everything located in x"),
    op("next_to_1", "next_to_1(x)", "states that x borders"),
    op("next_to_2", "next_to_2(x)", "states bordering x"),
    op("traverse_1", "traverse_1(rivers)", "states the rivers run through"),
    op("traverse_2", "traverse_2(states)", "rivers running through the states"),
    op("high_point_1", "high_point_1(states)", "their highest points"),
    op("high_point_2", "high_point_2(places)", "states whose high point is one of the places"),
    op("low_point_1", "low_point_1(states)", "their lowest points"),
    op("low_point_2", "low_point_2(places)", "states whose low point is one of the places"),
    op("area_1", "area_1(x)", "area in square kilometers"),
    op("population_1", "population_1(x)", "number of people"),
    op("density_1", "density_1(states)", "population density"),
    op("elevation_1", "elevation_1(places)", "elevation in meters"),
    op("len", "len(rivers)", "length in kilometers"),
    op("size", "size(x)", "area of a state, population of a city, length of a river"),
    op("count", "count(x)", "how many"),
    op("sum", "sum(numbers)", "total"),
    op("largest", "largest(entities)", "the one with the greatest size"),
    op("smallest", "smallest(entities)", "the one with the least size"),
    op("highest", "highest(places)", "the place with the greatest elevation"),
    op("lowest", "lowest(places)", "the place with the least elevation"),
    op("longest", "longest(rivers)", "the longest river"),
    op("shortest", "shortest(rivers)", "the shortest river"),
    op("largest_one", "largest_one(area_1(x) | population_1(x) | density_1(x))",
       "the entity with the greatest attribute value"),
    op("smallest_one", "smallest_one(area_1(x) | population_1(x) | density_1(x))",
       "the entity with the least attribute value"),
    op("most", "most(P(rel(x)))", "the pivot related to the most members of x"),
    op("fewest", "fewest(P(rel(x)))", "the pivot related to the fewest members of x"),
    op("exclude", "exclude(a, b)", "members of a that are not in b"),
    op("intersection", "intersection(a, b)", "members of both a and b"),
]

_SOCIAL_SHARED = [
    op("listValue", "(listValue set)", "output the set"),
    op("filter", "(filter set prop op value)", "keep members whose property satisfies op value"),
    op("getProperty", "(getProperty set prop)", "values of the property; !prop reverses it"),
    op("singleton", "(singleton x)", "the set containing x"),
    op("size", "(size set)", "how many members"),
    op("concat", "(concat a b)", "members of a followed by members of b"),
    op("superlative", "(superlative set argmax|argmin prop)",
       "members with the greatest/least property value"),
    op("countSuperlative", "(countSuperlative set argmax|argmin prop)",
       "members with the most/fewest property values"),
    op("countComparative", "(countComparative set prop op n)",
       "members with a property-value count satisfying op n"),
    op("aggregate", "(aggregate sum|avg|min|max set)", "reduce a number set"),
    op("!type", "(getProperty en.person !type)", "all people"),
    op("argmax"), op("argmin"),
    op("=", "=", "equals"), op("!=", "!=", "differs"),
    op("<", "<", "less than"), op(">", ">", "greater than"),
    op("<=", "<=", "at most"), op(">=", ">=", "at least"),
    op("gender"), op("birthdate"), op("birthplace"), op("height"),
    op("relationship_status"), op("friends"), op("institution"),
    op("education_start_date"), op("education_end_date"),
    op("employer"), op("job_title"),
    op("employment_start_date"), op("employment_end_date"),
]

SOCIAL_LDCS_SIMPLE = _SOCIAL_SHARED

SOCIAL_LDCS = [
    op("call", "(call SW.op args...)", "apply a namespaced operator"),
    op("string", "(string token)", "a string literal"),
    op("date", "(date year -1 -1)", "a year-granularity date"),
    op("number", "(number n)", "a number literal"),
    *_SOCIAL_SHARED,
]

CAL_DFS = [
    op("CreateEvent", "CreateEvent( constraint )", "create one calendar event"),
    op("AND", "AND( constraint , ... )", "combine constraints"),
    op("at_location", "at_location( words )", "event location"),
    op("has_subject", "has_subject( words )", "event subject"),
    op("starts_at", "starts_at( clause , ... )", "date/time the event starts"),
    op("ends_at", "ends_at( clause )", "time the event ends"),
    op("has_duration", "has_duration( minutes )", "event length in minutes"),
    op("with_attendee", "with_attendee( person )", "invite a person"),
    op("avoid_attendee", "avoid_attendee( person )", "exclude a person"),
    op("FindManager", "FindManager( person )", "the person's manager"),
    op("FindTeamOf", "FindTeamOf( person )", "everyone sharing the person's manager"),
    op("CurrentUser", "CurrentUser()", "the requesting user"),
    op("NextDOW", "NextDOW( MONDAY..SUNDAY )", "the next such weekday"),
    op("TODAY", "TODAY", "the anchor date"),
    op("TOMORROW", "TOMORROW", "the day after the anchor date"),
    op("date_by_mdy", "date_by_mdy( month , day [, year] )", "a calendar date"),
    op("time_by_hm", "time_by_hm( hour , am|pm )", "a clock time"),
]

FILES = {
    "geo_pymr.json": GEO_PYMR,
    "geo_funql.json": GEO_FUNQL,
    "social_pymr.json": SOCIAL_PYMR,
    "social_ldcs.json": SOCIAL_LDCS,
    "social_ldcs_simple.json": SOCIAL_LDCS_SIMPLE,
    "calendar_pymr.json": CAL_PYMR,
    "calendar_dataflow_simple.json": CAL_DFS,
}

PROMPT_TEMPLATE = """Below is a description of the domain:
[DD]

query: [query-i]
solution: [solution-i]

query: [query-test]
solution:"""


def main() -> None:
    for environment, declarations in (("geo", GEO_PYMR), ("social", SOCIAL_PYMR),
                                      ("calendar", CAL_PYMR)):
        declared = dd_names(declarations)
        expected = binding_names(
            environment, load_environment(environment, environment_path(environment)))
        assert declared == expected, (
            environment, sorted(declared - expected), sorted(expected - declared))
    dd_dir = DATA_DIR / "dd"
    dd_dir.mkdir(parents=True, exist_ok=True)
    for filename, declarations in FILES.items():
        (dd_dir / filename).write_text(
            json.dumps(declarations, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    (DATA_DIR / "prompt_template_v1.txt").write_text(PROMPT_TEMPLATE, encoding="utf-8")
    print("wrote", len(FILES), "DD sources and the prompt template")


if __name__ == "__main__":
    main()
