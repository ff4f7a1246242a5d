#!/usr/bin/env python3
"""Regenerate the bundled data files under src/semkit/data/.

Authoring lives here as Python literals; files on disk are derived.  The
script re-parses and cross-executes everything it writes and fails loudly on
any inconsistency, so the bundle can't drift from the interpreters.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from semkit import social
from semkit.corpus import Dataset, Example, save_dataset
from semkit.resources import DATA_DIR

# --- geography model ---------------------------------------------------------

STATES = [
    # name, abbr, capital, area km2, population, high point, low point, borders
    ("texas", "tx", "austin", 695662, 29145505, "guadalupe peak", "gulf of mexico",
     ["new mexico", "oklahoma", "arkansas", "louisiana"]),
    ("new mexico", "nm", "santa fe", 314917, 2117522, "wheeler peak", "wheeler peak",
     ["texas", "oklahoma", "colorado"]),
    ("oklahoma", "ok", "oklahoma city", 181037, 3959353, "black mesa", "black mesa",
     ["texas", "new mexico", "colorado", "kansas", "arkansas", "missouri"]),
    ("arkansas", "ar", "little rock", 137732, 3011524, "mount magazine", "mount magazine",
     ["texas", "oklahoma", "louisiana", "missouri"]),
    ("louisiana", "la", "baton rouge", 135659, 4657757, "driskill mountain", "driskill mountain",
     ["texas", "arkansas"]),
    ("colorado", "co", "denver", 269601, 5773714, "mount elbert", "arikaree river",
     ["new mexico", "oklahoma", "kansas"]),
    ("kansas", "ks", "topeka", 213100, 2937880, "mount sunflower", "mount sunflower",
     ["oklahoma", "colorado", "missouri"]),
    ("missouri", "mo", "jefferson city", 180540, 6154913, "taum sauk mountain",
     "taum sauk mountain", ["oklahoma", "arkansas", "kansas"]),
]

CITIES = [
    ("austin", "tx", 961855),
    ("houston", "tx", 2304580),
    ("dallas", "tx", 1304379),
    ("santa fe", "nm", 87505),
    ("oklahoma city", "ok", 681054),
    ("little rock", "ar", 202591),
    ("baton rouge", "la", 227470),
    ("denver", "co", 715522),
    ("topeka", "ks", 126587),
    ("jefferson city", "mo", 43228),
    ("springfield", "mo", 169176),
    ("springfield", "co", 1318),
]

RIVERS = [
    ("rio grande", 3057, ["colorado", "new mexico", "texas"]),
    ("arkansas", 2364, ["colorado", "kansas", "oklahoma", "arkansas"]),
    ("red", 2190, ["texas", "oklahoma", "louisiana"]),
    ("missouri", 3767, ["kansas", "missouri"]),
    ("neosho", 740, ["kansas", "oklahoma", "missouri"]),
]

PLACES = [
    ("guadalupe peak", "tx", 2667, "mountain"),
    ("gulf of mexico", "tx", 0, "point"),
    ("wheeler peak", "nm", 4011, "mountain"),
    ("black mesa", "ok", 1516, "mountain"),
    ("mount magazine", "ar", 839, "mountain"),
    ("driskill mountain", "la", 163, "mountain"),
    ("mount elbert", "co", 4401, "mountain"),
    ("arikaree river", "co", 1011, "point"),
    ("mount sunflower", "ks", 1231, "mountain"),
    ("taum sauk mountain", "mo", 540, "mountain"),
]


def write_geobase(path: Path) -> None:
    lines = []
    for name, abbr, capital, area, pop, high, low, borders in STATES:
        lines.append({
            "kind": "state", "name": name, "abbreviation": abbr, "capital": capital,
            "area": area, "population": pop, "density": round(pop / area, 4),
            "high_point": high, "low_point": low, "next_to": borders,
        })
    for name, abbr, pop in CITIES:
        lines.append({"kind": "city", "name": name, "state": abbr, "population": pop})
    for name, length, traverses in RIVERS:
        lines.append({"kind": "river", "name": name, "length": length, "traverses": traverses})
    for name, abbr, elevation, place_kind in PLACES:
        lines.append({"kind": "place", "name": name, "state": abbr,
                      "elevation": elevation, "place_kind": place_kind})
    lines.append({"kind": "country", "name": "usa",
                  "area": sum(s[3] for s in STATES),
                  "population": sum(s[4] for s in STATES)})
    path.write_text("\n".join(json.dumps(l, ensure_ascii=False) for l in lines) + "\n",
                    encoding="utf-8")


# --- GeoQuery examples (utterance, funql, pymr) --------------------------------

def _py(*lines: str) -> str:
    return "\n".join(("def answer():", *("    " + l for l in lines)))


GEOQUERY = [
    ("gq-01", "how many states are there ?",
     "answer(count(state(all)))",
     _py("return len(geo_model.states)")),
    ("gq-02", "what is the capital of texas ?",
     "answer(capital(loc_2(stateid('texas'))))",
     _py('return geo_model.find_state("texas").capital')),
    ("gq-03", "how high is the highest point in the largest state ?",
     "answer(elevation_1(highest(place(loc_2(largest(state(all)))))))",
     "def answer():\n    largest_state = max(geo_model.states, key=lambda x: x.size)\n"
     "    return largest_state.high_point.elevation"),
    ("gq-04", "which state has the most major cities ?",
     "answer(most(state(loc_1(major(city(all))))))",
     _py("return max(geo_model.states, key=lambda s: len([c for c in s.cities if c.is_major]))")),
    ("gq-05", "what is the longest river ?",
     "answer(longest(river(all)))",
     _py("return max(geo_model.rivers, key=lambda r: r.length)")),
    ("gq-06", "which states border texas ?",
     "answer(state(next_to_2(stateid('texas'))))",
     _py('return geo_model.find_state("texas").next_to')),
    ("gq-07", "which states does the rio grande run through ?",
     "answer(traverse_1(riverid('rio grande')))",
     _py('return geo_model.find_river("rio grande").traverses')),
    ("gq-08", "what is the population of texas ?",
     "answer(population_1(stateid('texas')))",
     _py('return geo_model.find_state("texas").population')),
    ("gq-09", "how many cities does texas have ?",
     "answer(count(city(loc_2(stateid('texas')))))",
     _py('return len(geo_model.find_state("texas").cities)')),
    ("gq-10", "what rivers flow through the largest state ?",
     "answer(river(loc_2(largest(state(all)))))",
     "def answer() -> List[River]:\n"
     "    largest_state = max(geo_model.states, key=lambda x: x.size)\n"
     "    return largest_state.rivers"),
    ("gq-11", "what is the highest point in colorado ?",
     "answer(high_point_1(stateid('colorado')))",
     _py('return geo_model.find_state("colorado").high_point')),
    ("gq-12", "what is the smallest state ?",
     "answer(smallest(state(all)))",
     _py("return min(geo_model.states, key=lambda x: x.size)")),
    ("gq-13", "which state has the largest population ?",
     "answer(largest_one(population_1(state(all))))",
     _py("return max(geo_model.states, key=lambda x: x.population)")),
    ("gq-14", "which state has the smallest population density ?",
     "answer(smallest_one(density_1(state(all))))",
     _py("return min(geo_model.states, key=lambda x: x.density)")),
    ("gq-15", "what is the area of kansas ?",
     "answer(area_1(stateid('kansas')))",
     _py('return geo_model.find_state("kansas").area')),
    ("gq-16", "how long is the red river ?",
     "answer(len(riverid('red')))",
     _py('return geo_model.find_river("red").length')),
    ("gq-17", "what rivers run through oklahoma ?",
     "answer(river(loc_2(stateid('oklahoma'))))",
     _py('return geo_model.find_state("oklahoma").rivers')),
    ("gq-18", "which rivers run through states bordering new mexico ?",
     "answer(traverse_2(next_to_2(stateid('new mexico'))))",
     "def answer() -> List[River]:\n"
     '    new_mexico_state = geo_model.find_state("new mexico")\n'
     "    bordering_states = new_mexico_state.next_to\n"
     "    rivers = []\n"
     "    for state in bordering_states:\n"
     "        rivers.extend(state.rivers)\n"
     "    return rivers"),
    ("gq-19", "what is the highest point in the usa ?",
     "answer(highest(place(loc_2(countryid('usa')))))",
     _py("return max(geo_model.places, key=lambda x: x.elevation)")),
    ("gq-20", "which states border states that the rio grande runs through ?",
     "answer(state(next_to_1(traverse_1(riverid('rio grande')))))",
     "def answer() -> List[State]:\n"
     '    river = geo_model.find_river("rio grande")\n'
     "    bordering_states = set()\n"
     "    for state in river.traverses:\n"
     "        bordering_states.update(state.next_to)\n"
     "    return list(bordering_states)"),
    ("gq-21", "what is the lowest point in texas ?",
     "answer(low_point_1(stateid('texas')))",
     _py('return geo_model.find_state("texas").low_point')),
    ("gq-22", "how many people live in the capital of texas ?",
     "answer(population_1(capital(loc_2(stateid('texas')))))",
     _py('return geo_model.find_state("texas").capital.population')),
    ("gq-23", "how many rivers are there ?",
     "answer(count(river(all)))",
     _py("return len(geo_model.rivers)")),
    ("gq-24", "what are the major cities in texas ?",
     "answer(major(city(loc_2(stateid('texas')))))",
     _py('return [c for c in geo_model.find_state("texas").cities if c.is_major]')),
    ("gq-25", "how many major cities are there ?",
     "answer(count(major(city(all))))",
     _py("return len([c for c in geo_model.cities if c.is_major])")),
    ("gq-26", "which state contains the highest point ?",
     "answer(state(loc_1(highest(place(all)))))",
     _py("highest_point = max(geo_model.places, key=lambda x: x.elevation)",
         "return highest_point.state")),
    ("gq-27", "which rivers do not run through texas ?",
     "answer(exclude(river(all), traverse_2(stateid('texas'))))",
     _py('texas = geo_model.find_state("texas")',
         "return [r for r in geo_model.rivers if texas not in r.traverses]")),
    ("gq-28", "which rivers run through both texas and louisiana ?",
     "answer(intersection(traverse_2(stateid('texas')), traverse_2(stateid('louisiana'))))",
     _py('texas = geo_model.find_state("texas")',
         'louisiana = geo_model.find_state("louisiana")',
         "return [r for r in geo_model.rivers if texas in r.traverses and louisiana in r.traverses]")),
    ("gq-29", "what is the combined area of all the states ?",
     "answer(sum(area_1(state(all))))",
     _py("return sum([s.area for s in geo_model.states])")),
    ("gq-30", "what is the total length of the rivers in oklahoma ?",
     "answer(sum(len(river(loc_2(stateid('oklahoma'))))))",
     _py('return sum([r.length for r in geo_model.find_state("oklahoma").rivers])')),
    ("gq-31", "what is the shortest river ?",
     "answer(shortest(river(all)))",
     _py("return min(geo_model.rivers, key=lambda r: r.length)")),
    ("gq-32", "which river runs through the fewest states ?",
     "answer(fewest(river(traverse_2(state(all)))))",
     _py("return min(geo_model.rivers, key=lambda r: len(r.traverses))")),
    ("gq-33", "which river runs through the most states ?",
     "answer(most(river(traverse_2(state(all)))))",
     _py("return max(geo_model.rivers, key=lambda r: len(r.traverses))")),
    ("gq-34", "which states does the arkansas river run through ?",
     "answer(traverse_1(riverid('arkansas')))",
     _py('return geo_model.find_river("arkansas").traverses')),
    ("gq-35", "how high is mount elbert ?",
     "answer(elevation_1(placeid('mount elbert')))",
     _py('return geo_model.find_place("mount elbert").elevation')),
    ("gq-36", "which cities are named springfield ?",
     "answer(cityid('springfield', '_'))",
     _py('return geo_model.find_city("springfield")')),
    ("gq-37", "what is the population of springfield missouri ?",
     "answer(population_1(cityid('springfield', 'mo')))",
     _py('springfields = [c for c in geo_model.cities '
         'if c.name == "springfield" and c.state.abbreviation == "mo"]',
         "return springfields[0].population")),
    ("gq-38", "what is the largest city in texas ?",
     "answer(largest(city(loc_2(stateid('texas')))))",
     _py('return max(geo_model.find_state("texas").cities, key=lambda c: c.population)')),
    ("gq-39", "what are the capitals of the states that border texas ?",
     "answer(capital(loc_2(next_to_2(stateid('texas')))))",
     _py('return [s.capital for s in geo_model.find_state("texas").next_to]')),
    ("gq-40", "how many people live in the major cities of texas ?",
     "answer(sum(population_1(major(city(loc_2(stateid('texas')))))))",
     _py('return sum([c.population for c in geo_model.find_state("texas").cities '
         'if c.is_major])')),
    ("gq-41", "which state contains the city with the largest population ?",
     "answer(state(loc_1(largest(city(all)))))",
     _py("largest_city = max(geo_model.cities, key=lambda c: c.population)",
         "return largest_city.state")),
    ("gq-42", "what is the population density of texas ?",
     "answer(density_1(stateid('texas')))",
     _py('return geo_model.find_state("texas").density')),
    ("gq-43", "what mountains are in the states that border oklahoma ?",
     "answer(mountain(loc_2(next_to_2(stateid('oklahoma')))))",
     _py('oklahoma = geo_model.find_state("oklahoma")',
         'return [p for p in geo_model.places '
         'if p.state in oklahoma.next_to and p.kind == "mountain"]')),
    ("gq-44", "what is the lowest point in the usa ?",
     "answer(lowest(place(loc_2(countryid('usa')))))",
     _py("return min(geo_model.places, key=lambda p: p.elevation)")),
    ("gq-45", "what are the high points of the states that border texas ?",
     "answer(high_point_1(next_to_2(stateid('texas'))))",
     _py('return [s.high_point for s in geo_model.find_state("texas").next_to]')),
    ("gq-46", "which states does the longest river run through ?",
     "answer(traverse_1(longest(river(all))))",
     _py("longest_river = max(geo_model.rivers, key=lambda r: r.length)",
         "return longest_river.traverses")),
    ("gq-47", "which capitals are major cities ?",
     "answer(major(capital(city(all))))",
     _py("capitals = [s.capital for s in geo_model.states]",
         "return [c for c in capitals if c.is_major]")),
    ("gq-48", "which state has mount elbert as its highest point ?",
     "answer(high_point_2(placeid('mount elbert')))",
     _py('return [s for s in geo_model.states if s.high_point.name == "mount elbert"]')),
    ("gq-49", "which state has the largest area ?",
     "answer(largest_one(area_1(state(all))))",
     _py("return max(geo_model.states, key=lambda x: x.area)")),
    ("gq-50", "how many rivers run through colorado ?",
     "answer(count(river(loc_2(stateid('colorado')))))",
     _py('return len(geo_model.find_state("colorado").rivers)')),
]

GEOQUERY_TEST_IDS = ["gq-05", "gq-10", "gq-15", "gq-20", "gq-25",
                     "gq-30", "gq-35", "gq-40", "gq-45", "gq-50"]

# --- social database ------------------------------------------------------------

PEOPLE = [
    {"id": "en.person.alice", "name": "alice", "gender": "en.gender.female",
     "birthdate": 1986, "birthplace": "en.city.chicago", "height": 170,
     "relationship_status": "en.relationship_status.single", "is_student": False,
     "friends": ["en.person.bob", "en.person.carol", "en.person.erin", "en.person.frank"],
     "education": [{"institution": "en.institution.brown_university",
                    "start_date": 2004, "end_date": 2008}],
     "employment": [{"employer": "en.employer.mckinsey", "job_title": "en.job_title.consultant",
                     "start_date": 2008, "end_date": 2012},
                    {"employer": "en.employer.google", "job_title": "en.job_title.program_manager",
                     "start_date": 2012, "end_date": 2016}]},
    {"id": "en.person.bob", "name": "bob", "gender": "en.gender.male",
     "birthdate": 2004, "birthplace": "en.city.austin", "height": 178,
     "relationship_status": "en.relationship_status.single", "is_student": True,
     "friends": ["en.person.alice", "en.person.dan"],
     "education": [{"institution": "en.institution.ucla", "start_date": 2022, "end_date": 2026}],
     "employment": []},
    {"id": "en.person.carol", "name": "carol", "gender": "en.gender.female",
     "birthdate": 1990, "birthplace": "en.city.seattle", "height": 165,
     "relationship_status": "en.relationship_status.married", "is_student": False,
     "friends": ["en.person.alice", "en.person.erin"],
     "education": [{"institution": "en.institution.stanford_university",
                    "start_date": 2008, "end_date": 2012}],
     "employment": [{"employer": "en.employer.google", "job_title": "en.job_title.engineer",
                     "start_date": 2012, "end_date": 2020}]},
    {"id": "en.person.dan", "name": "dan", "gender": "en.gender.male",
     "birthdate": 2004, "birthplace": "en.city.chicago", "height": 182,
     "relationship_status": "en.relationship_status.single", "is_student": True,
     "friends": ["en.person.bob"],
     "education": [{"institution": "en.institution.ucla", "start_date": 2023, "end_date": 2027}],
     "employment": []},
    {"id": "en.person.erin", "name": "erin", "gender": "en.gender.female",
     "birthdate": 1975, "birthplace": "en.city.boston", "height": 160,
     "relationship_status": "en.relationship_status.married", "is_student": False,
     "friends": ["en.person.carol", "en.person.frank", "en.person.alice"],
     "education": [{"institution": "en.institution.brown_university",
                    "start_date": 1993, "end_date": 1997}],
     "employment": [{"employer": "en.employer.mckinsey", "job_title": "en.job_title.consultant",
                     "start_date": 1997, "end_date": 2016}]},
    {"id": "en.person.frank", "name": "frank", "gender": "en.gender.male",
     "birthdate": 1968, "birthplace": "en.city.boston", "height": 190,
     "relationship_status": "en.relationship_status.married", "is_student": False,
     "friends": ["en.person.erin", "en.person.alice"],
     "education": [],
     "employment": [{"employer": "en.employer.honda", "job_title": "en.job_title.mechanic",
                     "start_date": 1990, "end_date": 2012}]},
    {"id": "en.person.grace", "name": "grace", "gender": "en.gender.female",
     "birthdate": 2002, "birthplace": "en.city.austin", "height": 172,
     "relationship_status": "en.relationship_status.single", "is_student": True,
     "friends": ["en.person.henry"],
     "education": [{"institution": "en.institution.stanford_university",
                    "start_date": 2020, "end_date": 2024}],
     "employment": []},
    {"id": "en.person.henry", "name": "henry", "gender": "en.gender.male",
     "birthdate": 1995, "birthplace": "en.city.seattle", "height": 185,
     "relationship_status": "en.relationship_status.single", "is_student": False,
     "friends": ["en.person.grace"],
     "education": [{"institution": "en.institution.ucla", "start_date": 2012, "end_date": 2016}],
     "employment": [{"employer": "en.employer.google", "job_title": "en.job_title.engineer",
                     "start_date": 2016, "end_date": 2024}]},
]

_P = "(getProperty en.person !type)"

OVERNIGHT = [
    ("on-01", "person whose gender is male and whose birthdate is 2004",
     f"(listValue (filter (filter {_P} gender = en.gender.male) birthdate = 2004))",
     "def answer():\n"
     "    people_born_in_2004 = [p for p in api.people if p.birthdate == 2004]\n"
     "    males_born_in_2004 = [p for p in people_born_in_2004 if p.gender == Gender.male]\n"
     "    return males_born_in_2004"),
    ("on-02", "how tall is alice ?",
     "(listValue (getProperty en.person.alice height))",
     _py('return api.find_person_by_id("en.person.alice").height')),
    ("on-03", "how many people are there ?",
     f"(listValue (size {_P}))",
     _py("return len(api.people)")),
    ("on-04", "who is the tallest person ?",
     f"(listValue (superlative {_P} argmax height))",
     _py("return max(api.people, key=lambda p: p.height)")),
    ("on-05", "who has the most friends ?",
     f"(listValue (countSuperlative {_P} argmax friends))",
     _py("return max(api.people, key=lambda p: len(p.friends))")),
    ("on-06", "who are alice 's friends ?",
     "(listValue (getProperty en.person.alice friends))",
     _py('return api.find_person_by_id("en.person.alice").friends')),
    ("on-07", "who is married ?",
     f"(listValue (filter {_P} relationship_status = en.relationship_status.married))",
     _py('return [p for p in api.people '
         'if p.relationship_status == "en.relationship_status.married"]')),
    ("on-08", "who was born in chicago ?",
     f"(listValue (filter {_P} birthplace = en.city.chicago))",
     _py('return [p for p in api.people if p.birthplace == "en.city.chicago"]')),
    ("on-09", "employee whose employer is google",
     f"(listValue (filter {_P} employer = en.employer.google))",
     _py('return [p for p in api.people '
         'if any(e.employer == "en.employer.google" for e in p.employment)]')),
    ("on-10", "person that studied at ucla",
     f"(listValue (filter {_P} institution = en.institution.ucla))",
     _py('return [p for p in api.people '
         'if any(e.institution == "en.institution.ucla" for e in p.education)]')),
    ("on-11", "person whose height is at least 175 centimeters",
     f"(listValue (filter {_P} height > 175))",
     _py("return [p for p in api.people if p.height > 175]")),
    ("on-12", "how many people are married ?",
     f"(listValue (size (filter {_P} relationship_status = en.relationship_status.married)))",
     _py('return len([p for p in api.people '
         'if p.relationship_status == "en.relationship_status.married"])')),
    ("on-13", "what is the average height of people ?",
     f"(listValue (aggregate avg (getProperty {_P} height)))",
     _py("return sum([p.height for p in api.people]) / len(api.people)")),
    ("on-14", "who is the shortest person ?",
     f"(listValue (superlative {_P} argmin height))",
     _py("return min(api.people, key=lambda p: p.height)")),
    ("on-15", "who has at least two friends ?",
     f"(listValue (countComparative {_P} friends >= 2))",
     _py("return [p for p in api.people if len(p.friends) >= 2]")),
    ("on-16", "student whose start date is end date of employee alice",
     f"(listValue (filter {_P} education_start_date = "
     "(getProperty en.person.alice employment_end_date)))",
     "def answer():\n"
     '    alice = api.find_person_by_id("en.person.alice")\n'
     "    students_with_same_start_date = [person for person in api.people "
     "if person.education and any(e.start_date == alice_employment.end_date "
     "for e in person.education for alice_employment in alice.employment)]\n"
     "    return students_with_same_start_date"),
    ("on-17", "when was bob born ?",
     "(listValue (getProperty en.person.bob birthdate))",
     _py('return api.find_person_by_id("en.person.bob").birthdate')),
    ("on-18", "where was carol born ?",
     "(listValue (getProperty en.person.carol birthplace))",
     _py('return api.find_person_by_id("en.person.carol").birthplace')),
    ("on-19", "who are the friends of the tallest person ?",
     f"(listValue (getProperty (superlative {_P} argmax height) friends))",
     _py("tallest = max(api.people, key=lambda p: p.height)",
         "return tallest.friends")),
    ("on-20", "who is single and was born in austin ?",
     f"(listValue (filter (filter {_P} relationship_status = en.relationship_status.single) "
     "birthplace = en.city.austin))",
     _py('singles = [p for p in api.people '
         'if p.relationship_status == "en.relationship_status.single"]',
         'return [p for p in singles if p.birthplace == "en.city.austin"]')),
]

OVERNIGHT_TEST_IDS = ["on-04", "on-08", "on-12", "on-16", "on-20"]

# --- calendar world --------------------------------------------------------------

CALENDAR_WORLD = {
    "people": [
        {"id": "p1", "name": "sarah", "manager": "p3"},
        {"id": "p2", "name": "michael", "manager": "p3"},
        {"id": "p3", "name": "david", "manager": "p6"},
        {"id": "p4", "name": "emma", "manager": "p6"},
        {"id": "p5", "name": "lucas", "manager": "p4"},
        {"id": "p6", "name": "olivia"},
    ],
    "current_user": "p1",
    "now": "2023-01-02T08:00:00",
    "events": [],
}

SMCALFLOW = [
    ("sm-01", "Make an appointment in Central Park on Friday .", "event",
     "CreateEvent( AND( at_location( Central Park ) , starts_at( NextDOW( FRIDAY ) ) ) )",
     _py('api.add_event(Event(subject="Appointment in Central Park", '
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Friday")], '
         'location="Central Park"))')),
    ("sm-02", "Schedule a meeting with my team on November 3rd at 11 am as well .", "org",
     "CreateEvent( AND( with_attendee( FindTeamOf( CurrentUser() ) ) , "
     "starts_at( date_by_mdy( 11 , 3 ) ) , starts_at( time_by_hm( 11 , am ) ) ) )",
     "def answer():\n"
     "    team = api.get_current_user().find_team_of()\n"
     '    api.add_event(Event(subject="Meeting with Team", '
     "starts_at=[DateTimeClause.date_by_mdy(month=11, day=3), "
     'DateTimeClause.time_by_hm(hour=11, am_or_pm="am")], attendees=team))'),
    ("sm-03", "set a meeting with John at 10 am", "event",
     "CreateEvent( AND( with_attendee( John ) , starts_at( time_by_hm( 10 , am ) ) ) )",
     _py('john = api.find_person("John")',
         'api.add_event(Event(subject="Meeting with John", attendees=[john], '
         'starts_at=[DateTimeClause.time_by_hm(hour=10, am_or_pm="am")]))')),
    ("sm-04", "schedule lunch with Jane 's boss tomorrow at noon", "org",
     "CreateEvent( AND( with_attendee( FindManager( Jane ) ) , starts_at( TOMORROW ) , "
     "starts_at( time_by_hm( 12 , pm ) ) ) )",
     _py('jane = api.find_person("Jane")',
         "boss = jane.find_manager_of()",
         'api.add_event(Event(subject="Lunch", attendees=[boss], '
         "starts_at=[DateTimeValues.Tomorrow, "
         'DateTimeClause.time_by_hm(hour=12, am_or_pm="pm")]))')),
    ("sm-05", "i need all of Jake 's team except Jennifer at my staff meeting this friday", "org",
     "CreateEvent( AND( with_attendee( FindTeamOf( Jake ) ) , avoid_attendee( Jennifer ) , "
     "starts_at( NextDOW( FRIDAY ) ) ) )",
     _py('jake = api.find_person("Jake")',
         "team = jake.find_team_of()",
         'jennifer = api.find_person("Jennifer")',
         "team.remove(jennifer)",
         'api.add_event(Event(subject="Staff Meeting", attendees=team, '
         "attendees_to_avoid=[jennifer], "
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Friday")]))')),
    ("sm-06", "book the conference room for a project sync today at 3 pm", "event",
     "CreateEvent( AND( has_subject( Project Sync ) , at_location( Conference Room ) , "
     "starts_at( TODAY ) , starts_at( time_by_hm( 3 , pm ) ) ) )",
     _py('api.add_event(Event(subject="Project Sync", location="Conference Room", '
         "starts_at=[DateTimeValues.Today, "
         'DateTimeClause.time_by_hm(hour=3, am_or_pm="pm")]))')),
    ("sm-07", "hour long meeting with Mary on Wednesday", "event",
     "CreateEvent( AND( with_attendee( Mary ) , starts_at( NextDOW( WEDNESDAY ) ) , "
     "has_duration( 60 ) ) )",
     _py('mary = api.find_person("Mary")',
         'api.add_event(Event(subject="Meeting with Mary", attendees=[mary], '
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Wednesday")], duration=60))')),
    ("sm-08", "dinner with my manager next Tuesday at 7 pm", "org",
     "CreateEvent( AND( with_attendee( FindManager( CurrentUser() ) ) , "
     "starts_at( NextDOW( TUESDAY ) ) , starts_at( time_by_hm( 7 , pm ) ) ) )",
     _py("boss = api.get_current_user().find_manager_of()",
         'api.add_event(Event(subject="Dinner with Manager", attendees=[boss], '
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Tuesday"), '
         'DateTimeClause.time_by_hm(hour=7, am_or_pm="pm")]))')),
    ("sm-09", "meeting at the office tomorrow at 9 am", "event",
     "CreateEvent( AND( at_location( Office ) , starts_at( TOMORROW ) , "
     "starts_at( time_by_hm( 9 , am ) ) ) )",
     _py('api.add_event(Event(subject="Meeting", location="Office", '
         "starts_at=[DateTimeValues.Tomorrow, "
         'DateTimeClause.time_by_hm(hour=9, am_or_pm="am")]))')),
    ("sm-10", "schedule a call with Alex and Sam on March 5", "event",
     "CreateEvent( AND( with_attendee( Alex ) , with_attendee( Sam ) , "
     "starts_at( date_by_mdy( 3 , 5 ) ) ) )",
     _py('alex = api.find_person("Alex")',
         'sam = api.find_person("Sam")',
         'api.add_event(Event(subject="Call", attendees=[alex, sam], '
         'starts_at=[DateTimeClause.date_by_mdy(month=3, day=5)]))')),
    ("sm-11", "thirty minute review with my skip on Thursday at 2 pm", "org",
     "CreateEvent( AND( with_attendee( FindManager( FindManager( CurrentUser() ) ) ) , "
     "starts_at( NextDOW( THURSDAY ) ) , starts_at( time_by_hm( 2 , pm ) ) , "
     "has_duration( 30 ) ) )",
     _py("skip = api.get_current_user().find_manager_of().find_manager_of()",
         'api.add_event(Event(subject="Review", attendees=[skip], '
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Thursday"), '
         'DateTimeClause.time_by_hm(hour=2, am_or_pm="pm")], duration=30))')),
    ("sm-12", "team lunch at the cafeteria next Monday at noon", "org",
     "CreateEvent( AND( with_attendee( FindTeamOf( CurrentUser() ) ) , "
     "at_location( Cafeteria ) , starts_at( NextDOW( MONDAY ) ) , "
     "starts_at( time_by_hm( 12 , pm ) ) ) )",
     _py("team = api.get_current_user().find_team_of()",
         'api.add_event(Event(subject="Team Lunch", attendees=team, location="Cafeteria", '
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Monday"), '
         'DateTimeClause.time_by_hm(hour=12, am_or_pm="pm")]))')),
    ("sm-13", "one on one with Priya tomorrow at 10 am", "event",
     "CreateEvent( AND( has_subject( One on One ) , with_attendee( Priya ) , "
     "starts_at( TOMORROW ) , starts_at( time_by_hm( 10 , am ) ) ) )",
     _py('priya = api.find_person("Priya")',
         'api.add_event(Event(subject="One on One", attendees=[priya], '
         "starts_at=[DateTimeValues.Tomorrow, "
         'DateTimeClause.time_by_hm(hour=10, am_or_pm="am")]))')),
    ("sm-14", "block today until 5 pm", "event",
     "CreateEvent( AND( starts_at( TODAY ) , ends_at( time_by_hm( 5 , pm ) ) ) )",
     _py("api.add_event(Event(starts_at=[DateTimeValues.Today], "
         'ends_at=[DateTimeClause.time_by_hm(hour=5, am_or_pm="pm")]))')),
    ("sm-15", "plan a workshop in Room 12 on June 1 at 9 am", "event",
     "CreateEvent( AND( has_subject( Workshop ) , at_location( Room 12 ) , "
     "starts_at( date_by_mdy( 6 , 1 ) ) , starts_at( time_by_hm( 9 , am ) ) ) )",
     _py('api.add_event(Event(subject="Workshop", location="Room 12", '
         "starts_at=[DateTimeClause.date_by_mdy(month=6, day=1), "
         'DateTimeClause.time_by_hm(hour=9, am_or_pm="am")]))')),
    ("sm-16", "meet with Omar 's team on Friday at 4 pm", "org",
     "CreateEvent( AND( with_attendee( FindTeamOf( Omar ) ) , "
     "starts_at( NextDOW( FRIDAY ) ) , starts_at( time_by_hm( 4 , pm ) ) ) )",
     _py('omar = api.find_person("Omar")',
         "team = omar.find_team_of()",
         'api.add_event(Event(subject="Team Meeting", attendees=team, '
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Friday"), '
         'DateTimeClause.time_by_hm(hour=4, am_or_pm="pm")]))')),
    ("sm-17", "afternoon sync with Lee at 1 pm tomorrow", "event",
     "CreateEvent( AND( with_attendee( Lee ) , starts_at( TOMORROW ) , "
     "starts_at( time_by_hm( 1 , pm ) ) ) )",
     _py('lee = api.find_person("Lee")',
         'api.add_event(Event(subject="Afternoon Sync", attendees=[lee], '
         "starts_at=[DateTimeValues.Tomorrow, "
         'DateTimeClause.time_by_hm(hour=1, am_or_pm="pm")]))')),
    ("sm-18", "schedule standup next Monday at 9 am", "event",
     "CreateEvent( AND( has_subject( Standup ) , starts_at( NextDOW( MONDAY ) ) , "
     "starts_at( time_by_hm( 9 , am ) ) ) )",
     _py('api.add_event(Event(subject="Standup", '
         'starts_at=[DateTimeClause.get_next_dow(day_of_week="Monday"), '
         'DateTimeClause.time_by_hm(hour=9, am_or_pm="am")]))')),
    ("sm-19", "December 31 celebration at Town Hall at 8 pm", "event",
     "CreateEvent( AND( has_subject( Celebration ) , at_location( Town Hall ) , "
     "starts_at( date_by_mdy( 12 , 31 ) ) , starts_at( time_by_hm( 8 , pm ) ) ) )",
     _py('api.add_event(Event(subject="Celebration", location="Town Hall", '
         "starts_at=[DateTimeClause.date_by_mdy(month=12, day=31), "
         'DateTimeClause.time_by_hm(hour=8, am_or_pm="pm")]))')),
    ("sm-20", "quick chat with Dana today at 8 am", "event",
     "CreateEvent( AND( with_attendee( Dana ) , starts_at( TODAY ) , "
     "starts_at( time_by_hm( 8 , am ) ) ) )",
     _py('dana = api.find_person("Dana")',
         'api.add_event(Event(subject="Quick Chat", attendees=[dana], '
         "starts_at=[DateTimeValues.Today, "
         'DateTimeClause.time_by_hm(hour=8, am_or_pm="am")]))')),
]

SMCALFLOW_TEST_IDS = ["sm-04", "sm-08", "sm-12", "sm-16", "sm-20"]


def build_datasets():
    geo_examples = [Example(id=i, utterance=u, programs={"funql": f, "pymr": p})
                    for i, u, f, p in GEOQUERY]
    overnight_examples = []
    for ex_id, utterance, simple, py in OVERNIGHT:
        simple_ast = social.parse_ldcs(simple, "simple")
        canonical_simple = social.render_ldcs(simple_ast)
        full = social.render_ldcs(social.desimplify_ldcs(simple_ast))
        overnight_examples.append(Example(
            id=ex_id, utterance=utterance,
            programs={"ldcs": full, "ldcs-simple": canonical_simple, "pymr": py}))
    cal_examples = [Example(id=i, utterance=u, programs={"dataflow-simple": d, "pymr": p},
                            tags=frozenset({f"domain:{dom}"}))
                    for i, u, dom, d, p in SMCALFLOW]
    return (Dataset("geoquery", ("funql", "pymr"), tuple(geo_examples)),
            Dataset("overnight", ("ldcs", "ldcs-simple", "pymr"), tuple(overnight_examples)),
            Dataset("smcalflow", ("dataflow-simple", "pymr"), tuple(cal_examples)))


def write_split(path: Path, name: str, all_ids: list, test_ids: list) -> None:
    split = {"name": name, "train": [i for i in all_ids if i not in test_ids],
             "test": test_ids}
    path.write_text(json.dumps(split, indent=2) + "\n", encoding="utf-8")


def verify(geo_ds, on_ds, cal_ds) -> None:
    from semkit.evaluation import scorer
    from semkit.execute import load_environment
    from semkit.resources import environment_path

    # environment, dataset, and the (dialect, gold dialect) pairs that must score correct
    for environment, dataset, pairs in (
            ("geo", geo_ds, [("pymr", "funql")]),
            ("social", on_ds, [("pymr", "ldcs-simple"), ("ldcs", "ldcs-simple")]),
            ("calendar", cal_ds, [("pymr", "dataflow-simple")])):
        score = scorer(environment, load_environment(environment, environment_path(environment)))
        for ex in dataset.examples:
            for dialect, gold_dialect in pairs:
                verdict = score(dialect, ex.programs[dialect], gold_dialect,
                                ex.programs[gold_dialect])
                assert verdict == "correct", (ex.id, dialect, verdict)
    print("verify: all cross-dialect pairs agree")


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / "datasets").mkdir(exist_ok=True)
    (DATA_DIR / "splits").mkdir(exist_ok=True)
    (DATA_DIR / "dd").mkdir(exist_ok=True)

    write_geobase(DATA_DIR / "geobase.jsonl")
    (DATA_DIR / "social_db.json").write_text(
        json.dumps({"people": PEOPLE}, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    (DATA_DIR / "calendar_world.json").write_text(
        json.dumps(CALENDAR_WORLD, indent=2) + "\n", encoding="utf-8")

    geo_ds, on_ds, cal_ds = build_datasets()
    save_dataset(geo_ds, DATA_DIR / "datasets" / "geoquery.jsonl")
    save_dataset(on_ds, DATA_DIR / "datasets" / "overnight.jsonl")
    save_dataset(cal_ds, DATA_DIR / "datasets" / "smcalflow.jsonl")

    write_split(DATA_DIR / "splits" / "geoquery_iid.json", "iid",
                [e.id for e in geo_ds.examples], GEOQUERY_TEST_IDS)
    write_split(DATA_DIR / "splits" / "overnight_iid.json", "iid",
                [e.id for e in on_ds.examples], OVERNIGHT_TEST_IDS)
    write_split(DATA_DIR / "splits" / "smcalflow_iid.json", "iid",
                [e.id for e in cal_ds.examples], SMCALFLOW_TEST_IDS)

    verify(geo_ds, on_ds, cal_ds)
    print("wrote data files under", DATA_DIR)


if __name__ == "__main__":
    main()
