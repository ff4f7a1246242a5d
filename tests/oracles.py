"""Independent brute-force oracles over the raw bundle data.

Everything here works on plain dicts parsed straight from the data files with
json — no interpreter, environment or AST code is imported, so these are a
genuinely independent check of every bundled example.  Each oracle returns
either a number or a collection of (kind, canonical-name) pairs.
"""

import json

MAJOR_CITY = 150_000


def load_raw_geo(path):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {
        "states": [r for r in rows if r["kind"] == "state"],
        "cities": [r for r in rows if r["kind"] == "city"],
        "rivers": [r for r in rows if r["kind"] == "river"],
        "places": [r for r in rows if r["kind"] == "place"],
        "country": next(r for r in rows if r["kind"] == "country"),
    }


def load_raw_social(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["people"]


def S(s):
    return ("state", s["name"])


def C(c):
    return ("city", f"{c['name']}, {c['state']}")


def R(r):
    return ("river", r["name"])


def P(p):
    return ("place", p["name"])


def state(raw, name):
    return next(s for s in raw["states"] if s["name"] == name)


def abbr_of(raw, name):
    return state(raw, name)["abbreviation"]


def capital_city(raw, state_name):
    st = state(raw, state_name)
    return next(c for c in raw["cities"]
                if c["name"] == st["capital"] and c["state"] == st["abbreviation"])


def majors(raw):
    return [c for c in raw["cities"] if c["population"] > MAJOR_CITY]


def major_count(raw, st):
    return len([c for c in majors(raw) if c["state"] == st["abbreviation"]])


def place(raw, name, state_abbr):
    return next(p for p in raw["places"] if p["name"] == name and p["state"] == state_abbr)


def high_point(raw, st):
    return place(raw, st["high_point"], st["abbreviation"])


def rivers_of(raw, state_name):
    return [r for r in raw["rivers"] if state_name in r["traverses"]]


GEO_ORACLES = {
    "gq-01": lambda raw: len(raw["states"]),
    "gq-02": lambda raw: {C(capital_city(raw, "texas"))},
    "gq-03": lambda raw: high_point(raw, max(raw["states"], key=lambda s: s["area"]))["elevation"],
    "gq-04": lambda raw: {S(max(raw["states"], key=lambda s: major_count(raw, s)))},
    "gq-05": lambda raw: {R(max(raw["rivers"], key=lambda r: r["length"]))},
    "gq-06": lambda raw: {("state", n) for n in state(raw, "texas")["next_to"]},
    "gq-07": lambda raw: {("state", n) for r in raw["rivers"] if r["name"] == "rio grande"
                          for n in r["traverses"]},
    "gq-08": lambda raw: state(raw, "texas")["population"],
    "gq-09": lambda raw: len([c for c in raw["cities"] if c["state"] == "tx"]),
    "gq-10": lambda raw: {R(r) for r in
                          rivers_of(raw, max(raw["states"], key=lambda s: s["area"])["name"])},
    "gq-11": lambda raw: {P(high_point(raw, state(raw, "colorado")))},
    "gq-12": lambda raw: {S(min(raw["states"], key=lambda s: s["area"]))},
    "gq-13": lambda raw: {S(max(raw["states"], key=lambda s: s["population"]))},
    "gq-14": lambda raw: {S(min(raw["states"], key=lambda s: s["density"]))},
    "gq-15": lambda raw: state(raw, "kansas")["area"],
    "gq-16": lambda raw: next(r["length"] for r in raw["rivers"] if r["name"] == "red"),
    "gq-17": lambda raw: {R(r) for r in rivers_of(raw, "oklahoma")},
    "gq-18": lambda raw: {R(r) for r in raw["rivers"]
                          if set(r["traverses"]) & set(state(raw, "new mexico")["next_to"])},
    "gq-19": lambda raw: {P(max(raw["places"], key=lambda p: p["elevation"]))},
    "gq-20": lambda raw: {("state", n)
                          for t in next(r for r in raw["rivers"]
                                        if r["name"] == "rio grande")["traverses"]
                          for n in state(raw, t)["next_to"]},
    "gq-21": lambda raw: {P(place(raw, state(raw, "texas")["low_point"], "tx"))},
    "gq-22": lambda raw: capital_city(raw, "texas")["population"],
    "gq-23": lambda raw: len(raw["rivers"]),
    "gq-24": lambda raw: {C(c) for c in majors(raw) if c["state"] == "tx"},
    "gq-25": lambda raw: len(majors(raw)),
    "gq-26": lambda raw: {("state", next(
        s["name"] for s in raw["states"]
        if s["abbreviation"] == max(raw["places"], key=lambda p: p["elevation"])["state"]))},
    "gq-27": lambda raw: {R(r) for r in raw["rivers"] if "texas" not in r["traverses"]},
    "gq-28": lambda raw: {R(r) for r in raw["rivers"]
                          if "texas" in r["traverses"] and "louisiana" in r["traverses"]},
    "gq-29": lambda raw: sum(s["area"] for s in raw["states"]),
    "gq-30": lambda raw: sum(r["length"] for r in rivers_of(raw, "oklahoma")),
    "gq-31": lambda raw: {R(min(raw["rivers"], key=lambda r: r["length"]))},
    "gq-32": lambda raw: {R(min(raw["rivers"], key=lambda r: len(r["traverses"])))},
    "gq-33": lambda raw: {R(max(raw["rivers"], key=lambda r: len(r["traverses"])))},
    "gq-34": lambda raw: {("state", n) for r in raw["rivers"] if r["name"] == "arkansas"
                          for n in r["traverses"]},
    "gq-35": lambda raw: place(raw, "mount elbert", "co")["elevation"],
    "gq-36": lambda raw: {C(c) for c in raw["cities"] if c["name"] == "springfield"},
    "gq-37": lambda raw: next(c["population"] for c in raw["cities"]
                              if c["name"] == "springfield" and c["state"] == "mo"),
    "gq-38": lambda raw: {C(max([c for c in raw["cities"] if c["state"] == "tx"],
                               key=lambda c: c["population"]))},
    "gq-39": lambda raw: {C(capital_city(raw, n)) for n in state(raw, "texas")["next_to"]},
    "gq-40": lambda raw: sum(c["population"] for c in majors(raw) if c["state"] == "tx"),
    "gq-41": lambda raw: {("state", next(
        s["name"] for s in raw["states"]
        if s["abbreviation"] == max(raw["cities"], key=lambda c: c["population"])["state"]))},
    "gq-42": lambda raw: state(raw, "texas")["density"],
    "gq-43": lambda raw: {P(p) for p in raw["places"] if p["place_kind"] == "mountain"
                          and p["state"] in [abbr_of(raw, n)
                                             for n in state(raw, "oklahoma")["next_to"]]},
    "gq-44": lambda raw: {P(min(raw["places"], key=lambda p: p["elevation"]))},
    "gq-45": lambda raw: {P(high_point(raw, state(raw, n)))
                          for n in state(raw, "texas")["next_to"]},
    "gq-46": lambda raw: {("state", n)
                          for n in max(raw["rivers"], key=lambda r: r["length"])["traverses"]},
    "gq-47": lambda raw: {C(capital_city(raw, s["name"])) for s in raw["states"]
                          if capital_city(raw, s["name"])["population"] > MAJOR_CITY},
    "gq-48": lambda raw: {S(s) for s in raw["states"]
                          if s["high_point"] == "mount elbert"},
    "gq-49": lambda raw: {S(max(raw["states"], key=lambda s: s["area"]))},
    "gq-50": lambda raw: len(rivers_of(raw, "colorado")),
}


def person(people, pid):
    return next(p for p in people if p["id"] == pid)


def PR(p):
    return ("person", p["id"])


SOCIAL_ORACLES = {
    "on-01": lambda ps: [PR(p) for p in ps
                         if p["gender"] == "en.gender.male" and p["birthdate"] == 2004],
    "on-02": lambda ps: person(ps, "en.person.alice")["height"],
    "on-03": lambda ps: len(ps),
    "on-04": lambda ps: [PR(max(ps, key=lambda p: p["height"]))],
    "on-05": lambda ps: [PR(max(ps, key=lambda p: len(p["friends"])))],
    "on-06": lambda ps: [("person", f) for f in person(ps, "en.person.alice")["friends"]],
    "on-07": lambda ps: [PR(p) for p in ps
                         if p["relationship_status"] == "en.relationship_status.married"],
    "on-08": lambda ps: [PR(p) for p in ps if p["birthplace"] == "en.city.chicago"],
    "on-09": lambda ps: [PR(p) for p in ps
                         if any(e["employer"] == "en.employer.google" for e in p["employment"])],
    "on-10": lambda ps: [PR(p) for p in ps
                         if any(e["institution"] == "en.institution.ucla"
                                for e in p["education"])],
    "on-11": lambda ps: [PR(p) for p in ps if p["height"] > 175],
    "on-12": lambda ps: len([p for p in ps
                             if p["relationship_status"] == "en.relationship_status.married"]),
    "on-13": lambda ps: sum(p["height"] for p in ps) / len(ps),
    "on-14": lambda ps: [PR(min(ps, key=lambda p: p["height"]))],
    "on-15": lambda ps: [PR(p) for p in ps if len(p["friends"]) >= 2],
    "on-16": lambda ps: [PR(p) for p in ps
                         if any(e["start_date"] in
                                [w["end_date"]
                                 for w in person(ps, "en.person.alice")["employment"]]
                                for e in p["education"])],
    "on-17": lambda ps: person(ps, "en.person.bob")["birthdate"],
    "on-18": lambda ps: [("city", person(ps, "en.person.carol")["birthplace"])],
    "on-19": lambda ps: [("person", f)
                         for f in max(ps, key=lambda p: p["height"])["friends"]],
    "on-20": lambda ps: [PR(p) for p in ps
                         if p["relationship_status"] == "en.relationship_status.single"
                         and p["birthplace"] == "en.city.austin"],
}


def denotation_matches(denotation, expected, multiset=False) -> bool:
    """Compare an executed Denotation against an oracle value."""
    if isinstance(expected, (int, float)):
        return (denotation.kind == "number" and len(denotation.values) == 1
                and abs(denotation.values[0] - expected) <= 1e-9 * max(1.0, abs(expected)))
    if denotation.kind != "entities":
        return False
    if multiset:
        return sorted(denotation.entities) == sorted(expected)
    return set(denotation.entities) == set(expected)
