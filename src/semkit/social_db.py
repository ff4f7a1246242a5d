"""Social-network world: the people database and its pymr surface.

The database holds people (``en.person.*`` ids) with enum-valued attributes
(``en.gender.male`` style id strings), year-granularity dates, friendships
(symmetric), and education/employment history records, their fields declared in
``_PERSON``, ``_EDUCATION`` and ``_EMPLOYMENT``.  :func:`value_ref` names a
result item as the ``(kind, id)`` pair a denotation holds.  ``PYMR`` is what a
pymr program sees: the database itself, a :class:`SocialApi`, bound as ``api``,
with its people and their records; its id index is private.  The λ-DCS dialects
that run against the database live in :mod:`semkit.social`.
"""

from __future__ import annotations

from .errors import DataFormatError, MrExecError
from .outcomes import denotation_of
from .readonly import ReadOnlyList
from .resources import BOOLEAN, INTEGER, STRING, STRINGS, Schema, objects_of, read_world


class EducationRecord:
    __slots__ = ("institution", "start_date", "end_date")

    def __init__(self, institution: str, start_date: int, end_date: int):
        self.institution, self.start_date, self.end_date = institution, start_date, end_date

    def __repr__(self):
        return (f"EducationRecord(institution={self.institution!r}, "
                f"start_date={self.start_date!r}, end_date={self.end_date!r})")


class EmploymentRecord:
    __slots__ = ("employer", "job_title", "start_date", "end_date")

    def __init__(self, employer: str, job_title: str, start_date: int, end_date: int):
        self.employer, self.job_title = employer, job_title
        self.start_date, self.end_date = start_date, end_date

    def __repr__(self):
        return (f"EmploymentRecord(employer={self.employer!r}, job_title={self.job_title!r}, "
                f"start_date={self.start_date!r}, end_date={self.end_date!r})")


class Person:
    __slots__ = ("id", "name", "gender", "birthdate", "birthplace", "height",
                 "relationship_status", "is_student", "friends", "education", "employment")

    def __init__(self, id: str, name: str, gender: str, birthdate: int, birthplace: str,
                 height: int, relationship_status: str, is_student: bool,
                 education: list[EducationRecord] | None = None,
                 employment: list[EmploymentRecord] | None = None):
        self.id, self.name, self.gender, self.birthdate = id, name, gender, birthdate
        self.birthplace, self.height = birthplace, height
        self.relationship_status, self.is_student = relationship_status, is_student
        self.friends = []  # the loader fills it
        self.education = [] if education is None else education
        self.employment = [] if employment is None else employment

    def __repr__(self):
        return f"<{self.id}>"


class SocialApi:
    """The people database, which pymr programs reach as ``api``."""

    __slots__ = ("people", "_by_id")

    def __init__(self, people: list[Person]):
        self.people = people
        self._by_id = {p.id: p for p in people}

    def find_person_by_id(self, person_id: str) -> Person:
        if person_id not in self._by_id:
            raise MrExecError("name-not-found", f"no person {person_id!r}")
        return self._by_id[person_id]


_PERSON = Schema(("name", STRING), ("gender", STRING), ("birthdate", INTEGER),
                 ("birthplace", STRING), ("height", INTEGER), ("relationship_status", STRING),
                 ("is_student", BOOLEAN), ("friends", STRINGS, ()))
_EDUCATION = Schema(("institution", STRING), ("start_date", INTEGER), ("end_date", INTEGER))
_EMPLOYMENT = Schema(("employer", STRING), ("job_title", STRING), ("start_date", INTEGER),
                     ("end_date", INTEGER))


def _history(path, person_id, raw: dict, key: str, schema: Schema, build) -> list:
    """``build`` applied to each record of the optional list ``raw[key]``."""
    return [build(*schema.read(record, path, person_id, (key, at)))
            for at, record in enumerate(objects_of(raw, key, path, person_id, ()))]


def load_social_db(path, data=None) -> SocialApi:
    """Load and check a social db from the file at ``path``, or from its bytes ``data``."""
    _, people_of = read_world(path, data)
    by_id: dict[str, Person] = {}
    friend_ids = {}
    for pid, raw in people_of:
        *attributes, friend_ids[pid] = _PERSON.read(raw, path, pid)
        person = Person(pid, *attributes,
                        education=_history(path, pid, raw, "education", _EDUCATION,
                                           EducationRecord),
                        employment=_history(path, pid, raw, "employment", _EMPLOYMENT,
                                            EmploymentRecord))
        if pid in by_id:
            raise DataFormatError(f"{path}: duplicate person id {pid!r}")
        for rec in [*person.education, *person.employment]:
            if rec.start_date > rec.end_date:
                raise DataFormatError(f"{path}: {pid}: start_date after end_date")
        by_id[pid] = person
    people = list(by_id.values())
    for person in people:
        for friend_id in friend_ids[person.id]:
            if friend_id not in by_id:
                raise DataFormatError(f"{path}: {person.id}: unknown friend {friend_id!r}")
            person.friends.append(by_id[friend_id])
    for person in people:
        for friend in person.friends:
            if person not in friend.friends:
                raise DataFormatError(
                    f"{path}: friendship not symmetric: {person.id} -> {friend.id}")
        person.friends = ReadOnlyList(person.friends)
        person.education = ReadOnlyList(person.education)
        person.employment = ReadOnlyList(person.employment)
    return SocialApi(people=ReadOnlyList(people))


class Gender:
    male = "en.gender.male"
    female = "en.gender.female"


def value_ref(item) -> tuple[str, str]:
    """Canonical (kind, id) pair for a social execution result item."""
    if isinstance(item, Person):
        return ("person", item.id)
    parts = str(item).split(".")
    kind = parts[1] if len(parts) >= 3 and parts[0] == "en" else "value"
    return (kind, str(item))


# what a pymr program sees of a social database; the fields are laid out in semkit.pymr
PYMR = (
    lambda db: {"api": db, "Gender": Gender},
    (Person, EducationRecord, EmploymentRecord, SocialApi),
    (Gender,),
    lambda value, binding: denotation_of(value, (Person, str), value_ref),
)
