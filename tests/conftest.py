"""Session fixtures, plus helpers that only tests call: a tower from (q, s)
or its description, database text out, and params back from their JSON."""

import dataclasses

import pytest

from tracepir import linalg, pir, rscodes
from tracepir.gf import MAX_FIELD_SIZE, ExtField, FieldTower, PrimeField, find_irreducibles


def pytest_addoption(parser):
    parser.addoption(
        "--full-space",
        action="store_true",
        default=False,
        help="check every tuple of tests/data/golden_params_space.json, not a drawn slice",
    )
    parser.addoption(
        "--mutants",
        action="store_true",
        default=False,
        help="run the decoder and elimination-kernel tests against every mutant of tests/data/mutants.json",
    )


@pytest.fixture(params=[0, linalg.INT64_MAX], ids=["divide-always", "remainder-always"])
def forced_reduction(request, monkeypatch):
    """`linalg.reduce_mod` on one branch for every array: the division form
    from 0 entries on, or ``%=`` below a size no array reaches."""
    monkeypatch.setattr(linalg, "REDUCE_DIVIDE_MIN", request.param)


@pytest.fixture
def forced_recurrence(monkeypatch):
    """`rscodes.grs_decode` on the Berlekamp-Massey locator for every code: a
    located-set table budget of 0 entries, and back to the default after.
    The table cache is emptied on both sides, so no table built under one
    budget is read under the other."""
    monkeypatch.setattr(rscodes, "SYNDROME_TABLE_ENTRIES", 0)
    rscodes._located_sets.cache_clear()
    yield
    rscodes._located_sets.cache_clear()


@pytest.fixture(scope="session")
def params_small():
    """s = 1 instance: k=4, t=1, b=1, r=4 over GF(7), three files."""
    return pir.setup(4, 1, 1, 4, m=3)


@pytest.fixture(scope="session")
def params_ext():
    """s = 2 instance: k=7, t=1, b=1, r=5 over GF(7^2), four files."""
    return pir.setup(7, 1, 1, 5, m=4)


@pytest.fixture(scope="session")
def db_small(params_small):
    return pir.random_database(params_small, 1234)


@pytest.fixture(scope="session")
def db_ext(params_ext):
    return pir.random_database(params_ext, 5678)


def build_tower(q: int, s: int, modulus=None) -> FieldTower:
    """GF(q) and GF(q^s) on `modulus`, or on the first monic irreducible of
    degree s in lexicographic coefficient order."""
    base = PrimeField(q)
    if q**s > MAX_FIELD_SIZE:
        raise ValueError(f"field size {q}^{s} exceeds 2^32")
    if modulus is None:
        modulus = find_irreducibles(base, s, 1)[0]
    return FieldTower(base, ExtField(base, s, modulus))


def tower_from_description(text: str) -> FieldTower:
    """The tower whose ``FieldTower.describe`` is `text`."""
    fields = {}
    for part in text.split(";"):
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    try:
        q = int(fields["q"])
        s = int(fields["s"])
        mod = [int(c) for c in fields["mod"].split(":")]
    except (KeyError, ValueError):
        raise ValueError(f"bad field description {text!r}") from None
    return build_tower(q, s, mod)


def format_database(params, db) -> str:
    """The database file text that ``pir.parse_database`` reads."""
    ext = params.ext
    return "\n".join(
        ",".join(ext.format_element(x) for x in row) for row in db.array.tolist()
    ) + "\n"


def save_database(params, db, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_database(params, db))


def _int_tuples(value):
    return tuple(map(_int_tuples, value)) if isinstance(value, list) else int(value)


def params_from_json_dict(data: dict) -> pir.SchemeParams:
    """The SchemeParams ``pir.params_to_json_dict`` wrote, checked by ``pir.verify_params``."""
    tower = tower_from_description(data["field"])
    values = {"tower": tower}
    for field in dataclasses.fields(pir.SchemeParams):
        if field.name in pir._ELEMENT_TUPLES:
            values[field.name] = tuple(tower.ext.parse_element(x) for x in data[field.name])
        elif field.name != "tower":
            values[field.name] = _int_tuples(data[field.name])
    params = pir.SchemeParams(**values)
    pir.verify_params(params)
    return params
