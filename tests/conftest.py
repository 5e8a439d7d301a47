from typing import Any, Callable, NamedTuple

import pytest

from rlattice import Universe, enumerate_relations


class Carrier(NamedTuple):
    """The carrier `checker.run_check` takes (`kernel.carrier`), by name."""

    n: int
    tables: tuple
    rows: tuple | None
    leaf: Callable[[Any], int]
    maps: tuple
    bound: dict


def carrier_of(holder) -> Carrier:
    """The carrier a `RelationKernel` or `FiniteModel` keeps for its checks:
    its tables, row tables, symmetry maps and each statement's binding."""
    return Carrier(*holder._checker)


@pytest.fixture(scope="session")
def u1():
    return Universe.make({"t": ("a", "b")})


@pytest.fixture(scope="session")
def u2():
    return Universe.make({"t": ("a", "b"), "s": ("1", "2")})


@pytest.fixture(scope="session")
def rels1(u1):
    return enumerate_relations(u1)


@pytest.fixture(scope="session")
def rels2(u2):
    return enumerate_relations(u2)
