import pytest

from riverscape import (FreeGroup, IntegerGroup, RiverLandscape,
                        TernaryLandscape, ball)


@pytest.fixture(scope="session")
def f2():
    return FreeGroup(2)


@pytest.fixture(scope="session")
def zline():
    return IntegerGroup()


@pytest.fixture(scope="session")
def win5(f2):
    return ball(f2, 5)


@pytest.fixture(scope="session")
def win8(f2):
    return ball(f2, 8)


@pytest.fixture(scope="session")
def win10(f2):
    return ball(f2, 10)


@pytest.fixture(scope="session")
def river(f2):
    return RiverLandscape(f2)


@pytest.fixture(scope="session")
def ternary():
    return TernaryLandscape()


@pytest.fixture(scope="session")
def zwin_small(zline):
    return ball(zline, 1000)


@pytest.fixture(scope="session")
def zwin_large(zline):
    return ball(zline, 10000)


def bundle_v1(bundle: dict, snapshot: dict) -> dict:
    """The ``riverscape.bundle/1`` form of a ``/2`` bundle and the
    parsed final snapshot it was written with: ``/1`` embedded that
    snapshot as ``finalSnapshot``.  Through ``dump_json`` it reproduces
    the ``/1`` files byte for byte, so the ``/1`` digests stay pinned."""
    return {**bundle, "schema": "riverscape.bundle/1",
            "finalSnapshot": snapshot}
