import pytest

from tracepir import pir


def pytest_addoption(parser):
    parser.addoption(
        "--full-space",
        action="store_true",
        default=False,
        help="check every tuple of tests/data/golden_params_space.json, not a drawn slice",
    )


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
