from pathlib import Path

import pytest
from hypothesis import settings

from lutetab import compile_source

FIXTURES = Path(__file__).parent / "fixtures"

# ``pytest --hypothesis-profile=ci``: 20 times the default examples, for a
# run of chosen property tests longer than Tier-1's time budget allows.
settings.register_profile("ci", max_examples=20 * settings.get_profile("default").max_examples)


@pytest.fixture(scope="session")
def newsidler_text() -> str:
    return (FIXTURES / "newsidler.tab").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def schlick_text() -> str:
    return (FIXTURES / "schlick.tab").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fragment_text() -> str:
    return (FIXTURES / "fig_newsidler_fragment.xml").read_text(encoding="utf-8")


# The compiled models are treated as read-only by every test; anything that
# wants to mutate one compiles its own copy.
@pytest.fixture(scope="session")
def newsidler_score(newsidler_text):
    return compile_source(newsidler_text)


@pytest.fixture(scope="session")
def schlick_score(schlick_text):
    return compile_source(schlick_text)
