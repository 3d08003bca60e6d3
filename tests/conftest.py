import pytest

from saddleloop.model import Family, HamiltonianSpec


@pytest.fixture(scope="session")
def spec_a1():
    return HamiltonianSpec(family=Family.NORMAL_FORM, a=1.0)


@pytest.fixture(scope="session")
def spec_a05():
    return HamiltonianSpec(family=Family.NORMAL_FORM, a=0.5)


@pytest.fixture(scope="session")
def appendix_spec():
    return HamiltonianSpec(family=Family.APPENDIX_ELLIPSE)
