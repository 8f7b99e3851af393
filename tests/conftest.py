import warnings

import pytest

from zomo import curves, kummer

# Hypothesis imports its explicit-example patcher, and libcst with it, only
# when a test fails; where libcst is installed that import raises a
# DeprecationWarning, which -W error turns into a pytest INTERNALERROR in
# place of the falsifying example.  Importing it here once, with that
# warning ignored, leaves the failure report intact; without libcst the
# import fails and nothing changes.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def x0_scaling_group():
    return curves.automorphism_group(curves.x0_scaling_maps(19),
                                     curves.x0_curve(), 19)


@pytest.fixture(scope="session")
def x0_full_group():
    maps = curves.x0_scaling_maps(19) + [curves.x0_alpha2()]
    return curves.automorphism_group(maps, curves.x0_curve(), 19)


@pytest.fixture(scope="session")
def fermat_group():
    return curves.automorphism_group(curves.fermat9_maps(19),
                                     curves.fermat9_curve(), 19)


@pytest.fixture(scope="session")
def genus28():
    return curves.genus28_group(19)


@pytest.fixture(scope="session")
def kummer19():
    return kummer.build_kummer(19, kummer.load_golden(19))


@pytest.fixture(scope="session")
def kummer73():
    return kummer.build_kummer(73, kummer.load_golden(73))


@pytest.fixture(scope="session")
def kummer271():
    return kummer.build_kummer(271, kummer.load_golden(271))
