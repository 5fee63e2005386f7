from types import ModuleType

import polycomm


def test_star_import_binds_exactly_the_public_api():
    namespace = {}
    exec("from polycomm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == polycomm.__all__
    for name in polycomm.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(polycomm, name), ModuleType), name
    assert not {"conjugate_by", "OddCase", "negating_conjugator"} & set(polycomm.__all__)
    assert {"Polynomial", "solve_poly_commutator", "check_numrad_bound"} <= set(polycomm.__all__)
