"""Package-level checks that span the numerical modules."""

from lasercond import condensation, config, spectrum, thermal


def test_all_names_resolve():
    for module in (spectrum, thermal, condensation, config):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
