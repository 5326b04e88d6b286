"""The package's public surface: what `import complykit` offers."""

from importlib import import_module

import complykit


def test_all_is_every_public_name_init_imports():
    public = sorted(name for names in complykit._EXPORTS.values()
                    for name in names if not name.startswith("_"))
    assert sorted(complykit.__all__) == public
    for module, names in complykit._EXPORTS.items():
        for name in names:
            assert getattr(complykit, name) is getattr(
                import_module(f"complykit.{module}"), name), name
    # The row-scan confusion and the Record row type are test code
    # (reference.py), no metric uses a percentile, and each rate gap
    # computes its own rate.
    for name in ("confusion", "percentile", "Rates", "rates", "Record"):
        assert not hasattr(complykit, name), name
    for name in ("Rates", "rates", "Record"):
        assert not hasattr(import_module("complykit.fairness"), name), name


def test_dir_lists_every_export():
    listed = dir(complykit)
    assert listed == sorted(set(listed))
    assert set(complykit.__all__) <= set(listed)
    assert "__version__" in listed
