"""The package's top-level names."""
import seqobf


def test_every_public_name_resolves():
    for name in seqobf.__all__:
        assert hasattr(seqobf, name), name


def test_names_that_only_tests_and_the_tracer_use_are_not_public():
    # They stay in seqobf.detect and seqobf.engines, where their users bind them.
    for name in ("PatternStats", "lov_choose", "manp_choose", "plov_distribution"):
        assert name not in seqobf.__all__
        assert not hasattr(seqobf, name)
