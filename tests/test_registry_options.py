"""Registry option validation: an unknown option raises, never vanishes.

Every built-in builder takes the same uniform option set and keeps the
names its matcher understands.  A name no built-in builder knows — a
typo, or an option a matcher no longer has — raises ``RegistryError``
instead of being silently dropped, so a registry call never means
something different from the matching constructor call.
"""

import pytest

from repro.db import Database
from repro.errors import RegistryError, RuleError
from repro.maintenance import MaintenancePolicy
from repro.match.registry import DEFAULT_REGISTRY
from repro.rules import RuleEngine


@pytest.mark.parametrize(
    "matcher, option",
    [
        ("ibs-concurrent", "pool"),
        ("ibs", "auto_retune_interval"),
        ("ibs", "auto_backend"),
        ("ibs-flat", "min_evidence_ops"),
        ("disk", "auto_candidates"),
        ("sequential", "auto_cost_table"),
        ("locking", "no_such_option"),
        ("ibs-concurrent", "workers"),
        ("ibs-concurrent", "min_chunk"),
        ("disk-concurrent", "workers"),
        ("ibs", "min_chunk"),
    ],
)
def test_unknown_option_raises(matcher, option):
    with pytest.raises(RegistryError, match=option):
        DEFAULT_REGISTRY.create_matcher(matcher, **{option: 1})


def test_options_of_another_matcher_are_still_accepted():
    # the uniform option set: a concurrent-only option is known, so an
    # ibs builder drops it instead of raising
    index = DEFAULT_REGISTRY.create_matcher(
        "ibs", compaction_threshold=8, stab_cache_size=8
    )
    assert index.name == "ibs"


@pytest.mark.parametrize("matcher", DEFAULT_REGISTRY.matchers())
def test_shared_options_reach_every_builder(matcher, tmp_path):
    options = {"estimator": None, "maintenance": MaintenancePolicy()}
    if matcher.startswith("disk"):
        options["data_dir"] = str(tmp_path)
    DEFAULT_REGISTRY.create_matcher(matcher, **options)


def test_auto_matcher_is_gone():
    assert "auto" not in DEFAULT_REGISTRY.matchers()
    with pytest.raises(RegistryError, match="unknown matcher 'auto'"):
        Database(matcher="auto")
    with pytest.raises(RuleError, match="unknown matcher strategy"):
        RuleEngine(Database(), matcher="auto")
