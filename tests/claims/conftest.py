"""The claims suite's one campaign, run cold once per session."""

import pytest

from .evidence import ChainEvidence, run_claims_campaign


@pytest.fixture(scope="session")
def chain_campaign(tmp_path_factory):
    """The fixed claims grid, run into a cache directory this session owns,
    so every verdict reflects the code under test."""
    result, _ = run_claims_campaign(str(tmp_path_factory.mktemp("claims-cache")))
    assert result.complete, [failed.error for failed in result.failed]
    return result


@pytest.fixture(scope="session")
def chain_evidence(chain_campaign):
    return ChainEvidence(chain_campaign)
