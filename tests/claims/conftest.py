"""The claims suite's three campaigns, each run cold once per session."""

import pytest

from .evidence import (
    ChainEvidence,
    CoexistenceEvidence,
    ExtensionEvidence,
    claims_grid,
    coexistence_grid,
    extensions_grid,
    run_claims_campaign,
)


def _cold(tmp_path_factory, name, grid):
    """``grid`` run into a cache directory this session owns, so every
    verdict reflects the code under test."""
    result, _ = run_claims_campaign(str(tmp_path_factory.mktemp(name)), grid)
    assert result.complete, [failed.error for failed in result.failed]
    return result


@pytest.fixture(scope="session")
def chain_campaign(tmp_path_factory):
    return _cold(tmp_path_factory, "claims-cache", claims_grid())


@pytest.fixture(scope="session")
def chain_evidence(chain_campaign):
    return ChainEvidence(chain_campaign)


@pytest.fixture(scope="session")
def coexistence_campaign(tmp_path_factory):
    return _cold(tmp_path_factory, "coexistence-cache", coexistence_grid())


@pytest.fixture(scope="session")
def coexistence_evidence(coexistence_campaign):
    return CoexistenceEvidence(coexistence_campaign)


@pytest.fixture(scope="session")
def extension_campaign(tmp_path_factory):
    return _cold(tmp_path_factory, "extensions-cache", extensions_grid())


@pytest.fixture(scope="session")
def extension_evidence(extension_campaign):
    return ExtensionEvidence(extension_campaign)
