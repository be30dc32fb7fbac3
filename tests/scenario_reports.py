"""Scenario runs for the tests, each into a report of its own."""

from ajclab import scenarios
from ajclab.reporting import ScenarioReport


def scenario_report(name, cfg):
    """The report that scenario ``name`` fills at ``cfg``: a new one, as
    :func:`ajclab.cli.run_scenario` builds it, with nothing written to disk.
    An exception of the scenario propagates."""
    report = ScenarioReport(name, cfg.to_dict())
    scenarios.SCENARIOS[name](report, cfg)
    return report
