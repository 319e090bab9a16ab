import contextlib
import sys
import tempfile
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `reference` importable

FIXTURES = Path(__file__).parent.parent / "fixtures"

SESSION_START = time.monotonic()


def pytest_collection_modifyitems(items):
    """Run the acceptance module last so its wall-clock criterion can
    observe the rest of the suite."""
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def registry():
    from flowstable.prober import BlockpageRegistry

    return BlockpageRegistry.load((FIXTURES / "blockpages.json").read_text())


def load_script(name: str):
    """scripts/<name>.py as a module, its main() not run."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, FIXTURES.parent / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_fixture(name: str):
    from flowstable.simnet import load_topology

    return load_topology((FIXTURES / name).read_text())


def logged_matrices(log):
    """The verdict matrix per (destination, protocol) that log's run
    holds, read back from its file: run_rq2 returns only summaries."""
    from flowstable import logio

    return logio.read_run(log.path, log.run_id).verdicts


@contextlib.contextmanager
def scratch_log(run_id: str = "test", **meta):
    """A fresh run log read for run_id (logio.open_run), its meta record
    holding meta, in a temporary directory that goes when the block
    ends: run_rq1 and run_rq2 write every run to a log, and a log's
    reader draws its plans again from the seed its meta holds."""
    from flowstable import logio

    with tempfile.TemporaryDirectory() as directory:
        yield logio.open_run(Path(directory) / "run.log", run_id, **meta)


def flapping(topology, schedule):
    """A copy of topology whose every censor follows the given
    (epoch, health) schedule."""
    import dataclasses

    return dataclasses.replace(
        topology,
        censors=tuple(
            dataclasses.replace(rule, health_schedule=tuple(schedule))
            for rule in topology.censors
        ),
    )


@pytest.fixture
def sent_packets(monkeypatch):
    """Every packet any session sends while the test runs, in order."""
    from flowstable import prober

    sent = []
    send = prober.Session.send

    def recording_send(session, packet):
        sent.append(packet)
        return send(session, packet)

    monkeypatch.setattr(prober.Session, "send", recording_send)
    return sent


@pytest.fixture
def censor_events(monkeypatch):
    """Every censor event fired while the test runs, in order."""
    from flowstable import prober

    events = []
    forward = prober.forward

    def recording_forward(*args):
        result = forward(*args)
        events.extend(result.events)
        return result

    monkeypatch.setattr(prober, "forward", recording_forward)
    return events
