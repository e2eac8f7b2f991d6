"""The import graph as a contract.

A process imports only the layers it runs: the package ``__init__`` files
export their public names lazily (PEP 562, ``repro._lazy_exports``), so
``import repro.x.y`` executes y's own dependency closure and nothing else.
Three things are pinned here:

(a) **layering** — which packages a fresh interpreter has loaded after
    importing an entry point (``docs/architecture.md``, "Import layers");
(b) **API parity** — every package still exports exactly the names, in the
    order, that its eager ``__all__`` listed, each the very object its
    defining submodule holds;
(c) **no per-access cost** — a resolved name lives in the package's globals,
    so the hook runs once per name.

Every case of (a) runs in a fresh interpreter: ``sys.modules`` of the test
process says nothing about what an import pulls in.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _modules_after(statement: str) -> set:
    """``sys.modules`` of a fresh interpreter that executed *statement*."""
    done = _python("-c", f"{statement}\nimport sys\nprint(sorted(sys.modules))")
    assert done.returncode == 0, done.stderr
    return set(eval(done.stdout.strip().splitlines()[-1]))


def _repro_modules_after(statement: str) -> set:
    return {m for m in _modules_after(statement) if m.startswith("repro")}


def _submodules(package: str) -> list:
    path = importlib.import_module(package).__path__
    return [f"{package}.{m.name}" for m in pkgutil.iter_modules(path) if m.name != "__main__"]


def _outside(loaded: set, allowed: tuple) -> set:
    """Members of *loaded* that no *allowed* entry covers: an entry names a
    module, and with a trailing ``.*`` a package and everything under it.
    Packages on the way to an allowed module are covered too (importing
    ``repro.obs.metrics`` executes the empty-bodied ``repro.obs``)."""
    covered = set()
    for entry in allowed:
        name = entry[:-2] if entry.endswith(".*") else entry
        while name:
            covered.add(name)
            name = name.rpartition(".")[0]
    subtrees = tuple(entry[:-1] for entry in allowed if entry.endswith(".*"))
    return {m for m in loaded if m not in covered and not m.startswith(subtrees)}


# -- (a) layering --------------------------------------------------------------

#: Package -> what importing *all* of its submodules may load from the rest of
#: ``repro`` (module-level imports only; an import inside a function is a
#: deliberate, deferred edge and is not part of the layer).  This is the table
#: in ``docs/architecture.md``.
LAYERS = {
    "repro.util": (),
    "repro.cache": (),
    # ``obs.profile`` reads the scheduler and the packet pool it measures; the
    # rest of ``obs`` imports nothing outside ``obs``.
    "repro.obs": ("repro.netsim.addresses", "repro.netsim.clock", "repro.netsim.packet",
                  "repro.util.errors"),
    "repro.netsim": ("repro.obs.metrics", "repro.util.*"),
    "repro.nat": ("repro.netsim.*", "repro.obs.metrics", "repro.util.*"),
    "repro.transport": ("repro.netsim.*", "repro.obs.metrics", "repro.util.*"),
    "repro.core": ("repro.transport.tcp", "repro.netsim.*", "repro.obs.metrics",
                   "repro.obs.spans", "repro.util.*"),
    "repro.natcheck": ("repro.cache.*", "repro.nat.*", "repro.transport.*", "repro.netsim.*",
                       "repro.obs.metrics", "repro.util.*"),
}


@pytest.mark.parametrize("package", sorted(LAYERS))
def test_package_loads_only_the_layers_below_it(package):
    statement = "import " + ", ".join(_submodules(package))
    loaded = _repro_modules_after(statement)
    assert not _outside(loaded, (f"{package}.*",) + LAYERS[package])


def test_obs_without_the_profiler_imports_nothing_outside_obs():
    names = [m for m in _submodules("repro.obs") if m != "repro.obs.profile"]
    loaded = _repro_modules_after("import " + ", ".join(names))
    assert not _outside(loaded, ("repro.obs.*",))


def test_import_repro_loads_no_subpackage():
    assert _repro_modules_after("import repro") == {"repro"}


def test_network_entry_point():
    loaded = _repro_modules_after("import repro.netsim.network")
    assert not _outside(loaded, ("repro.netsim.*", "repro.obs.metrics", "repro.util.*"))
    # Fault injection, chaos and the attackers are opt-in, not part of a Network.
    assert not loaded & {"repro.netsim.chaos", "repro.netsim.adversary", "repro.netsim.faults"}


def test_registry_entry_point():
    assert _repro_modules_after("import repro.core.registry") == {
        "repro", "repro.core", "repro.core.registry",
        "repro.netsim", "repro.netsim.addresses",
        "repro.obs", "repro.obs.metrics",
        "repro.util", "repro.util.errors",
    }


def test_fleet_entry_point():
    loaded = _repro_modules_after("import repro.natcheck.fleet")
    banned = ("repro.core", "repro.scenarios", "repro.analysis")
    assert not {m for m in loaded if m.startswith(banned)}
    assert not loaded & {
        "repro.netsim.chaos", "repro.netsim.adversary", "repro.netsim.faults",
        "repro.obs.export", "repro.obs.flight_export", "repro.obs.profile", "repro.obs.spans",
    }


def test_fleet_import_does_not_load_pathlib():
    """``pathlib`` (and the ``urllib.parse`` it drags in) is imported where the
    result store and source hashing use it.  A ``.pth`` file or a later
    CPython may preload either, so compare with a bare interpreter of this
    environment instead of assuming."""
    bare = _modules_after("pass")
    added = _modules_after("import repro.natcheck.fleet") - bare
    assert not added & {"pathlib", "urllib.parse"}


def test_topologies_entry_point():
    loaded = _repro_modules_after("import repro.scenarios.topologies")
    banned = ("repro.natcheck", "repro.analysis", "repro.cache")
    assert not {m for m in loaded if m.startswith(banned)}
    assert not _outside(
        {m for m in loaded if m.startswith(("repro.netsim", "repro.obs"))},
        ("repro.netsim.addresses", "repro.netsim.clock", "repro.netsim.link",
         "repro.netsim.network", "repro.netsim.node", "repro.netsim.packet",
         "repro.netsim.routing", "repro.netsim.trace", "repro.obs.metrics", "repro.obs.spans"),
    )


# -- CLI entry points ----------------------------------------------------------


def test_natcheck_list_does_not_import_the_simulator():
    wrapper = (
        "import runpy, sys\n"
        "sys.argv = ['natcheck', '--list']\n"
        "try:\n"
        "    runpy.run_module('repro.natcheck', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    done = _python("-c", wrapper)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert any(line.startswith("well-behaved") for line in lines)
    code, _, loaded = lines[-1].partition(" ")
    assert code == "0"
    loaded = set(eval(loaded))
    assert "repro.nat.behavior" in loaded
    assert not {m for m in loaded if m.startswith("repro.transport")}
    assert "repro.natcheck.fleet" not in loaded


@pytest.mark.parametrize("module", ["repro.analysis", "repro.natcheck"])
def test_usage_line_names_the_module(module):
    done = _python("-m", module, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: python -m {module} ")
    bad = _python("-m", module, "--no-such-option")
    assert bad.returncode == 2
    assert bad.stderr.startswith(f"usage: python -m {module} ")


# -- (b) API parity ------------------------------------------------------------

#: A literal copy of what each package exported when its ``__init__`` imported
#: eagerly: name -> defining submodule, in ``__all__`` order.  Not derived from
#: the packages' own tables — it is what they are checked against.
EXPORTS = {
    "repro": {
        "PeerClient": "core.client", "P2PConnector": "core.connector",
        "RendezvousServer": "core.rendezvous", "Endpoint": "netsim.addresses",
        "Network": "netsim.network", "NatBehavior": "nat.behavior",
        "NatDevice": "nat.device", "__version__": None,
    },
    "repro.analysis": {"ReportSection": "report", "generate_report": "report"},
    "repro.cache": {
        "CACHE_DIR_ENV": "store", "Fingerprint": "fingerprint", "RECORD_FORMAT": "store",
        "ResultCache": "store", "SUITE_PACKAGES": "fingerprint",
        "behavior_fingerprint": "fingerprint", "canonical_json": "fingerprint",
        "canonicalize": "fingerprint", "default_cache_dir": "store",
        "hash_sources": "fingerprint", "mix_seed": "fingerprint",
        "suite_sources": "fingerprint", "suite_version": "fingerprint",
    },
    "repro.core": {
        "PeerClient": "client", "FailoverConfig": "failover", "ServerFailover": "failover",
        "ConnectOutcome": "connector", "ConnectResult": "connector",
        "P2PConnector": "connector", "RetryPolicy": "connector",
        "RendezvousServer": "rendezvous", "RelaySession": "relay",
        "UdpHolePuncher": "udp_punch", "UdpSession": "udp_punch",
        "TcpHolePuncher": "tcp_punch", "TcpStream": "tcp_punch",
    },
    "repro.nat": {
        "FilteringPolicy": "policy", "MappingPolicy": "policy", "PortAllocation": "policy",
        "TcpRefusalPolicy": "policy", "NatBehavior": "behavior", "NatMapping": "mapping",
        "NatTable": "mapping", "NatDevice": "device",
    },
    "repro.natcheck": {
        "DiscoveryResult": "discovery", "NatDiscovery": "discovery",
        "NatCheckReport": "classify", "NatCheckClient": "client", "NatCheckConfig": "client",
        "FleetCacheStats": "fleet", "FleetResult": "fleet", "VendorSpec": "fleet",
        "VENDOR_SPECS": "fleet", "device_fingerprint": "fleet", "device_seed": "fleet",
        "resolve_workers": "fleet", "run_fleet": "fleet", "scale_population": "fleet",
        "NatCheckServers": "servers", "Table1Row": "table", "render_table1": "table",
        "table1_rows": "table",
    },
    "repro.netsim": {
        "Endpoint": "addresses", "IPv4Address": "addresses", "IPv4Network": "addresses",
        "AddressPool": "addresses", "is_private": "addresses", "Scheduler": "clock",
        "Timer": "clock", "AttemptTracker": "chaos", "ChaosConfig": "chaos",
        "check_invariants": "chaos", "random_fault_plan": "chaos",
        "trace_fingerprint": "chaos", "FaultEvent": "faults", "FaultInjector": "faults",
        "FaultPlan": "faults", "Link": "link", "LinkProfile": "link", "Network": "network",
        "Host": "node", "Node": "node", "Router": "node", "IcmpError": "packet",
        "IpProtocol": "packet", "Packet": "packet", "TcpFlags": "packet",
        "TcpHeader": "packet", "RoutingTable": "routing", "PacketTrace": "trace",
        "TraceRecord": "trace",
    },
    "repro.obs": {
        "Attempt": "flight", "CATEGORIES": "attribution", "CAT_FILTERED": "attribution",
        "CAT_HAIRPIN": "attribution", "CAT_LOSS": "attribution",
        "CAT_NAT_REBOOT": "attribution", "CAT_NONE": "attribution", "CAT_RST": "attribution",
        "CAT_SERVER_DEAD": "attribution", "CAT_SYMMETRIC": "attribution",
        "CAT_TIMEOUT": "attribution", "CAT_UNKNOWN": "attribution", "Counter": "metrics",
        "FlightEvent": "flight", "FlightRecorder": "flight", "Gauge": "metrics",
        "Histogram": "metrics", "MetricsRegistry": "metrics", "RunProfiler": "profile",
        "Span": "spans", "Verdict": "attribution", "explain": "attribution",
        "explain_all": "attribution", "from_chrome_trace": "flight_export",
        "from_jsonl": "flight_export", "render_verdict": "attribution",
        "to_chrome_trace": "flight_export", "to_jsonl": "flight_export",
        "write_flight_files": "flight_export", "NULL_SPAN": "spans",
        "OUTCOME_ERROR": "spans", "OUTCOME_FALLBACK": "spans", "OUTCOME_LOCKED": "spans",
        "OUTCOME_MIGRATED": "spans", "OUTCOME_OK": "spans", "OUTCOME_TIMEOUT": "spans",
        "format_metric_name": "metrics", "from_json": "export", "render_text": "export",
        "summarize_for_report": "export", "summarize_values": "export", "to_json": "export",
    },
    "repro.scenarios": {
        "Scenario": "topologies", "build_common_nat": "topologies",
        "build_multilevel": "topologies", "build_one_sided": "topologies",
        "build_public_pair": "topologies", "build_sharded_pool": "topologies",
        "build_two_nats": "topologies",
    },
    "repro.transport": {
        "HostStack": "stack", "attach_stack": "stack", "TcpConnection": "tcp",
        "TcpListener": "tcp", "TcpStack": "tcp", "TcpState": "tcp", "TcpStyle": "tcp",
        "UdpSocket": "udp", "UdpStack": "udp", "ReuseSocket": "sockets",
        "SocketApi": "sockets",
    },
    "repro.util": {
        "ReproError": "errors", "AddressError": "errors", "BindError": "errors",
        "ConnectionError_": "errors", "ProtocolError": "errors", "RoutingError": "errors",
        "TimeoutError_": "errors", "SeededRng": "rng",
    },
}

PACKAGES = sorted(EXPORTS)


def test_every_package_is_covered():
    found = {"repro"} | {
        m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg
    }
    assert found == set(EXPORTS)
    assert sum(len(table) for table in EXPORTS.values()) == 159


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_the_same_names_in_the_same_order(package):
    module = importlib.import_module(package)
    assert module.__all__ == list(EXPORTS[package])
    assert set(EXPORTS[package]) <= set(dir(module))
    assert dir(module) == sorted(set(dir(module)))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_the_object_its_submodule_defines(package):
    module = importlib.import_module(package)
    for name, submodule in EXPORTS[package].items():
        if submodule is None:
            assert name in vars(module)
            continue
        defined = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        assert getattr(module, name) is defined, name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_the_exports(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(EXPORTS[package])
    module = importlib.import_module(package)
    assert all(namespace[name] is getattr(module, name) for name in namespace)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    for name in ("no_such_name", "NoSuchClass", "_private", "__wrapped__"):
        with pytest.raises(AttributeError, match=f"module '{package}' has no attribute '{name}'"):
            getattr(module, name)
        assert not hasattr(module, name)
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


def test_a_submodule_that_fails_to_import_is_not_reported_as_a_missing_attribute(
    tmp_path, monkeypatch
):
    """Only "the submodule itself does not exist" becomes ``AttributeError``;
    a submodule whose own import is broken must say so."""
    (tmp_path / "broken.py").write_text("import no_such_dependency_anywhere\n")
    import repro.util

    monkeypatch.setattr(repro.util, "__path__", [*repro.util.__path__, str(tmp_path)])
    with pytest.raises(ModuleNotFoundError, match="no_such_dependency_anywhere"):
        repro.util.broken


def test_submodules_resolve_after_a_bare_package_import():
    """``import repro.netsim`` then ``repro.netsim.chaos``: eager imports used
    to bind every submodule as a side effect; the hook's fallback keeps it."""
    script = ["import sys"]
    for package in PACKAGES:
        for submodule in _submodules(package):
            script.append(f"import {package}")
            script.append(f"assert {submodule} is sys.modules[{submodule!r}]")
    # First of all, one that nothing else would have loaded on the way.
    script.insert(1, "import repro.netsim\nassert repro.netsim.chaos.ChaosConfig\n"
                     "assert 'chaos' in vars(repro.netsim)")
    done = _python("-c", "\n".join(script))
    assert done.returncode == 0, done.stderr


# -- (c) no per-access cost ----------------------------------------------------


@pytest.mark.parametrize("package", PACKAGES)
def test_the_hook_runs_once_per_name(package, monkeypatch):
    module = importlib.import_module(package)
    hook, calls = vars(module)["__getattr__"], []

    def counting(name):
        calls.append(name)
        return hook(name)

    monkeypatch.setitem(vars(module), "__getattr__", counting)
    for name, submodule in EXPORTS[package].items():
        if submodule is None:
            continue
        monkeypatch.delitem(vars(module), name, raising=False)  # as in a fresh process
        first = getattr(module, name)
        assert vars(module)[name] is first
        assert getattr(module, name) is first
        assert calls.count(name) == 1
