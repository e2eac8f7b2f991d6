"""The import graph as a contract.

A process imports only the layers it runs: the package ``__init__`` files
export their public names lazily (PEP 562, ``repro._lazy_exports``), so
``import repro.x.y`` executes y's own dependency closure and nothing else.
Pinned here, with (d)-(f) read from the ``ast`` of the tree:

(a) **layering** — which packages a fresh interpreter has loaded after
    importing an entry point (``docs/architecture.md``, "Import layers");
(b) **API parity** — every package still exports exactly the names, in the
    order, that its eager ``__all__`` listed, each the very object its
    defining submodule holds;
(c) **no per-access cost** — a resolved name lives in the package's globals,
    so the hook runs once per name;
(d) **nothing only tests reach** — every ``def`` and ``class`` in ``src/``
    is named somewhere outside its own body in ``src/``, ``benchmarks/`` or
    ``examples/``, and every ``*Config`` / ``*Policy`` dataclass field is set
    by one of them, unless :data:`KEEP` / :data:`KEEP_FIELDS` says why not;
(e) **no write-only state** — every ``self.<attr>`` that ``src/`` stores is
    read somewhere in ``src/``, ``benchmarks/``, ``examples/`` or ``tests/``
    (through ``self`` only by its own class, a base or a subclass), unless
    :data:`KEEP_ATTRS` says why not;
(f) **no option nothing passes** — every parameter with a default on a
    ``src/`` function is passed, other than as its default, by some call in
    ``src/``, ``benchmarks/``, ``examples/`` or ``tests/``, unless
    :data:`KEEP_PARAMS` says why not: one value in use is a constant.

Every case of (a) runs in a fresh interpreter: ``sys.modules`` of the test
process says nothing about what an import pulls in.
"""

import ast
import importlib
import os
import pkgutil
import re
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
                   "repro.util.*"),
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
    # Fault injection and the attackers are opt-in, not part of a Network.
    assert not loaded & {"repro.netsim.adversary", "repro.netsim.faults"}


def test_registry_entry_point():
    assert _repro_modules_after("import repro.core.registry") == {
        "repro", "repro.core", "repro.core.registry",
        "repro.netsim", "repro.netsim.addresses",
        "repro.util", "repro.util.errors",
    }


def test_fleet_entry_point():
    loaded = _repro_modules_after("import repro.natcheck.fleet")
    banned = ("repro.core", "repro.scenarios", "repro.analysis")
    assert not {m for m in loaded if m.startswith(banned)}
    assert not loaded & {
        "repro.netsim.adversary", "repro.netsim.faults", "repro.obs.export", "repro.obs.flight_export", "repro.obs.profile",
    }


def test_fleet_import_does_not_load_pathlib():
    """Importing the fleet loads neither ``pathlib`` nor the ``urllib.parse``
    it drags in: nothing on the fleet path touches files.  A ``.pth`` file
    or a later CPython may preload either, so compare with a bare
    interpreter of this environment instead of assuming."""
    bare = _modules_after("pass")
    added = _modules_after("import repro.natcheck.fleet") - bare
    assert not added & {"pathlib", "urllib.parse"}


def test_topologies_entry_point():
    loaded = _repro_modules_after("import repro.scenarios.topologies")
    banned = ("repro.natcheck", "repro.analysis", "repro.cache")
    assert not {m for m in loaded if m.startswith(banned)}
    # S keeps two dicts; the scale-out registration plane is not part of it.
    assert "repro.core.registry" not in loaded
    assert not _outside(
        {m for m in loaded if m.startswith(("repro.netsim", "repro.obs"))},
        ("repro.netsim.addresses", "repro.netsim.clock", "repro.netsim.link",
         "repro.netsim.network", "repro.netsim.node", "repro.netsim.packet",
         "repro.netsim.routing", "repro.obs.metrics"),
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
    "repro.analysis": {
        "ReportSection": "report", "render_report": "report", "report_sections": "report",
    },
    "repro.cache": {
        "Fingerprint": "fingerprint", "behavior_fingerprint": "fingerprint",
        "canonical_json": "fingerprint", "canonicalize": "fingerprint",
        "mix_seed": "fingerprint",
    },
    "repro.core": {
        "PeerClient": "client",
        "ConnectOutcome": "connector", "ConnectResult": "connector",
        "P2PConnector": "connector",
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
        "VENDOR_SPECS": "fleet", "device_fingerprint": "fleet", "run_fleet": "fleet",
        "NatCheckServers": "servers", "Table1Row": "table",
        "render_table1": "table", "table1_rows": "table",
    },
    "repro.netsim": {
        "Endpoint": "addresses", "IPv4Address": "addresses", "IPv4Network": "addresses",
        "is_private": "addresses", "Scheduler": "clock",
        "Timer": "clock", "FaultEvent": "faults", "FaultInjector": "faults",
        "FaultPlan": "faults", "Link": "link", "LinkProfile": "link", "Network": "network",
        "Host": "node", "Node": "node", "Router": "node", "IcmpError": "packet",
        "IpProtocol": "packet", "Packet": "packet", "TcpFlags": "packet",
        "TcpHeader": "packet", "RoutingTable": "routing",
    },
    "repro.obs": {
        "Attempt": "flight", "CATEGORIES": "attribution", "CAT_FILTERED": "attribution",
        "CAT_HAIRPIN": "attribution", "CAT_LOSS": "attribution",
        "CAT_NAT_REBOOT": "attribution", "CAT_NONE": "attribution", "CAT_RST": "attribution",
        "CAT_SERVER_DEAD": "attribution", "CAT_SYMMETRIC": "attribution",
        "CAT_TIMEOUT": "attribution", "CAT_UNKNOWN": "attribution", "Counter": "metrics",
        "FlightEvent": "flight", "FlightRecorder": "flight",
        "Histogram": "metrics", "MetricsRegistry": "metrics", "RunProfiler": "profile",
        "Verdict": "attribution", "explain": "attribution",
        "render_verdict": "attribution",
        "to_chrome_trace": "flight_export", "to_jsonl": "flight_export",
        "write_flight_files": "flight_export",
        "format_metric_name": "metrics", "summarize_for_report": "export", "to_json": "export",
    },
    "repro.scenarios": {
        "Scenario": "topologies", "build_common_nat": "topologies",
        "build_multilevel": "topologies", "build_one_sided": "topologies",
        "build_public_pair": "topologies", "build_two_nats": "topologies",
    },
    "repro.transport": {
        "HostStack": "stack", "attach_stack": "stack", "TcpConnection": "tcp",
        "TcpListener": "tcp", "TcpStack": "tcp", "TcpState": "tcp", "TcpStyle": "tcp",
        "UdpSocket": "udp", "UdpStack": "udp",
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
    assert sum(len(table) for table in EXPORTS.values()) == 120


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
    """``import repro.netsim`` then ``repro.netsim.adversary``: eager imports used
    to bind every submodule as a side effect; the hook's fallback keeps it."""
    script = ["import sys"]
    for package in PACKAGES:
        for submodule in _submodules(package):
            script.append(f"import {package}")
            script.append(f"assert {submodule} is sys.modules[{submodule!r}]")
    # First of all, one that nothing else would have loaded on the way.
    script.insert(1, "import repro.netsim\nassert repro.netsim.adversary.ExhaustionFlood\n"
                     "assert 'adversary' in vars(repro.netsim)")
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


# -- (d) nothing only tests reach ------------------------------------------------

_REPO = os.path.dirname(_SRC)

#: Where a use counts: the library, the benchmarks and the examples.  A name
#: only ``tests/`` reaches is dead weight the suite keeps alive.
SCANNED = ("src", "benchmarks", "examples")

#: Definitions in ``src/`` that nothing outside ``tests/`` names, each kept on
#: purpose.  A key is a module plus a qualified name; a module or class key
#: covers everything defined inside it.
KEEP = {
    "repro.obs.metrics.MetricsRegistry.counter_value": "the metrics read API tests assert through",
    "repro.core.rendezvous.RendezvousServer.registration":
        "the registration read API tests assert through",
    "repro.netsim.clock.Scheduler.step": "public drive API: fire one event",
    "repro.netsim.packet.Packet.stow": "the packet-pool contract until ROADMAP item 2 decides the pool",
    "repro.netsim.network.Network.metrics_json":
        "named in benchmarks/e2e/README.md, which only a benchmark change edits",
    "repro.core.registry.shard_of":
        "placement stated once; tests/test_registry.py checks ShardedRegistry's "
        "inline crc32 against it",
    "repro.netsim.addresses.Endpoint.obfuscated":
        "the §3.1 / §5.3 endpoint obfuscation stated once; tests/test_protocol.py "
        "checks the codec's compiled mask against it",
    "repro.scenarios.topologies.build_public_pair":
        "exported scenario builder seven test modules stand on; moving it is not deleting it",
}

#: ``*Config`` / ``*Policy`` fields nothing outside ``tests/`` sets, each kept
#: on purpose.
KEEP_FIELDS = {
    **{
        f"NatCheckConfig.{name}": "device_fingerprint canonicalises the whole config "
            "into each Table 1 device's seed: dropping a field re-seeds every device"
        for name in ("secondary_port", "udp_wait", "hairpin_wait", "tcp_echo_wait",
                     "tcp_connect_wait")
    },
    "TcpPunchConfig.select_delay": "ROADMAP item 13 deletes it with the settle window",
}


#: A repository file cited in a keep reason.
_CITED = r"[\w./-]+\.(?:py|md|json|toml|yml|txt)"


def test_keep_reasons_cite_files_that_name_what_they_keep():
    """A reason cites a file, never a line of one (line numbers drift), and
    each file it cites exists and names the last component of what it keeps,
    so a reason cannot outlive the text it points at."""
    for table in (KEEP, KEEP_FIELDS, KEEP_ATTRS, KEEP_PARAMS):
        for kept, reason in table.items():
            assert not re.search(_CITED + r":\d", reason), (kept, reason)
            name = kept.rpartition(".")[2]
            for cited in re.findall(_CITED, reason):
                path = os.path.join(_REPO, cited)
                assert os.path.isfile(path), (kept, cited)
                with open(path, encoding="utf-8") as handle:
                    assert name in handle.read(), (kept, cited)


def _parsed(root: str, tops: tuple = SCANNED):
    """``(module, path, tree)`` for every Python file under *root*'s *tops*
    directories; *module* is dotted for ``src/`` only."""
    for top in tops:
        for folder, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                module = None
                if top == "src":
                    parts = os.path.relpath(path, os.path.join(root, "src"))[:-3].split(os.sep)
                    module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
                yield module, path, tree


def _export_table_keys(tree) -> set:
    """The key strings of every ``_lazy_exports(name, {...})`` table: a name
    reachable only from there is exported, not used."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_exports":
            for arg in node.args:
                if isinstance(arg, ast.Dict):
                    keys.update(id(key) for key in arg.keys)
    return keys


def _definitions(module: str, tree):
    """``(qualified name, node)`` for every non-dunder def/class in *tree*."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((qualified, child))
                visit(child, qualified)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def _config_fields(tree):
    """``Class.field`` names of the ``*Config`` / ``*Policy`` dataclasses."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Policy"))):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and "ClassVar" not in ast.dump(statement.annotation)
            ):
                yield f"{node.name}.{statement.target.id}"


def scan(root: str = _REPO):
    """``(unused, unset)``: qualified names of the ``src/`` definitions whose
    name nothing in :data:`SCANNED` uses outside the definition itself, and
    the config fields no call sets by keyword and no code sets by attribute
    store.

    Uses are collected by name from the ``ast`` — a load, an attribute, an
    imported name, or an identifier string (``getattr`` dispatch) outside an
    export table — so expressions inside f-strings count, the same on every
    Python the package supports.  Matching by name over-approximates use: a
    definition sharing its name with anything used survives the scan."""
    definitions, fields = [], []
    uses, sets = {}, set()
    for module, path, tree in _parsed(root):
        if module is not None:
            definitions.extend((name, path, node) for name, node in _definitions(module, tree))
            fields.extend(_config_fields(tree))
        exported = _export_table_keys(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
                if isinstance(node.ctx, ast.Store):
                    sets.add(name)
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.keyword):
                sets.add(node.arg)
                continue
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in exported
            ):
                name = node.value
            else:
                continue
            uses.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    unused = []
    for qualified, path, node in definitions:
        inside = range(node.lineno, node.end_lineno + 1)
        if all(where == path and line in inside for where, line in uses.get(node.name, ())):
            unused.append(qualified)
    return unused, [field for field in fields if field.rpartition(".")[2] not in sets]


def _kept(qualified: str):
    """The :data:`KEEP` key that covers *qualified*, if any."""
    return next((key for key in KEEP if qualified == key or qualified.startswith(key + ".")), None)


@pytest.fixture(scope="module")
def repo_scan():
    return scan()


def test_every_definition_is_reached_outside_tests(repo_scan):
    unused, _ = repo_scan
    assert [name for name in unused if _kept(name) is None] == []
    # An entry that no longer covers anything unused is stale: delete it.
    assert set(KEEP) == {_kept(name) for name in unused} - {None}


def test_every_config_field_is_set_outside_tests(repo_scan):
    _, unset = repo_scan
    assert sorted(unset) == sorted(KEEP_FIELDS)


def test_the_scan_counts_f_strings_and_not_export_tables(tmp_path):
    """The scan itself: a name used only inside an f-string is used (a
    tokenizer that sees an f-string as one STRING token, as Python 3.11's
    does, would call it dead); a name only an export table lists is not; and
    one uncalled method is caught."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro import _lazy_exports\n"
        "__getattr__, __dir__, __all__ = _lazy_exports(__name__, {'exported': 'mod'})\n"
    )
    (package / "mod.py").write_text(
        "def _yn(flag):\n"
        "    return 'yes' if flag else 'no'\n"
        "\n"
        "def exported():\n"
        "    return exported\n"
        "\n"
        "class Shown:\n"
        "    def __repr__(self):\n"
        "        return f'Shown({_yn(True)})'\n"
        "\n"
        "    def uncalled(self):\n"
        "        return self\n"
    )
    unused, _ = scan(str(tmp_path))
    assert unused == ["pkg.mod.exported", "pkg.mod.Shown", "pkg.mod.Shown.uncalled"]
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from pkg.mod import Shown\nprint(Shown())\n")
    assert scan(str(tmp_path))[0] == ["pkg.mod.exported", "pkg.mod.Shown.uncalled"]


@pytest.mark.parametrize("module, name", [("repro.obs.export", "_format_value"),
                                          ("repro.natcheck.classify", "_yn")])
def test_the_scan_reads_the_real_f_string_users(repo_scan, module, name):
    """Two helpers that are used only inside f-strings: the scan sees them."""
    assert callable(getattr(importlib.import_module(module), name))
    assert f"{module}.{name}" not in repo_scan[0]


# -- (e) no write-only state -----------------------------------------------------

#: Where a read counts: everything (d) scans, and the tests too — a counter
#: only a test asserts on is still a reading of it.
READERS = SCANNED + ("tests",)

#: ``self.<attr>`` stores in ``src/`` that nothing reads, each kept on purpose.
KEEP_ATTRS: dict = {}


def _related_classes(bases: dict) -> dict:
    """Class name -> itself, its bases and its subclasses, transitively, by
    name (*bases* maps a class name to the names it derives from)."""

    def ancestors(name, seen):
        for base in bases.get(name, ()):
            if base not in seen:
                seen.add(base)
                ancestors(base, seen)
        return seen

    related = {}
    for name in bases:
        for ancestor in ancestors(name, {name}):
            related.setdefault(name, {name}).add(ancestor)
            related.setdefault(ancestor, {ancestor}).add(name)
    return related


def write_only(root: str = _REPO) -> list:
    """Sorted ``Class.attr`` of the attributes ``src/`` stores as
    ``self.<attr>`` (an assignment, annotated or augmented) inside a class
    that nothing in :data:`READERS` reads.

    A ``self.<attr>`` load is a read only for the class it sits in, that
    class's bases and its subclasses (matched by class name), so a class
    cannot keep another class's unrelated attribute alive by reading its own
    attribute of the same name.  Any other attribute load — ``obj.attr`` — is
    a read by name for every class, and so is a string constant spelled like
    the attribute, so a collector that reads by name through ``getattr``
    counts.  ``self.n += 1`` alone is no read: a counter nobody looks at is
    write-only however often it is bumped."""
    stored, self_reads, read, bases = set(), set(), set(), {}

    def visit(node, owner, in_src):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases.setdefault(child.name, set()).update(
                    getattr(base, "id", getattr(base, "attr", None)) for base in child.bases
                )
                visit(child, child.name, in_src)
                continue
            if isinstance(child, ast.Attribute):
                on_self = (
                    owner is not None
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "self"
                )
                if isinstance(child.ctx, ast.Load):
                    if on_self:
                        self_reads.add((owner, child.attr))
                    else:
                        read.add(child.attr)
                elif on_self and in_src and isinstance(child.ctx, ast.Store):
                    stored.add((owner, child.attr))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                read.add(child.value)
            visit(child, owner, in_src)

    for module, _, tree in _parsed(root, READERS):
        visit(tree, None, module is not None)
    related = _related_classes(bases)
    return sorted(
        f"{owner}.{attr}"
        for owner, attr in stored
        if attr not in read
        and not any((other, attr) in self_reads for other in related.get(owner, {owner}))
    )


def test_every_stored_attribute_is_read():
    assert write_only() == sorted(KEEP_ATTRS)


def test_the_write_only_scan_counts_loads_and_getattr_names(tmp_path):
    """The scan itself: a counter only bumped is write-only, one a test
    reads or a collector fetches by name is not."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Counted:\n"
        "    def __init__(self):\n"
        "        self.bumped = 0\n"
        "        self.asserted = 0\n"
        "        self.collected: int = 0\n"
        "\n"
        "    def tick(self):\n"
        "        self.bumped += 1\n"
        "        self.asserted += 1\n"
        "\n"
        "def collect(obj):\n"
        "    return getattr(obj, 'collected')\n"
    )
    assert write_only(str(tmp_path)) == ["Counted.asserted", "Counted.bumped"]
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Counted\n"
        "def test_it():\n"
        "    counted = Counted()\n"
        "    counted.tick()\n"
        "    assert counted.asserted == 1\n"
    )
    assert write_only(str(tmp_path)) == ["Counted.bumped"]


def test_the_write_only_scan_reads_self_loads_by_class(tmp_path):
    """A ``self.<attr>`` load reads only its own class's attribute, its
    bases' and its subclasses': ``B`` reading its own ``_x`` does not keep
    ``A._x`` alive, while ``Child`` reading the ``_y`` its base stores
    does."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._x = 1\n"
        "        self._y = 2\n"
        "\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self._x = 3\n"
        "\n"
        "    def get(self):\n"
        "        return self._x\n"
        "\n"
        "class Child(A):\n"
        "    def get(self):\n"
        "        return self._y\n"
    )
    assert write_only(str(tmp_path)) == ["A._x"]


# -- (f) no option nothing passes -------------------------------------------------

#: ``src/`` parameters with a default that no call passes, each kept on
#: purpose.  A key is a module, the function's qualified name and the
#: parameter.
KEEP_PARAMS: dict = {}

_NOT_LITERAL = object()


def _literal(node):
    """``(type, value)`` of a literal expression, else :data:`_NOT_LITERAL`."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return _NOT_LITERAL
    return type(value), value


class _Function:
    """One ``def``: the parameters a call binds by position and by name."""

    def __init__(self, label, node, is_method):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        self.label = label
        self.positional = positional[1:] if is_method else positional
        self.params = set(positional) | {a.arg for a in args.kwonlyargs}
        self.defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        self.defaults.update(
            (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )
        self.kwarg = args.kwarg.arg if args.kwarg else None


def _bound(function) -> set:
    """Names *function* binds: its parameters and every name it stores."""
    args = function.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return {a.arg for a in named if a is not None} | {
        node.id for node in ast.walk(function)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def _value_uses(tree, names: set, attributes: set, local=frozenset()) -> None:
    """Add to *names* / *attributes* what *tree* loads as a value: anywhere
    but a call's callee, an attribute's base, an annotation, an
    ``isinstance`` argument, a base-class list or an ``except`` clause.  A
    name the enclosing function binds itself is a local, not a ``def``."""
    if isinstance(tree, ast.Name):
        if isinstance(tree.ctx, ast.Load) and tree.id not in local:
            names.add(tree.id)
        return
    skipped = set()
    if isinstance(tree, ast.Attribute):
        if isinstance(tree.ctx, ast.Load):
            attributes.add(tree.attr)
        _reference(tree.value, names, attributes, local)
        return
    if isinstance(tree, ast.Call):
        _reference(tree.func, names, attributes, local)
        skipped.add(id(tree.func))
        if getattr(tree.func, "id", None) in ("isinstance", "issubclass"):
            skipped.update(id(arg) for arg in tree.args[1:])
    elif isinstance(tree, ast.ClassDef):
        skipped.update(id(node) for node in tree.bases + tree.keywords)
    elif isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        skipped.add(id(tree.returns))
        local = local | _bound(tree)
    elif isinstance(tree, (ast.arg, ast.AnnAssign)):
        skipped.add(id(tree.annotation))
    elif isinstance(tree, ast.ExceptHandler):
        skipped.add(id(tree.type))
    for child in ast.iter_child_nodes(tree):
        if id(child) not in skipped:
            _value_uses(child, names, attributes, local)


def _reference(tree, names: set, attributes: set, local) -> None:
    """A callee or an attribute's base: its ``a.b.c`` chain is no value, but
    what the chain starts from may hold some (``f(x).b``: ``x``)."""
    while isinstance(tree, ast.Attribute):
        tree = tree.value
    if not isinstance(tree, ast.Name):
        _value_uses(tree, names, attributes, local)


def unpassed(root: str = _REPO) -> list:
    """Sorted ``module.qualname.param`` of the ``src/`` parameters with a
    default that no call in :data:`READERS` passes.

    Calls match a ``def`` by name, and a class name matches its ``__init__``
    (its bases' when it defines none), so name collisions err toward
    "passed"; so does a ``*args`` or ``**mapping`` argument, which passes
    everything it could bind.  A literal equal to the default is no pass.
    A forward counts only when what it forwards is itself passed: an
    argument that is the calling function's own parameter of the same name,
    or its own ``**kwargs``, which forwards each keyword the caller gets
    beyond its named parameters.  A function that code outside ``tests/``
    uses as a value (a callback, a ``call_later`` target) has every
    parameter passed.  An attribute name that code also stores
    (``self.connect = ...``) is data where it is loaded, not a bound
    method."""
    functions, inits, bases, defined, trees = {}, {}, {}, {}, []

    def collect(node, prefix, owner, in_src):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases.setdefault(child.name, set()).update(
                    getattr(b, "id", getattr(b, "attr", None)) for b in child.bases
                )
                collect(child, f"{prefix}.{child.name}", child, in_src)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{prefix}.{child.name}"
                is_method = node is owner and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list
                )
                fn = defined[id(child)] = _Function(qualified if in_src else None, child, is_method)
                if is_method and child.name == "__init__":
                    inits.setdefault(owner.name, []).append(fn)
                else:
                    functions.setdefault(child.name, []).append(fn)
                collect(child, qualified, owner, in_src)
            else:
                collect(child, prefix, owner, in_src)

    for module, path, tree in _parsed(root, READERS):
        collect(tree, module or path, None, module is not None)
        trees.append((os.path.relpath(path, root).split(os.sep)[0] == "tests", tree))

    def constructors(name, seen=()):
        if name in inits:
            return inits[name]
        return [fn for base in bases.get(name, ()) if base not in seen
                for fn in constructors(base, (*seen, name))]

    def callees(name):
        return functions.get(name, []) + constructors(name)

    passed, forwards, kwargs_to = set(), {}, {}

    def bind(fn, param, value, caller):
        default, literal = fn.defaults.get(param), _literal(value)
        if default is not None and literal is not _NOT_LITERAL and literal == _literal(default):
            return
        if (caller is not None and isinstance(value, ast.Name) and value.id == param
                and param in caller.defaults):
            forwards.setdefault((caller, param), []).append((fn, param))
        else:
            passed.add((fn, param))

    def scan_calls(node, caller, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func, targets = child.func, []
                if isinstance(func, ast.Name):
                    targets = callees(func.id)
                elif isinstance(func, ast.Attribute):
                    on_super = getattr(getattr(func.value, "func", None), "id", None) == "super"
                    if func.attr == "__init__" and on_super and owner is not None:
                        targets = [fn for b in bases[owner.name] for fn in constructors(b)]
                    else:
                        targets = callees(func.attr)
                for fn in targets:
                    for index, arg in enumerate(child.args):
                        if isinstance(arg, ast.Starred):
                            passed.update((fn, p) for p in fn.positional[index:])
                            break
                        if index < len(fn.positional):
                            bind(fn, fn.positional[index], arg, caller)
                    for keyword in child.keywords:
                        if keyword.arg is not None:
                            bind(fn, keyword.arg, keyword.value, caller)
                        elif (caller is not None and caller.kwarg is not None
                              and getattr(keyword.value, "id", None) == caller.kwarg):
                            kwargs_to.setdefault(caller, []).append(fn)
                        else:
                            passed.update((fn, p) for p in fn.defaults)
            scan_calls(
                child,
                defined.get(id(child), caller),
                child if isinstance(child, ast.ClassDef) else owner,
            )

    values, attributes = set(), set()
    for in_tests, tree in trees:
        scan_calls(tree, None, None)
        if not in_tests:
            _value_uses(tree, values, attributes)
    stored = {
        node.attr
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    for name in values | (attributes - stored):
        for fn in callees(name):
            passed.update((fn, p) for p in fn.defaults)
    work = list(passed)
    while work:  # a forward passes once what it forwards is passed
        fn, param = work.pop()
        targets = forwards.get((fn, param), [])
        if param not in fn.params:
            targets = targets + [(target, param) for target in kwargs_to.get(fn, ())]
        for target in targets:
            if target not in passed:
                passed.add(target)
                work.append(target)
    return sorted(
        f"{fn.label}.{param}"
        for fn in defined.values()
        if fn.label is not None
        for param in fn.defaults
        if (fn, param) not in passed
    )


def test_every_option_is_passed():
    assert unpassed() == sorted(KEEP_PARAMS)


def test_the_option_scan_counts_real_passes(tmp_path):
    """The scan itself: a literal equal to the default, a forward of an
    option nothing passes, and a class only named in an annotation and an
    ``isinstance`` call pass nothing; a keyword, a position and a
    ``call_later`` target with positional arguments do."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Timer:\n"
        "    def __init__(self, delay=1.0, repeat=False):\n"
        "        self.delay, self.repeat = delay, repeat\n"
        "\n"
        "class Clock:\n"
        "    def call_later(self, delay, callback, *args):\n"
        "        return callback(*args)\n"
        "\n"
        "class Client:\n"
        "    def register(self, retries=3):\n"
        "        return retries\n"
        "\n"
        "def connect(host, port=80, timeout=5.0, verbose=False, wait=1.0):\n"
        "    return host, port, timeout, verbose, wait\n"
        "\n"
        "def dial(host, wait=1.0):\n"
        "    return connect(host, wait=wait)\n"
        "\n"
        "def armed(timer: Timer) -> bool:\n"
        "    return isinstance(timer, Timer)\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg.mod import Client, Clock, connect, dial\n"
        "connect('a', timeout=2.0, verbose=False)\n"
        "connect('a', 8080)\n"
        "dial('a')\n"
        "Clock().call_later(1.0, Client().register, 5)\n"
    )
    assert unpassed(str(tmp_path)) == [
        "pkg.mod.Timer.__init__.delay",
        "pkg.mod.Timer.__init__.repeat",
        "pkg.mod.connect.verbose",
        "pkg.mod.connect.wait",
        "pkg.mod.dial.wait",
    ]
    # A test's pass counts, and the forward passes with it.
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_dial.py").write_text(
        "from pkg.mod import dial\n"
        "def test_dial():\n"
        "    dial('b', wait=2.0)\n"
    )
    assert unpassed(str(tmp_path)) == [
        "pkg.mod.Timer.__init__.delay",
        "pkg.mod.Timer.__init__.repeat",
        "pkg.mod.connect.verbose",
    ]
