"""The reach census (``benchmarks/reach_census.py``) on a small package: a
code object is keyed by file and first line and resolves to its qualified
name through the ``ast``, on every Python the package supports."""

import importlib.util
import os
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census = _load("reach_census", os.path.join(_REPO, "benchmarks", "reach_census.py"))

MODULE = (
    "import functools\n"
    "\n"
    "def tagged(fn):\n"
    "    @functools.wraps(fn)\n"
    "    def wrapper(*args):\n"
    "        return fn(*args)\n"
    "    return wrapper\n"
    "\n"
    "class Outer:\n"
    "    @tagged\n"
    "    @tagged\n"
    "    def decorated(self):\n"
    "        return 1\n"
    "\n"
    "    class Inner:\n"
    "        def method(self):\n"
    "            return 2\n"
    "\n"
    "        @property\n"
    "        def value(self):\n"
    "            return 3\n"
    "\n"
    "def never():\n"
    "    return 4\n"
)


@pytest.fixture
def package(tmp_path):
    folder = tmp_path / "src" / "pkg"
    folder.mkdir(parents=True)
    (folder / "__init__.py").write_text("")
    (folder / "mod.py").write_text(MODULE)
    return tmp_path


def test_code_objects_resolve_to_their_qualified_names(package):
    module = _load("pkg_mod", str(package / "src" / "pkg" / "mod.py"))
    defined = census.definitions(str(package))

    def resolve(code):
        return defined[(os.path.realpath(code.co_filename), code.co_firstlineno)]

    # A decorated definition's code starts at its first decorator.
    assert resolve(module.Outer.decorated.__wrapped__.__wrapped__.__code__) == \
        "src/pkg/mod.py::Outer.decorated"
    assert resolve(module.Outer.Inner.method.__code__) == "src/pkg/mod.py::Outer.Inner.method"
    assert resolve(module.Outer.Inner.value.fget.__code__) == "src/pkg/mod.py::Outer.Inner.value"
    # Nested functions are not listed: only module level and class bodies.
    assert sorted(defined.values()) == [
        "src/pkg/mod.py::Outer.Inner.method", "src/pkg/mod.py::Outer.Inner.value",
        "src/pkg/mod.py::Outer.decorated", "src/pkg/mod.py::never",
        "src/pkg/mod.py::tagged",
    ]


def test_traffic_reach_lists_what_no_process_called(package):
    call = "import pkg.mod as m; m.Outer().decorated(); m.Outer.Inner().method()"
    entered = census.run_traffic(str(package), [[sys.executable, "-c", call]])
    assert census.unreached(str(package), entered) == [
        "src/pkg/mod.py::Outer.Inner.value", "src/pkg/mod.py::never",
    ]
    with pytest.raises(SystemExit, match="traffic failed"):
        census.run_traffic(str(package), [[sys.executable, "-c", "raise SystemExit(3)"]])
