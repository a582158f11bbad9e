"""``tools/reach.py``: the reachability audit, on a small planted package.

One entry script runs under the hook: it calls one function directly,
one under ``cProfile`` (which replaces the hook) and one in a child that
sets its own ``PYTHONPATH``.  A "test" script calls a fourth.  The
planted package holds one function nothing calls and one stub.
"""

import importlib.util
import pathlib
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).parent.parent

MODULE = '''\
def direct():
    return 1


def profiled():
    return 2


def in_child():
    return 3


def tested():
    return 4


def dead():
    return 5


class Shape:
    def area(self):
        """Overridden; a stub is not counted."""
        ...
'''

ENTRY = '''\
import cProfile, os, subprocess, sys
from plant import mod

mod.direct()
profile = cProfile.Profile()
profile.enable()
mod.profiled()
profile.disable()
subprocess.run(
    [sys.executable, "-c", "from plant import mod; mod.in_child()"],
    env=dict(os.environ, PYTHONPATH=sys.argv[1]), check=True,
)
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def planted(reach, tmp_path_factory):
    """The planted package, and what its entry point and its test reached."""
    tmp = tmp_path_factory.mktemp("planted")
    src = tmp / "src"
    (src / "plant").mkdir(parents=True)
    (src / "plant" / "__init__.py").write_text("")
    (src / "plant" / "mod.py").write_text(MODULE)
    (tmp / "entry.py").write_text(ENTRY)
    (tmp / "check.py").write_text("from plant import mod\nmod.tested()\n")
    app = reach.hook_env(tmp / "app", src)
    tests = reach.hook_env(tmp / "tests", src)
    assert reach.run_steps(
        [reach.Step([str(tmp / "entry.py"), str(src)], tmp)], app
    ) == []
    assert reach.run_steps([reach.Step([str(tmp / "check.py")], tmp)],
                           tests) == []
    return (
        reach.functions(src, "plant"),
        reach.reached(tmp / "app" / "out", src),
        reach.reached(tmp / "tests" / "out", src),
        tmp,
    )


def _judge(reach, planted, allowlist_text):
    every, app, tests, tmp = planted
    path = tmp / "allow.txt"
    path.write_text(textwrap.dedent(allowlist_text))
    allowlist, problems = reach.read_allowlist(path)
    return reach.judge(every, app, tests, allowlist, problems)


def test_an_unreached_function_is_reported(reach, planted):
    report = _judge(reach, planted, "")
    assert [f.qualname for f in report.never] == ["dead"]
    assert [f.qualname for f in report.test_only] == ["tested"]
    assert report.total == 5 and not report.ok
    assert "plant/mod.py:17 dead" in report.render()


def test_an_allowlisted_function_passes(reach, planted):
    report = _judge(reach, planted, """\
        # comment
        plant/mod.py::dead  kept as the example of a dead function
        plant/mod.py::tested  checked by its test only
    """)
    assert report.ok, report.render()
    assert len(report.allowed) == 2


def test_an_entry_without_a_reason_fails(reach, planted):
    report = _judge(reach, planted, """\
        plant/mod.py::dead
        plant/mod.py::tested  checked by its test only
    """)
    assert report.problems == ["allow.txt:1: plant/mod.py::dead has no reason"]
    assert not report.ok


def test_an_entry_naming_a_reached_function_fails(reach, planted):
    report = _judge(reach, planted, """\
        plant/mod.py::dead  dead
        plant/mod.py::tested  tested
        plant/mod.py::profiled  reached under cProfile
        plant/mod.py::in_child  reached in a child process
    """)
    assert report.problems == [
        "allowlisted plant/mod.py::profiled is reached; remove its entry",
        "allowlisted plant/mod.py::in_child is reached; remove its entry",
    ]


def test_an_entry_naming_no_function_fails(reach, planted):
    report = _judge(reach, planted, """\
        plant/mod.py::dead  dead
        plant/mod.py::tested  tested
        plant/mod.py::gone  deleted since
        plant/mod.py::Shape.area  a stub is not a function here
    """)
    assert report.problems == [
        "allowlisted plant/mod.py::gone does not exist",
        "allowlisted plant/mod.py::Shape.area does not exist",
    ]
