"""``tools/surfaces.py``: one line per surface, exit 1 on any difference."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def surfaces():
    spec = importlib.util.spec_from_file_location(
        "surfaces", ROOT / "tools" / "surfaces.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(surfaces, monkeypatch, capsys, tmp_path, change_writes):
    """Run the tool with a faked runner: every surface prints its own
    arguments and writes ``out.json``; ``change_writes(name, cwd)`` may
    alter what the change side leaves behind."""
    runs = []

    def fake_run(checkout, argv, cwd):
        runs.append((checkout, cwd))
        (cwd / "out.json").write_text(" ".join(argv))
        if checkout == "change":
            change_writes(cwd.name, cwd)
        return " ".join(argv).encode()

    monkeypatch.setattr(surfaces, "run_cli", fake_run)
    monkeypatch.setattr(surfaces.tempfile, "mkdtemp",
                        lambda prefix: str(tmp_path / "work"))
    code = surfaces.main(["parent", "change"])
    return code, capsys.readouterr().out.splitlines(), runs


class TestSurfaces:
    def test_every_determinism_case_and_the_extras(self, surfaces):
        names = surfaces.surfaces()
        assert {"trace", "profile-4", "soak-kill-node", "multinic"} <= set(names)
        assert set(surfaces.EXTRA) <= set(names)
        assert names["metrics"] == "metrics --seed 7 --format both"

    def test_identical_trees_pass_and_clean_up(
        self, surfaces, monkeypatch, capsys, tmp_path
    ):
        code, lines, runs = _main(
            surfaces, monkeypatch, capsys, tmp_path, lambda name, cwd: None
        )
        assert code == 0
        assert len(lines) == len(surfaces.surfaces())
        assert all(line.split()[1] == "identical" for line in lines)
        # Both sides ran every surface from a directory of the same name.
        by_side = {
            side: sorted(cwd.name for checkout, cwd in runs if checkout == side)
            for side in ("parent", "change")
        }
        assert by_side["parent"] == by_side["change"] == sorted(
            surfaces.surfaces()
        )
        assert not (tmp_path / "work").exists()

    def test_a_changed_or_extra_file_fails_and_is_named(
        self, surfaces, monkeypatch, capsys, tmp_path
    ):
        def change_writes(name, cwd):
            if name == "metrics":
                (cwd / "out.json").write_text("moved")
            if name == "ycsb":
                (cwd / "extra.txt").write_text("")

        code, lines, __ = _main(
            surfaces, monkeypatch, capsys, tmp_path, change_writes
        )
        assert code == 1
        differing = [line for line in lines if "DIFFERS" in line]
        assert differing == [
            f"{'metrics':<18} DIFFERS: out.json",
            f"{'ycsb':<18} DIFFERS: extra.txt",
        ]
        assert lines[-1].startswith("2 surface(s) differ")
        assert (tmp_path / "work" / "change" / "metrics" / "out.json").exists()

    def test_stdout_is_compared(self, surfaces):
        assert surfaces.differences(
            {"<stdout>": b"a", "f": b"x"}, {"<stdout>": b"b", "f": b"x"}
        ) == ["<stdout>"]
