"""Smoke tests: every example script must run end to end.

Examples are part of the public deliverable; these tests execute each one
(at reduced sizes where the script accepts arguments) so API drift breaks
CI instead of users.  Output directories are redirected into tmp_path.
"""

from __future__ import annotations

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _run_example(monkeypatch, tmp_path, name: str, argv: list[str]) -> None:
    script = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    module_vars = runpy.run_path(script, run_name="__not_main__")
    # Redirect the example's output directory into the test sandbox.
    if "OUT_DIR" in module_vars:
        out_dir = str(tmp_path / "out")
        monkeypatch.setattr(sys, "argv", [script, *argv])
        # Re-execute with OUT_DIR patched by injecting through the module
        # globals: simplest is to run main() from the loaded namespace.
        module_vars["OUT_DIR"] = out_dir
        for key, value in module_vars.items():
            if callable(value) and getattr(value, "__name__", "") == "main":
                # Patch the module-level OUT_DIR captured by the function.
                value.__globals__["OUT_DIR"] = out_dir
                value()
                return
        raise AssertionError(f"{name} has no main()")
    monkeypatch.setattr(sys, "argv", [script, *argv])
    module_vars["main"]()


@pytest.mark.parametrize(
    "name,argv",
    [
        ("compare_algorithms.py", ["--size", "128", "--tiles", "8,16"]),
        ("video_mosaic.py", ["--frames", "2", "--size", "64", "--tiles", "8"]),
    ],
)
def test_parameterised_examples(monkeypatch, tmp_path, name, argv):
    _run_example(monkeypatch, tmp_path, name, argv)


def test_quickstart(monkeypatch, tmp_path, capsys):
    _run_example(monkeypatch, tmp_path, "quickstart.py", [])
    out = capsys.readouterr().out
    assert "total error" in out
    assert (tmp_path / "out" / "mosaic.png").exists()


def test_gallery(monkeypatch, tmp_path, capsys):
    _run_example(monkeypatch, tmp_path, "gallery.py", [])
    out = capsys.readouterr().out
    assert "airplane" in out
    assert len(list((tmp_path / "out").glob("*_mosaic.png"))) == 3


def test_gpu_simulation(monkeypatch, tmp_path, capsys):
    _run_example(monkeypatch, tmp_path, "gpu_simulation.py", [])
    out = capsys.readouterr().out
    assert "Performance-model predictions" in out
    assert "Simulated device timeline" in out


def test_histogram_adjustment(monkeypatch, tmp_path, capsys):
    _run_example(monkeypatch, tmp_path, "histogram_adjustment.py", [])
    out = capsys.readouterr().out
    assert "with adjustment" in out


def test_color_mosaic(monkeypatch, tmp_path, capsys):
    _run_example(monkeypatch, tmp_path, "color_mosaic.py", [])
    assert "colour" in capsys.readouterr().out


def test_tile_transforms(monkeypatch, tmp_path, capsys):
    _run_example(monkeypatch, tmp_path, "tile_transforms.py", [])
    out = capsys.readouterr().out
    assert "lower error" in out
    assert "unchanged" in out


def test_database_mosaic(monkeypatch, tmp_path, capsys):
    _run_example(monkeypatch, tmp_path, "database_mosaic.py", [])
    out = capsys.readouterr().out
    assert "with reuse" in out
    assert "without reuse" in out
