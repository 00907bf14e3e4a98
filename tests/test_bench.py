"""``benchmarks/bench.py``'s results file names the checkouts it compares
without their paths."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_names_the_other_checkout_by_its_commit_not_its_path(bench, tmp_path,
                                                                     monkeypatch):
    """``--against DIR`` writes DIR's short commit, or ``parent`` for a
    directory that is not the root of a git checkout; no path of either
    checkout reaches the file."""
    other = tmp_path / "other checkout"
    other.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(bench, "ROOT", str(out))
    monkeypatch.setattr(bench, "load_package", lambda root: None)
    monkeypatch.setattr(bench, "items", lambda: [("item", lambda: None)])
    monkeypatch.setattr(bench, "compare", lambda names, repeats, against: {
        name: {"this": {}, "against": {}} for name in names})
    assert bench.main(["--label", "t", "--against", str(other)]) == 0
    text = (out / "BENCH_t.json").read_text(encoding="utf-8")
    assert json.loads(text)["against"] == "parent"
    for path in (str(other), str(tmp_path), str(BENCH.parent.parent)):
        assert path not in text


def test_checkout_id_is_the_short_commit_of_a_git_root(bench, tmp_path):
    try:
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        "commit", "-q", "--allow-empty", "-m", "t"], check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git is not available")
    commit = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    assert bench.checkout_id(str(tmp_path)) == commit
    (tmp_path / "sub").mkdir()
    assert bench.checkout_id(str(tmp_path / "sub")) == "parent"  # inside a checkout, not its root
