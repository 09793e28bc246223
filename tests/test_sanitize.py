"""tools/sanitize.py: the parity tests on sanitized builds of the C sources."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bluebird import walk

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sanitize", ROOT / "tools" / "sanitize.py")
sanitize = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sanitize)


@pytest.mark.parametrize("source", [walk.SOURCE, walk.RSOURCE, walk.LSOURCE])
def test_library_names_match_walk_load(source):
    # a sanitized build under another name than walk.load's would go unused
    lib = walk.load(source)
    if lib is None:
        pytest.skip("no C compiler to build the compiled libraries")
    got = sanitize.library("cache", Path(source))
    assert got == os.path.join("cache", "bluebird", os.path.basename(lib._name))


def test_report_lines():
    for line in ("src/bluebird/_rwalk.c:88:12: runtime error: signed integer overflow",
                 "==4711==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x6020"):
        assert sanitize.REPORT.search(line)
    for line in ("107 passed, 3 skipped in 37.5s", "E   ValueError: closed stepper",
                 "tests/test_walk.py::test_error_paths PASSED"):
        assert not sanitize.REPORT.search(line)


@pytest.mark.parametrize("cc", ["bare name", "missing"])
def test_missing_runtime_exits_2(monkeypatch, capsys, cc):
    # cc prints a runtime's bare name when it has no such file
    def run(args, **kw):
        if cc == "missing":
            raise FileNotFoundError(args[0])
        return subprocess.CompletedProcess(args, 0, args[1].split("=")[1] + "\n", "")

    monkeypatch.setattr(sanitize.subprocess, "run", run)
    assert sanitize.runtimes() == []
    assert sanitize.main([]) == 2
    assert capsys.readouterr().err == "sanitize: no cc with libasan and libubsan\n"


@pytest.mark.skipif(not os.environ.get("RUN_SLOW"),
                    reason="about 30 s of tests under AddressSanitizer and UBSan; "
                           "set RUN_SLOW=1 to enable")
def test_parity_tests_pass_under_sanitizers():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sanitize.py")],
                          capture_output=True, text=True, timeout=1800)
    if proc.returncode == 2:
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert " passed" in proc.stdout
