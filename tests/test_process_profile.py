"""The CLI's process profile: glibc keeps freed heap, numpy's OpenBLAS runs
one thread.  Both act on the whole process, so the checks that read them run
in a fresh interpreter, as does the check that a library-only process, which
sets no profile, evaluates the same bytes at any BLAS thread count."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.linalg import _umath_linalg

import mapgroups
from mapgroups import cli

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the profile sets glibc's allocator"
)

SET_THREADS = "scipy_openblas_set_num_threads64_"
BOTH_SYMBOLS = {"mallopt", SET_THREADS}


def run_python(code: str, **env) -> str:
    src = str(Path(mapgroups.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def fresh_profile():
    """Lets a test run ``set_process_profile`` anew, and sets the real
    profile again afterwards, once per process as before."""
    cli.set_process_profile.cache_clear()
    yield
    cli.set_process_profile.cache_clear()
    cli.set_process_profile()


def fake_libraries(present: set, calls: list, opens: bool = True):
    """A stand-in for ``ctypes.CDLL`` whose libraries export only ``present``
    (or cannot be opened), recording each call."""

    class Library:
        def __init__(self, library):
            if not opens:
                raise OSError(f"cannot open {library}")

        def __getattr__(self, name):
            if name not in present:
                raise AttributeError(name)

            def fn(*args):
                calls.append((name, *args))
                return 1

            return fn

    return Library


def test_group_stacks_reuse_their_pages_once_the_profile_is_set():
    # Two (4, 4, 4900) SU2 products freed together leave 1.25 MB free at
    # the top of the heap; without the profile glibc trims it and the next
    # pair faults about 137 pages per stack in again.
    out = run_python(
        "import resource\n"
        "import numpy as np\n"
        "from mapgroups import cli\n"
        "from mapgroups.groups import group_by_name\n"
        "cli.set_process_profile()\n"
        "su2 = group_by_name('SU2')\n"
        "rng = np.random.default_rng(0)\n"
        "a, b = (su2.exp(0.3 * rng.normal(size=(4900, 3))) for _ in range(2))\n"
        "def rounds(n):\n"
        "    for _ in range(n):\n"
        "        c = su2.multiply(a, b); d = su2.multiply(b, a); del c, d\n"
        "rounds(5)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "rounds(50)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults_per_stack = int(out) / 100
    assert faults_per_stack < 10


def test_cli_main_leaves_openblas_on_one_thread(tmp_path):
    out = run_python(
        "from numpy.linalg import _umath_linalg\n"
        "from mapgroups import cli\n"
        "get = cli._native_function(\n"
        "    _umath_linalg.__file__, 'scipy_openblas_get_num_threads64_', ())\n"
        "if get is None:\n"
        "    print('missing')\n"
        "else:\n"
        f"    assert cli.main(['ladder', '--out', {str(tmp_path)!r}]) == 0\n"
        "    print(get())\n",
        OPENBLAS_NUM_THREADS="2",
    )
    threads = out.splitlines()[-1]
    if threads == "missing":
        pytest.skip("numpy's BLAS exports no thread setter")
    assert threads == "1"


def test_library_evaluate_keeps_its_bytes_at_any_blas_thread_count():
    # A process that never calls cli.main sets no thread count, and
    # evaluate on a tensor grid multiplies with BLAS through grid_values.
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "import mapgroups as mg\n"
        "grids = [c.window_points for c in mg.builtin_atlas('torus4').charts]\n"
        "grids.append(mg.GridDomain.full_torus(2, 129).nodes())\n"
        "for order in (3, 12, 32):\n"
        "    field = mg.random_field(2, order, 3, np.random.default_rng(order))\n"
        "    for points in grids:\n"
        "        print(hashlib.sha256(field.evaluate(points).tobytes()).hexdigest())\n"
    )
    one, two = (run_python(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert len(one.split()) == 15
    assert one == two


def test_the_profile_is_set_once_per_process(monkeypatch, fresh_profile):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_libraries(BOTH_SYMBOLS, calls))
    for _ in range(3):
        assert cli.set_process_profile() is None
    size = cli.HEAP_KEEP_BYTES
    assert calls == [("mallopt", -1, size), ("mallopt", -3, size), (SET_THREADS, 1)]


def test_setting_the_profile_twice_leaves_it_as_once(monkeypatch, fresh_profile):
    once, twice = [], []
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_libraries(BOTH_SYMBOLS, once))
    cli.set_process_profile.__wrapped__()
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_libraries(BOTH_SYMBOLS, twice))
    cli.set_process_profile.__wrapped__()
    cli.set_process_profile.__wrapped__()
    assert twice == once + once


@pytest.mark.parametrize("present", [{"mallopt"}, {SET_THREADS}, set()])
def test_a_missing_symbol_is_skipped(monkeypatch, fresh_profile, present):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_libraries(present, calls))
    cli.set_process_profile()
    assert {name for name, *_ in calls} == present


def test_a_library_that_cannot_be_opened_is_skipped(monkeypatch, fresh_profile):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_libraries(BOTH_SYMBOLS, calls, opens=False))
    cli.set_process_profile()
    assert calls == []

