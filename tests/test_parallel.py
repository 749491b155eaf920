import ctypes
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from capeskit import parallel
from capeskit.parallel import blas_single_thread

BLAS = parallel._openblas()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy without bundled OpenBLAS")

SRC = Path(__file__).resolve().parent.parent / "src"
#: the environment variables that change numpy's or OpenBLAS's code path
CPU_SWITCHES = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def fresh_python(*args, **switches) -> str:
    """The standard output of a fresh interpreter run with ``args``, which
    imports capeskit from ``src/`` and runs on the host's default CPU code
    path changed only by the environment variables ``switches``."""
    env = {k: v for k, v in os.environ.items() if k not in CPU_SWITCHES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env.update(switches)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def blas_threads():
    return BLAS[0]()


@needs_openblas
class TestBlasSingleThread:
    def test_pins_one_thread_and_restores(self):
        before = blas_threads()
        BLAS[1](2)
        try:
            with blas_single_thread:
                assert blas_threads() == 1
            assert blas_threads() == 2
        finally:
            BLAS[1](before)

    def test_nested_sections_restore_once(self):
        before = blas_threads()
        BLAS[1](2)
        try:
            with blas_single_thread:
                with blas_single_thread:
                    assert blas_threads() == 1
                assert blas_threads() == 1
            assert blas_threads() == 2
        finally:
            BLAS[1](before)

    def test_restores_after_exception(self):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with blas_single_thread:
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_decorated_function_runs_single_threaded(self):
        seen = []

        @blas_single_thread
        def work():
            seen.append(blas_threads())
            return np.ones((4, 4)) @ np.ones((4, 4))

        assert work()[0, 0] == 4.0
        assert seen == [1]

    def test_concurrent_sections_restore_the_first_count(self):
        before = blas_threads()
        BLAS[1](2)
        inside = []
        barrier = threading.Barrier(4, timeout=10)

        def section():
            with blas_single_thread:
                barrier.wait()
                inside.append(blas_threads())

        try:
            threads = [threading.Thread(target=section) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert inside == [1, 1, 1, 1]
            assert blas_threads() == 2
        finally:
            BLAS[1](before)


def test_single_thread_section_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    with blas_single_thread:
        assert (np.eye(3) @ np.eye(3) == np.eye(3)).all()



# The thread count numpy's OpenBLAS takes at load, in fresh interpreters:
# pytest has imported numpy already.
PROBE = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
tasks_before = len(os.listdir("/proc/self/task"))
import capeskit.cli
from capeskit import parallel
print(json.dumps({"blas": parallel._openblas()[0](), "tasks_before": tasks_before,
                  "tasks": len(os.listdir("/proc/self/task")),
                  "mask": sorted(os.sched_getaffinity(0))}))
"""
needs_pin = pytest.mark.skipif(BLAS is None or not hasattr(os, "sched_setaffinity"),
                               reason="numpy without bundled OpenBLAS, or no thread affinity")


@needs_pin
@pytest.mark.parametrize("switches", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["default", "OPENBLAS_NUM_THREADS=2"])
def test_numpy_loads_on_one_cpu(switches):
    seen = json.loads(fresh_python("-c", PROBE, "capeskit-first", **switches))
    assert seen["blas"] == 1
    assert seen["tasks"] == 1  # no OpenBLAS worker thread
    assert seen["mask"] == sorted(os.sched_getaffinity(0))


@needs_pin
def test_numpy_imported_first_keeps_its_threads():
    seen = json.loads(fresh_python("-c", PROBE, "numpy-first"))
    # the main thread and the workers numpy's import started
    assert seen["blas"] == seen["tasks_before"] == seen["tasks"]
    assert seen["mask"] == sorted(os.sched_getaffinity(0))


def _openblas_core():
    """The name of the core numpy's bundled OpenBLAS chose, or None."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def _numpy_has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512F"))


CORE = _openblas_core()
GEN_CONFIG = """
nlat = 16
nlon = 16
n_init = 2
n_latent = 2
start_dates = d0
schemes = s0
param_grid = 1x1
"""


def _known_difference(why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 6: {why}")


def _core_switch(core, command):
    """The marks of ``OPENBLAS_CORETYPE=core`` on ``command``, whose bytes
    change with the OpenBLAS kernel: none where ``core`` is this host's own
    core, so the switch changes nothing."""
    if CORE is None or CORE.lower() == core.lower():
        return []
    return [_known_difference(f"{command} runs another OpenBLAS kernel under {core} "
                              f"than under {CORE}")]


NO_AVX512 = "X86_V4 AVX512_SPR AVX512_ICL"
SWITCHED_GENERATE = [
    pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="OPENBLAS_NUM_THREADS=1"),
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="OPENBLAS_CORETYPE=Haswell"),
    pytest.param({"OPENBLAS_CORETYPE": "SkylakeX"}, id="OPENBLAS_CORETYPE=SkylakeX"),
    pytest.param({"OPENBLAS_CORETYPE": "Sandybridge"}, id="OPENBLAS_CORETYPE=Sandybridge",
                 marks=_core_switch("Sandybridge", "generate")),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, id="NPY_DISABLE_CPU_FEATURES",
                 marks=[_known_difference("np.power and np.exp give other bits without "
                                          "numpy's AVX-512 code paths")]
                 if _numpy_has_avx512() else []),
]
# ``fuse``'s weighted sum is one matrix-vector product (``np.tensordot``),
# whose OpenBLAS kernel differs between Haswell and SkylakeX; its numpy
# arithmetic gives the same bits without AVX-512.
SWITCHED_FUSE = [
    pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="OPENBLAS_NUM_THREADS=1"),
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, id="OPENBLAS_CORETYPE=Haswell",
                 marks=_core_switch("Haswell", "fuse")),
    pytest.param({"OPENBLAS_CORETYPE": "SkylakeX"}, id="OPENBLAS_CORETYPE=SkylakeX",
                 marks=_core_switch("SkylakeX", "fuse")),
    pytest.param({"OPENBLAS_CORETYPE": "Sandybridge"}, id="OPENBLAS_CORETYPE=Sandybridge",
                 marks=_core_switch("Sandybridge", "fuse")),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, id="NPY_DISABLE_CPU_FEATURES"),
]


def _generate(out: Path, **switches) -> dict:
    config = out.parent / "gen.cfg"
    config.write_text(GEN_CONFIG)
    fresh_python("-m", "capeskit.cli", "generate", "--mode", "hybrid", "--seed", "13",
                 "--config", str(config), "--out-dir", str(out), **switches)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _fuse(ens: Path, out: Path, **switches) -> tuple:
    out.mkdir()
    fresh_python("-m", "capeskit.cli", "fuse", "--ensemble-dir", str(ens),
                 "--out-field", str(out / "fused.grd"), "--out-weights", str(out / "w.csv"),
                 **switches)
    return (out / "fused.grd").read_bytes(), (out / "w.csv").read_bytes()


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The ensemble directory, its files and its fused outputs, from runs on
    the host's default CPU code path."""
    tmp = tmp_path_factory.mktemp("default")
    ens = tmp / "ens"
    return ens, _generate(ens), _fuse(ens, tmp / "fused")


@pytest.mark.slow
class TestCpuScope:
    """The determinism contract's CPU scope: output bytes under each switch
    of numpy's or OpenBLAS's code path, against the default run's."""

    @pytest.mark.parametrize("switches", SWITCHED_GENERATE)
    def test_generate(self, default_run, tmp_path, switches):
        files = _generate(tmp_path / "ens", **switches)
        assert sorted(files) == sorted(default_run[1])
        assert [name for name in files if files[name] != default_run[1][name]] == []

    @pytest.mark.parametrize("switches", SWITCHED_FUSE)
    def test_fuse_of_the_default_ensemble(self, default_run, tmp_path, switches):
        assert _fuse(default_run[0], tmp_path / "fused", **switches) == default_run[2]
