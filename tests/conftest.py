import os
import sys

# OpenBLAS and OpenMP read their thread counts when numpy first loads them.
# With the default (one thread per core) each tiny GP solve pays thread
# hand-off costs that swing with host load, so the suite pins one thread
# unless the caller chose otherwise. test_blas_threads checks the order.
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

HELPERS_DIR = os.path.join(os.path.dirname(__file__), "helpers")
FAULT_EVALUATOR = os.path.join(HELPERS_DIR, "fault_evaluator.py")
PYTHON = sys.executable

# (criterion name, passed, measured detail) rows appended by the acceptance
# tests; replayed after the run so the verdict lines survive output capture.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for name, ok, detail in ACCEPTANCE_RESULTS:
            verdict = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"[{verdict}] {name}: {detail}")
