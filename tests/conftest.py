"""Prints one PASS/FAIL line per end-to-end acceptance criterion."""
import os
import tempfile

# hypothesis keeps its example and constants caches outside the repository
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "frontalforge-hypothesis"))

CRITERIA = {
    "test_acceptance_01_symmetry_catalog": (1, "symmetry catalog exactness"),
    "test_acceptance_02_involution_invariants": (2, "involution invariants"),
    "test_acceptance_03_connecting_map_example": (3,
                                                  "connecting-map example"),
    "test_acceptance_04_normal_form_round_trip": (4,
                                                  "normal-form round trip"),
    "test_acceptance_05_invariant_identity": (5, "invariant identity"),
    "test_acceptance_06_dual_law": (6, "dual law"),
    "test_acceptance_07_inverse_law": (7, "inverse law"),
    "test_acceptance_08_ist_developability": (
        8, "strip developability and commutation"),
    "test_acceptance_09_properness_verdicts": (9,
                                               "properness probe verdicts"),
    "test_acceptance_10_limiting_normal_curvature": (
        10, "limiting normal curvature"),
    "test_acceptance_11_self_intersection_claims": (
        11, "self-intersection claims"),
    "test_acceptance_12_congruence_table": (12, "congruence decision table"),
    "test_acceptance_13_ms_parity": (13, "parity symmetry test"),
}

_results = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1]
    if name in CRITERIA and report.when == "call":
        _results[name] = report.outcome == "passed"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for name, (num, title) in sorted(CRITERIA.items(),
                                     key=lambda kv: kv[1][0]):
        if name in _results:
            status = "PASS" if _results[name] else "FAIL"
            terminalreporter.write_line(
                f"ACCEPTANCE {num} {title}: {status}")
