"""Suite-wide pytest hooks."""

from helpers import platform_fingerprint


def pytest_report_header(config):
    # The golden digests hold on one BLAS kernel and SIMD level: every log names both.
    core, level = platform_fingerprint()
    return [f"OpenBLAS core: {core}", f"numpy SIMD level: {level}"]
