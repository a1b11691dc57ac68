import numpy as np

criterion_lines: list[str] = []


def image_source_specular_oracle(geom) -> np.ndarray:
    """Independent specular-point construction: mirror the TX across the
    reflector plane and solve the collinearity equation on the sweep line."""
    n = np.array([1.0, 0.0, 0.0])  # the plate normal; its center is the origin
    tx_image = geom.tx_position - 2.0 * float(np.dot(geom.tx_position, n)) * n
    sight = -tx_image / np.linalg.norm(tx_image)
    sweep_dir = geom.sweep_end - geom.sweep_start
    # S(t) = start + t*dir must be collinear with the image sight line:
    # cross(S(t) - tx_image, sight) = 0, linear in t.
    a = np.cross(sweep_dir, sight)
    b = -np.cross(geom.sweep_start - tx_image, sight)
    t = float(np.dot(a, b) / np.dot(a, a))
    return geom.sweep_start + t * sweep_dir


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in criterion_lines:
        terminalreporter.write_line(line)
